"""Command-line interface.

Four subcommands cover the main workflows:

``material``
    Permittivity and loss-budget table versus bias field -> ``material.csv``.
``design``
    Working-point search plus a full design report (frequency, couplings,
    rates, compression power) -> ``design.txt`` / ``design.kv``.
``gain``
    Reflection-gain curves at requested pump ratios xi/(kappa/2) ->
    ``gain.csv``.
``sweep``
    Bias-voltage or plate-separation sweep tables -> ``sweep.csv``.

Every output file starts with a comment banner and the fully resolved
configuration, so a run can be reproduced from any of its outputs.  `main` alone
sets the exit code: 2 for an error while the configuration resolves or an I/O error,
3 for any other error once the command runs.  Overflow gives inf or NaN on floats as
on arrays, and no file is written with a non-finite value outside `_NON_FINITE_COLUMNS`.

No command imports numpy: ``gain`` (`amplifier.reflection` per frequency) and the bias
``sweep`` (`sweep._bias_rows`) build their rows on Python floats, with the grid and column
formulas that `amplifier.profile_from_rates` and `sweep.bias_sweep` apply to arrays.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .amplifier import _TWO_PI, _decibels, _frequencies, _rates, compression_estimate, reflection
from .config import Run, command_run, echo_lines, load_config
from .errors import NumericalError
from .material import _BUILTINS
from .resonator import operating_point
from .sweep import _bias_rows, dielectric_sweep, geometry_sweep, maximize_3wm

__all__ = ["main"]


def _header(command: str, sections: dict) -> list[str]:
    echo = (f"# {text}" if text else "#" for text in echo_lines(sections))
    return [f"# qpamp {__version__} {command}", *echo]


def _out_dir(run: Run) -> Path:
    path = Path(run.sections["output"]["path"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# The only columns a command may write non-finite: peak_gain_db is NaN at or beyond
# threshold, and q_int is inf for a lossless film.
_NON_FINITE_COLUMNS = ("peak_gain_db", "q_int")


def _check_row(command: str, columns, row) -> None:
    """Refuse a non-finite value outside the documented columns, naming the first one."""
    for name, value in zip(columns, row):
        if not math.isfinite(value) and name not in _NON_FINITE_COLUMNS:
            raise NumericalError(f"{command} table column {name!r} is not finite")


def _write_csv(run: Run, command: str, columns, rows) -> None:
    template = ",".join(["%.17g"] * len(columns))  # the bytes of format(value, ".17g")
    lines = [",".join(columns)]
    for row in rows:  # every row is checked before anything is written
        line = template % row
        if "n" in line:  # only "nan" and "inf" print an n
            _check_row(command, columns, row)
        lines.append(line)
    path = _out_dir(run) / f"{command}.csv"
    _write_lines(path, _header(command, run.sections) + lines)
    print(f"wrote {path} ({len(rows)} rows)")


def cmd_material(run: Run) -> None:
    """Dielectric response table over the configured bias-field range."""
    result = dielectric_sweep(run.design.material, run.sweep)
    _write_csv(run, "material", result.columns, result.rows)


def _warn_on_edge(point: str, window: str) -> None:
    """Warn that the working point sits on the edge of its search window."""
    print(
        f"qpamp: warning: working-point {point} is on the edge of the search window {window}; "
        "|xi| may peak outside it",
        file=sys.stderr,
    )


def _working_point(run: Run):
    """(optimum, working-point record, rate budget) of the configured bias search window."""
    design, circuit, drive, window = run.design, run.circuit, run.drive, run.sweep
    best = maximize_3wm(design, circuit, drive, v_range=(window.start, window.stop))
    if best.on_window_edge:
        _warn_on_edge(
            f"bias {best.v0_max * 1e3:.6g} mV",
            f"[{window.start * 1e3:.6g}, {window.stop * 1e3:.6g}] mV",
        )
    point = operating_point(best.v0_max, drive, design, circuit)
    return best, point, _rates(point)


def cmd_design(run: Run) -> None:
    """Working-point search and full design report."""
    sections = run.sections
    best, point, rates = _working_point(run)
    comp = compression_estimate(point.k_eff, rates)
    xi = abs(point.xi)

    # (kv key, report label, display unit, value) rows of the design report.
    rows = (
        ("v0_max_mv", "working-point bias v0", "mV", best.v0_max * 1e3),
        ("f0_ghz", "mode frequency f0", "GHz", point.omega0 / _TWO_PI / 1e9),
        ("c_pf", "capacitance at v0", "pF", point.c * 1e12),
        ("xi_mhz", "three-wave strength |xi|/2pi", "MHz", xi / _TWO_PI / 1e6),
        ("keff_hz", "Kerr strength K_eff/2pi", "Hz", point.k_eff / _TWO_PI),
        ("xi_over_keff", "ratio |xi| / K_eff", "", xi / point.k_eff),
        ("kappa_int_mhz", "internal rate kappa_int/2pi", "MHz", point.kappa_int / _TWO_PI / 1e6),
        ("kappa_ext_mhz", "external rate kappa_ext/2pi", "MHz", point.kappa_ext / _TWO_PI / 1e6),
        ("kappa_mhz", "total rate kappa/2pi", "MHz", rates.kappa / _TWO_PI / 1e6),
        ("q_int", "internal quality factor", "", rates.q_int),
        ("q_ext", "external quality factor", "", rates.q_ext),
        ("pump_ratio", "pump ratio |xi|/(kappa/2)", "", xi / (rates.kappa / 2.0)),
        ("pump_photons", "pump occupation estimate", "", point.pump_photons),
        ("n_photons", "Kerr-limited photon budget", "", comp.n_photons),
        ("p_circ_dbm", "compression power (cyclic-frequency convention)", "dBm",
         comp.p_dbm_ordinary),
        ("p_circ_dbm_angular", "compression power (angular-frequency convention)", "dBm",
         comp.p_dbm_angular),
    )
    keys, _, _, values = zip(*rows)
    _check_row("design", keys, values)

    report = [f"{'material':<50}{sections['material']['name']}"]
    report.extend(
        f"{label:<50}{value:.6g}{' ' + unit if unit else ''}" for _, label, unit, value in rows
    )
    out = _out_dir(run)
    _write_lines(out / "design.txt", _header("design", sections) + report)
    kv = [f"material = {sections['material']['name']}"]
    kv.extend(f"{key} = %.17g" % value for key, _, _, value in rows)
    _write_lines(out / "design.kv", _header("design", sections) + kv)

    print("\n".join(report + [f"wrote {out / name}" for name in ("design.txt", "design.kv")]))


def cmd_gain(run: Run) -> None:
    """Reflection-gain curves at the working point for each pump ratio."""
    rates = _working_point(run)[2]

    frequencies = _frequencies(rates, run.grid)
    rows = []
    for ratio in run.sections["gain"]["xi_ratio"]:
        xi_mag = ratio * rates.kappa / 2.0
        for omega in frequencies:
            r = reflection(omega, xi_mag, rates)
            rows.append((ratio, omega / _TWO_PI / 1e9, _decibels(abs(r)), r.real, r.imag))

    _write_csv(run, "gain", ("xi_ratio", "freq_ghz", "gain_db", "re_R", "im_R"), rows)


def cmd_sweep(run: Run) -> None:
    """Bias-voltage or plate-separation sweep table."""
    tabulate = _bias_rows if run.sweep.variable == "bias_voltage" else geometry_sweep
    result = tabulate(run.sweep, run.design, run.circuit, run.drive)
    if result.on_window_edge:
        field = result.column("v0_max_mv")[0] / result.column("d_nm")[0]  # mV/nm = V/um
        _warn_on_edge(f"field {field:.6g} V/um", "of the plate-separation sweep")
    _write_csv(run, "sweep", result.columns, result.rows)


# Command -> (what it runs, its help line).
_COMMANDS = {
    "material": (cmd_material, "tabulate permittivity and loss versus bias field"),
    "design": (cmd_design, "find the working point and report the design numbers"),
    "gain": (cmd_gain, "tabulate reflection-gain curves at chosen pump ratios"),
    "sweep": (cmd_sweep, "tabulate a bias-voltage or plate-separation sweep"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpamp",
        description="Quantum-paraelectric varactor amplifier design tool.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", metavar="PATH", help="configuration file (INI format)")
        sub.add_argument("--out", metavar="DIR", help="output directory (overrides [output] path)")
        sub.add_argument(
            "--material",
            choices=tuple(_BUILTINS),
            help="built-in material shortcut (overrides [material] name)",
        )
        sub.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a single config entry (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:  # config phase
        config = load_config(args.config, args.override, args.material, args.out)
        run = command_run(config, args.command)
    except ValueError as exc:
        print(f"qpamp: config error: {exc}", file=sys.stderr)
        return 2
    # Command phase: the config is valid, so a computed value that breaks a rule is numerical.
    # Overflow gives inf or NaN, which the table checks name; ArithmeticError is a backstop.
    try:
        _COMMANDS[args.command][0](run)
    except ArithmeticError as exc:
        print(f"qpamp: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, ValueError) as exc:
        print(f"qpamp: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"qpamp: i/o error: {exc}", file=sys.stderr)
        return 2
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
