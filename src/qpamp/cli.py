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
configuration, so a run can be reproduced from any of its outputs.  Exit
codes: 0 on success, 2 for configuration problems, 3 for numerical failures
(including pumping at or beyond the oscillation threshold).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from ._version import __version__
from .amplifier import GridSpec, compression_estimate, profile_from_rates, rate_budget
from .config import (
    ToolConfig,
    circuit_params,
    drive_spec,
    echo_lines,
    effective_sections,
    load_config,
    material_params,
    sweep_spec,
    varactor_design,
)
from .errors import ConfigurationError, NumericalError
from .resonator import operating_point, pump_photon_estimate
from .sweep import bias_sweep, dielectric_sweep, geometry_sweep, maximize_3wm

__all__ = ["main"]

_TWO_PI = 2.0 * math.pi


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _header(command: str, sections: dict) -> list[str]:
    lines = [f"# qpamp {__version__} {command}"]
    for text in echo_lines(sections):
        lines.append(f"# {text}" if text else "#")
    return lines


def _out_dir(config: ToolConfig) -> Path:
    path = Path(config.output_path)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_lines(path: Path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_csv(path: Path, command: str, sections: dict, columns, rows) -> None:
    lines = _header(command, sections)
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(value) for value in row) for row in rows)
    _write_lines(path, lines)
    print(f"wrote {path} ({len(rows)} rows)")


def cmd_material(config: ToolConfig) -> None:
    """Dielectric response table over the configured bias-field range."""
    sections = effective_sections(config, "material")
    result = dielectric_sweep(material_params(sections), sweep_spec(sections))
    _write_csv(_out_dir(config) / "material.csv", "material", sections, result.columns, result.rows)


# (kv key, report label, display unit) rows of the design report.
_REPORT_FIELDS = (
    ("v0_max_mv", "working-point bias v0", "mV"),
    ("f0_ghz", "mode frequency f0", "GHz"),
    ("c_pf", "capacitance at v0", "pF"),
    ("xi_mhz", "three-wave strength |xi|/2pi", "MHz"),
    ("keff_hz", "Kerr strength K_eff/2pi", "Hz"),
    ("xi_over_keff", "ratio |xi| / K_eff", ""),
    ("kappa_int_mhz", "internal rate kappa_int/2pi", "MHz"),
    ("kappa_ext_mhz", "external rate kappa_ext/2pi", "MHz"),
    ("kappa_mhz", "total rate kappa/2pi", "MHz"),
    ("q_int", "internal quality factor", ""),
    ("q_ext", "external quality factor", ""),
    ("pump_ratio", "pump ratio |xi|/(kappa/2)", ""),
    ("pump_photons", "pump occupation estimate", ""),
    ("n_photons", "Kerr-limited photon budget", ""),
    ("p_circ_dbm", "compression power (cyclic-frequency convention)", "dBm"),
    ("p_circ_dbm_angular", "compression power (angular-frequency convention)", "dBm"),
)


def _working_point(sections: dict):
    """(design, circuit, drive, optimum) of the configured bias search window."""
    design = varactor_design(sections)
    circuit = circuit_params(sections)
    drive = drive_spec(sections)
    window = sweep_spec(sections)
    best = maximize_3wm(design, circuit, drive, v_range=(window.start, window.stop))
    if best.on_window_edge:
        print(
            f"qpamp: warning: working-point bias {best.v0_max * 1e3:.6g} mV is on the edge of "
            f"the search window [{window.start * 1e3:.6g}, {window.stop * 1e3:.6g}] mV; "
            "|xi| may peak outside it",
            file=sys.stderr,
        )
    return design, circuit, drive, best


def cmd_design(config: ToolConfig) -> None:
    """Working-point search and full design report."""
    sections = effective_sections(config, "design")
    design, circuit, drive, best = _working_point(sections)
    coeffs = operating_point(best.v0_max, drive, design, circuit)
    rates = rate_budget(best.v0_max, design, circuit)
    comp = compression_estimate(coeffs.k_eff, rates)
    xi = abs(coeffs.xi)

    values = {
        "v0_max_mv": best.v0_max * 1e3,
        "f0_ghz": coeffs.omega0 / _TWO_PI / 1e9,
        "c_pf": coeffs.q_zpf / coeffs.v_zpf * 1e12,
        "xi_mhz": xi / _TWO_PI / 1e6,
        "keff_hz": coeffs.k_eff / _TWO_PI,
        "xi_over_keff": xi / coeffs.k_eff,
        "kappa_int_mhz": rates.kappa_int / _TWO_PI / 1e6,
        "kappa_ext_mhz": rates.kappa_ext / _TWO_PI / 1e6,
        "kappa_mhz": rates.kappa / _TWO_PI / 1e6,
        "q_int": rates.q_int,
        "q_ext": rates.q_ext,
        "pump_ratio": xi / (rates.kappa / 2.0),
        "pump_photons": pump_photon_estimate(best.v0_max, drive, design, circuit),
        "n_photons": comp.n_photons,
        "p_circ_dbm": comp.p_dbm_ordinary,
        "p_circ_dbm_angular": comp.p_dbm_angular,
    }

    report = [f"{'material':<50}{sections['material']['name']}"]
    report.extend(
        f"{label:<50}{values[key]:.6g}{' ' + unit if unit else ''}"
        for key, label, unit in _REPORT_FIELDS
    )
    out = _out_dir(config)
    _write_lines(out / "design.txt", _header("design", sections) + report)
    kv = [f"material = {sections['material']['name']}"]
    kv.extend(f"{key} = {_fmt(values[key])}" for key, _, _ in _REPORT_FIELDS)
    _write_lines(out / "design.kv", _header("design", sections) + kv)

    print("\n".join(report))
    print(f"wrote {out / 'design.txt'}")
    print(f"wrote {out / 'design.kv'}")


def cmd_gain(config: ToolConfig) -> None:
    """Reflection-gain curves at the working point for each pump ratio."""
    sections = effective_sections(config, "gain")
    design, circuit, _, best = _working_point(sections)
    rates = rate_budget(best.v0_max, design, circuit)
    grid = GridSpec(
        count=sections["gain"]["count"],
        half_span_kappa=sections["gain"]["half_span_kappa"],
    )

    rows = []
    for ratio in sections["gain"]["xi_ratio"]:
        profile = profile_from_rates(rates, ratio * rates.kappa / 2.0, grid)
        gain_db = profile.gain_db
        for i, omega in enumerate(profile.frequencies):
            refl = profile.reflection[i]
            rows.append((ratio, omega / _TWO_PI / 1e9, gain_db[i], refl.real, refl.imag))

    _write_csv(
        _out_dir(config) / "gain.csv",
        "gain",
        sections,
        ("xi_ratio", "freq_ghz", "gain_db", "re_R", "im_R"),
        rows,
    )


def cmd_sweep(config: ToolConfig) -> None:
    """Bias-voltage or plate-separation sweep table."""
    sections = effective_sections(config, "sweep")
    spec = sweep_spec(sections)
    design = varactor_design(sections)
    circuit = circuit_params(sections)
    drive = drive_spec(sections)
    if spec.variable == "bias_voltage":
        result = bias_sweep(spec, design, circuit, drive)
    else:
        result = geometry_sweep(spec, design, circuit, drive)
    _write_csv(_out_dir(config) / "sweep.csv", "sweep", sections, result.columns, result.rows)


_COMMANDS = {
    "material": cmd_material,
    "design": cmd_design,
    "gain": cmd_gain,
    "sweep": cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpamp",
        description="Quantum-paraelectric varactor amplifier design tool.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text in (
        ("material", "tabulate permittivity and loss versus bias field"),
        ("design", "find the working point and report the design numbers"),
        ("gain", "tabulate reflection-gain curves at chosen pump ratios"),
        ("sweep", "tabulate a bias-voltage or plate-separation sweep"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", metavar="PATH", help="configuration file (INI format)")
        sub.add_argument("--out", metavar="DIR", help="output directory (overrides [output] path)")
        sub.add_argument(
            "--material",
            choices=("sto", "kto"),
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
    try:
        config = load_config(args.config, args.override, args.material, args.out)
        _COMMANDS[args.command](config)
    except NumericalError as exc:
        print(f"qpamp: error: {exc}", file=sys.stderr)
        return 3
    except (ConfigurationError, ValueError) as exc:
        print(f"qpamp: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qpamp: i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
