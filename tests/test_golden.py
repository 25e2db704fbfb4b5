"""The CLI's outputs and streams against the committed golden files in tests/golden/.

`golden/regenerate.py` writes those files and documents which rows they keep.
Headers (apart from the ``path =`` echo), column lines and every text cell
must match byte for byte; NaN cells must sit in the same places; every other
cell must match to a relative tolerance per column, given below in units of
the double-precision epsilon.  A command's streams (exit code, stdout and
stderr) are compared line by line like ``design.txt``, whose report `design`
also prints.  The tolerances cover numpy's SIMD code paths:
disabling the AVX-512 and AVX2 kernels (``NPY_DISABLE_CPU_FEATURES``) moved
``tan_delta_1`` by up to 9 ulps, the Kerr columns by up to 26 and
``peak_gain_db`` near threshold by up to 557, and nothing else by more than 5.
The tables of ``gain`` and the bias ``sweep`` are built on Python floats, and
the golden files on numpy's arrays; the bias columns fit these tolerances too,
and the gain columns have an absolute budget of their own, `GAIN_BUDGET`.
"""

import contextlib
import io
import math

import pytest

from golden.regenerate import COMMANDS, CRYSTALS, GOLDEN, RUNS, execute, produce, split
from oracles import reflection_mp
from qpamp.amplifier import profile_from_rates, rate_budget
from qpamp.cli import _build_parser, main
from qpamp.config import command_run, load_config
from qpamp.sweep import bias_sweep, maximize_3wm

EPS = 2.0**-52
DEFAULT_ULPS = 16
ULPS = {
    "keff_hz": 256,
    "keff_zero_hz": 256,
    "xi_over_keff": 256,
    "peak_gain_db": 8192,
}
# design.txt prints six significant digits, so a few ulps can move its last one.
TXT_REL = 1e-5
# The gain columns' budget, in units of EPS * |R| for re_R and im_R (|R| from the golden
# row) and of EPS * 20/ln 10 dB for gain_db: relative ulps do not fit cells that pass through
# zero (im_R at the centre, gain_db at 0 dB).  The oracle test at the end holds both paths
# within half of it of a 40-digit R at the golden working points, so a cell of one path and
# the golden value of the other differ by at most all of it.  The worst there is 21, re_R at
# the centre at a pump ratio of 0.99, where 1/4 - (|xi|/kappa)**2 loses 1/(1 - 0.99**2) = 50
# times the rounding of the square.
GAIN_BUDGET = 128
GAIN_COLUMNS = ("gain_db", "re_R", "im_R")

def _cells(run, columns, line):
    """(column, text) cells of one body line."""
    if run.endswith(".csv"):
        return list(zip(columns, line.split(","), strict=True))
    if run.endswith(".kv"):
        key, _, value = line.partition(" = ")
        return [(key, value)]
    label, (value, _, unit) = line[:50], line[50:].partition(" ")
    return [(label, value), (label + " unit", unit)]


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _allowed(run, column, expected, golden_row):
    """How far a cell may lie from its golden value; ``golden_row`` holds the golden numbers."""
    if run == "design.txt":
        return TXT_REL * abs(expected)
    if column in GAIN_COLUMNS:
        # dB moves by 20/ln 10 times the relative change of |R|.
        size = math.hypot(golden_row["re_R"], golden_row["im_R"])
        return GAIN_BUDGET * EPS * (20.0 / math.log(10.0) if column == "gain_db" else size)
    return ULPS.get(column, DEFAULT_ULPS) * EPS * abs(expected)


def _check_lines(run, columns, body, golden_body):
    assert len(body) == len(golden_body)
    for line, golden_line in zip(body, golden_body):
        cells, golden_cells = _cells(run, columns, line), _cells(run, columns, golden_line)
        golden_row = {column: _number(cell) for column, cell in golden_cells}
        for (column, cell), (_, golden_cell) in zip(cells, golden_cells, strict=True):
            value, expected = _number(cell), _number(golden_cell)
            where = (column, golden_line)
            if expected is None or value is None:
                assert cell == golden_cell, where
            elif math.isnan(expected):
                assert math.isnan(value), where
            else:
                allowed = _allowed(run, column, expected, golden_row)
                assert value == expected or abs(value - expected) <= allowed, where


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("crystal", CRYSTALS)
def test_matches_golden(tmp_path, crystal, run):
    golden_header, golden_body = split((GOLDEN / crystal / run).read_text(encoding="utf-8"))
    header, body = split(produce(crystal, run, tmp_path))
    assert header == golden_header
    _check_lines(run, golden_body[0].split(","), body, golden_body)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("crystal", CRYSTALS)
def test_streams_match_golden(tmp_path, crystal, command):
    golden = (GOLDEN / crystal / f"{command}.streams").read_text(encoding="utf-8")
    streams = execute(crystal, command, tmp_path)[1]
    _check_lines("design.txt", None, streams.splitlines(), golden.splitlines())


def _run(argv):
    """The `config.Run` of one command line."""
    args = _build_parser().parse_args(argv)
    return command_run(load_config(args.config, args.override, args.material), args.command)


def _rates(run):
    """The rate budget at the working point that ``gain`` finds."""
    best = maximize_3wm(run.design, run.circuit, run.drive, (run.sweep.start, run.sweep.stop))
    return rate_budget(best.v0_max, run.design, run.circuit)


def _profiles(run):
    """(ratio, xi_mag, rates, profile) per pump ratio of a ``gain`` run, from numpy's arrays."""
    rates = _rates(run)
    for ratio in run.sections["gain"]["xi_ratio"]:
        xi_mag = ratio * rates.kappa / 2.0
        yield ratio, xi_mag, rates, profile_from_rates(rates, xi_mag, run.grid)


def _array_rows(run, command):
    """The rows of a ``gain`` or bias ``sweep`` table from `profile_from_rates` or `bias_sweep`."""
    if command == "sweep":
        return bias_sweep(run.sweep, run.design, run.circuit, run.drive).rows
    rows = []
    for ratio, _, _, profile in _profiles(run):
        frequencies = (profile.frequencies / (2.0 * math.pi) / 1e9).tolist()
        reflection = profile.reflection.tolist()
        rows.extend(
            (ratio, f, g, r.real, r.imag)
            for f, g, r in zip(frequencies, profile.gain_db.tolist(), reflection)
        )
    return rows


FLOAT_TABLES = ("gain", "gain_pump_ratio", "sweep", "sweep_wide_bias", "sweep_one_point")


@pytest.mark.parametrize("command", FLOAT_TABLES)
@pytest.mark.parametrize("crystal", CRYSTALS)
def test_float_rows_match_the_array_path(tmp_path, crystal, command):
    # Every row of the CLI's table, against the array path on the same configuration.
    subcommand, *options = COMMANDS[command]
    rows = _array_rows(_run([subcommand, *CRYSTALS[crystal], *options]), subcommand)
    out, _ = execute(crystal, command, tmp_path)
    header, *body = split((out / f"{subcommand}.csv").read_text(encoding="utf-8"))[1]
    expected = [",".join(format(value, ".17g") for value in row) for row in rows]
    _check_lines(f"{subcommand}.csv", header.split(","), body, expected)


@pytest.mark.parametrize("crystal", CRYSTALS)
def test_gain_rows_within_half_the_budget_of_the_oracle(tmp_path, crystal):
    # Both paths at every frequency of the golden pump ratios, against `reflection_mp`.
    argv = ["gain", *CRYSTALS[crystal], "--override", "gain.xi_ratio=0.5, 0.7, 0.9, 0.99"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(tmp_path)]) == 0
    body = split((tmp_path / "gain.csv").read_text(encoding="utf-8"))[1][1:]
    float_rows = iter([float(cell) for cell in line.split(",")[2:]] for line in body)
    worst = 0.0
    for _, xi_mag, rates, profile in _profiles(_run(argv)):
        array_rows = zip(
            profile.gain_db.tolist(), profile.reflection.real.tolist(), profile.reflection.imag.tolist()
        )
        for omega, array_row in zip(profile.frequencies.tolist(), array_rows):
            exact = reflection_mp(omega, xi_mag, rates)
            size = abs(exact)
            for gain_db, re_r, im_r in (next(float_rows), array_row):
                worst = max(
                    worst,
                    abs(gain_db - 20.0 * math.log10(size)) / (20.0 / math.log(10.0) * EPS),
                    abs(re_r - exact.real) / (size * EPS),
                    abs(im_r - exact.imag) / (size * EPS),
                )
    assert next(float_rows, None) is None
    assert worst <= GAIN_BUDGET / 2, worst
