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
"""

import math

import pytest

from golden.regenerate import COMMANDS, CRYSTALS, GOLDEN, RUNS, execute, produce, split

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


def _check_lines(run, columns, body, golden_body):
    assert len(body) == len(golden_body)
    for line, golden_line in zip(body, golden_body):
        for (column, cell), (_, golden_cell) in zip(
            _cells(run, columns, line), _cells(run, columns, golden_line), strict=True
        ):
            value, expected = _number(cell), _number(golden_cell)
            where = (column, golden_line)
            if expected is None or value is None:
                assert cell == golden_cell, where
            elif math.isnan(expected):
                assert math.isnan(value), where
            else:
                rel = TXT_REL if run == "design.txt" else ULPS.get(column, DEFAULT_ULPS) * EPS
                assert value == expected or abs(value - expected) <= rel * abs(expected), where


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
