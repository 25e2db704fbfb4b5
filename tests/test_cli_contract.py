"""Fuzzed command-line contract: overrides drawn from the config key table.

Every run either exits 0 and writes only finite values (NaN is allowed in
the documented ``peak_gain_db`` column, inf in the design report's ``q_int``),
or exits 2 (configuration, with a line that names the section) or 3
(numerical failure); stderr carries nothing but ``qpamp:`` lines, and none of
them names a Python exception class.  No command imports numpy, so every run
keeps this contract with numpy unimportable.
"""

import contextlib
import io
import math
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qpamp import NumericalError, RateBudget, operating_point, profile_from_rates  # noqa: E402
from qpamp.cli import main  # noqa: E402
from qpamp.config import (  # noqa: E402
    _KEYS,
    _parse_float,
    _parse_int,
    _parse_ratio_list,
    command_run,
    load_config,
)
from qpamp.sweep import bias_sweep, maximize_3wm  # noqa: E402

# --out always wins over [output] path, but keep the fuzzer off file paths.
KEYS = [(s, k) for s, keys in _KEYS.items() for k in keys if (s, k) != ("output", "path")]
WORDS = ["sto", "kto", "custom", "bias_voltage", "bias_field", "plate_separation",
         "pump_ratio", "linear", "log", "csv", "junk"]
# A complete [sweep] section per variable, so that a drawn sweep key lands in a valid one.
SWEEP_BASE = {
    "bias_voltage": ("0", "250"),
    "bias_field": ("0", "5"),
    "plate_separation": ("100", "100000"),
    "pump_ratio": ("0.1", "0.9"),
}

# Log-uniform over 1e-320 to 1e308, a fifth of them negative and a tenth zero, so that the
# squares and cubes of the chain leave the float range at both ends.
edge_values = st.tuples(st.integers(0, 9), st.floats(-320.0, 308.0)).map(
    lambda t: 0.0 if t[0] == 0 else (-1.0 if t[0] < 3 else 1.0) * 10.0 ** t[1]
)
numbers = edge_values.map(repr)


@st.composite
def override(draw):
    section, key = draw(st.sampled_from(KEYS))
    parse = _KEYS[section][key].parse
    if parse is _parse_int:
        # Table sizes stay small: a count is a row count.
        value = str(draw(st.integers(min_value=-3, max_value=41)))
    elif parse in (_parse_float, _parse_ratio_list):
        value = draw(numbers)
    else:
        value = draw(st.sampled_from(WORDS))
    return section, key, value


@st.composite
def argv(draw):
    command = draw(st.sampled_from(["material", "design", "gain", "sweep"]))
    items = draw(st.lists(override(), min_size=1, max_size=3))
    args = [command]
    if any(section == "sweep" for section, _, _ in items):
        variable = draw(st.sampled_from(sorted(SWEEP_BASE)))
        lo, hi = SWEEP_BASE[variable]
        for key, value in (("variable", variable), ("min", lo), ("max", hi), ("count", "5")):
            args += ["--override", f"sweep.{key}={value}"]
    for section, key, value in items:
        args += ["--override", f"{section}.{key}={value}"]
    return args


def written_values(path):
    """(column or key, value) for every number of a CSV table or of a design.kv report."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    if path.suffix == ".kv":
        for line in lines:
            key, _, value = line.partition(" = ")
            if key != "material":
                yield key, float(value)
        return
    columns = lines[0].split(",")
    for line in lines[1:]:
        yield from zip(columns, map(float, line.split(",")))


def documented(name, value):
    return (name == "peak_gain_db" and math.isnan(value)) or (name == "q_int" and value == math.inf)


# A bare exception class (OverflowError, ZeroDivisionError, ...) names no quantity and no key.
EXCEPTION_CLASS = re.compile(r"\b[A-Z]\w*(Error|Exception)\b")


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(argv())
def test_every_run_keeps_the_exit_contract(args):
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with (
            mock.patch.dict(sys.modules, {"numpy": None}),  # `import numpy` raises
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(err),
        ):
            rc = main(args + ["--out", out])
        lines = err.getvalue().splitlines()
        assert all(line.startswith("qpamp: ") for line in lines), lines
        assert not any(EXCEPTION_CLASS.search(line) for line in lines), lines
        assert rc in (0, 2, 3), (rc, lines)
        files = sorted(Path(out).iterdir())
        if rc != 0:
            assert lines and files == [], (rc, lines, files)
            if rc == 2:
                assert all(line.startswith("qpamp: config error: [") for line in lines), lines
            return
        for path in files:
            if path.suffix not in (".csv", ".kv"):
                continue
            for name, value in written_values(path):
                assert math.isfinite(value) or documented(name, value), (path.name, name, value)


@pytest.mark.parametrize("command", ["design", "gain"])
def test_an_underflowing_capacitance_square_names_the_three_wave_strength(command, tmp_path):
    # A 1e-150 um^2 plate gives C near 4e-163 F, whose square underflows to 0: |xi| is then
    # not finite, which the working-point search reports, not a bare ZeroDivisionError.
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([command, "--override", "geometry.area_um2=1e-150", "--out", str(tmp_path)])
    assert rc == 3 and list(tmp_path.iterdir()) == []
    assert err.getvalue() == (
        "qpamp: error: three-wave strength is not finite on the search grid (0.0, 0.25)\n"
    )


NOT_FINITE_EPS_R = "qpamp: error: material table column 'eps_r' is not finite\n"
GRID = "(0.0, 0.25)\n"


@pytest.mark.parametrize(
    "command, override, rc, stderr",
    [
        # lam_s**2 overflows: lam is inf and y, G and eps_r are NaN.
        ("material", "material.inhomogeneity=1e300", 3, NOT_FINITE_EPS_R),
        # E_N**2 underflows, and (E/E_N)**2 overflows at every field but zero.
        ("material", "material.renorm_field_v_per_um=5.4e-170", 3, NOT_FINITE_EPS_R),
        # eta**3 overflows in the cubic solve: y and eps_r are NaN.
        ("sweep", "material.curie_temp_k=8.1e-198", 3,
         "qpamp: error: bias sweep column 'eps_r' is not finite\n"),
        # d * d underflows in d2C/dv2, and (E/E_N)**2 overflows at every bias but zero.
        ("design", "geometry.thickness_nm=4.29e-209", 3,
         "qpamp: error: three-wave strength is not finite on the search grid " + GRID),
        # E_N**2 overflows: eps00_rel / E_N**2 is 0, so dC/dv and xi are zero on the grid.
        ("gain", "material.renorm_field_v_per_um=1e200", 3,
         "qpamp: error: |xi| underflows to zero for this design on the grid " + GRID),
        # The same crystal's table: it shows no field derivative, so no cell is lost.
        ("material", "material.renorm_field_v_per_um=1e200", 0, ""),
    ],
)
def test_an_overflow_in_the_chain_exits_naming_a_quantity(command, override, rc, stderr, tmp_path):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = main([command, "--override", override, "--out", str(tmp_path)])
    assert (status, err.getvalue()) == (rc, stderr)
    assert [path.name for path in tmp_path.iterdir()] == ([f"{command}.csv"] if rc == 0 else [])


# The float keys that `gain` and the bias `sweep` read, the bias sweep's end included.
FLOAT_KEYS = [f"{s}.{k}" for s, keys in _KEYS.items() if s in ("material", "geometry", "circuit",
              "drive", "gain") for k in keys if keys[k].parse is _parse_float] + ["sweep.max"]


def array_path_outcome(argv):
    """(exit code, error line) of ``gain`` or the bias ``sweep`` run on numpy's arrays.

    The configuration is resolved as `main` resolves it; the table then comes from
    `profile_from_rates` at `maximize_3wm`'s working point or from `bias_sweep`, and the
    gain table's cells are checked row by row, as the CLI checks them.
    """
    command, overrides = argv[0], argv[2::2]
    try:
        run = command_run(load_config(None, overrides), command)
    except ValueError as exc:
        return 2, f"qpamp: config error: {exc}"
    try:
        if command == "sweep":
            bias_sweep(run.sweep, run.design, run.circuit, run.drive)
            return 0, None
        window = (run.sweep.start, run.sweep.stop)
        point = operating_point(
            maximize_3wm(run.design, run.circuit, run.drive, window).v0_max,
            run.drive, run.design, run.circuit,
        )
        rates = RateBudget(point.omega0, point.kappa_int, point.kappa_ext)
        profiles = [
            profile_from_rates(rates, ratio * rates.kappa / 2.0, run.grid)
            for ratio in run.sections["gain"]["xi_ratio"]
        ]
        for profile in profiles:
            for cells in zip(
                profile.frequencies, profile.gain_db, profile.reflection.real, profile.reflection.imag
            ):
                for name, value in zip(("freq_ghz", "gain_db", "re_R", "im_R"), cells):
                    if not math.isfinite(value):
                        raise NumericalError(f"gain table column {name!r} is not finite")
    except ArithmeticError as exc:
        return 3, f"qpamp: error: {type(exc).__name__}: {exc}"
    except (NumericalError, ValueError) as exc:
        return 3, f"qpamp: error: {exc}"
    return 0, None


@st.composite
def float_path_argv(draw):
    command = draw(st.sampled_from(["gain", "sweep"]))
    args = [command, "--override", "gain.count=41"]
    if command == "sweep":
        args += ["--override", "sweep.variable=bias_voltage", "--override", "sweep.min=0",
                 "--override", "sweep.max=250", "--override", "sweep.count=21"]
    for key in draw(st.lists(st.sampled_from(FLOAT_KEYS), min_size=1, max_size=2)):
        args += ["--override", f"{key}={draw(edge_values)!r}"]
    return args


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(float_path_argv())
def test_float_rows_exit_as_the_array_path_does(args):
    # `gain` and the bias `sweep` build rows on Python floats, with no numpy; where a value
    # leaves the float range they must exit, and name the failure, as numpy's arrays do.
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(args + ["--out", out])
    errors = [line for line in err.getvalue().splitlines() if "warning" not in line]
    assert (rc, errors[0] if errors else None) == array_path_outcome(args)
