"""Fuzzed command-line contract: overrides drawn from the config key table.

Every run either exits 0 and writes only finite values (NaN is allowed in
the documented ``peak_gain_db`` column, inf in the design report's ``q_int``),
or exits 2 (configuration, with a line that names the section) or 3
(numerical failure); stderr carries nothing but ``qpamp:`` lines.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qpamp.cli import main  # noqa: E402
from qpamp.config import _KEYS, _parse_float, _parse_int, _parse_ratio_list  # noqa: E402

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

magnitudes = st.floats(min_value=1e-300, max_value=1e308)
numbers = st.one_of(
    st.just(0.0), magnitudes, magnitudes.map(lambda x: -x)
).map(repr)


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


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(argv())
def test_every_run_keeps_the_exit_contract(args):
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(args + ["--out", out])
        lines = err.getvalue().splitlines()
        assert all(line.startswith("qpamp: ") for line in lines), lines
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
