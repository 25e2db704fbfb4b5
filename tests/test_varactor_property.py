"""Round trip of the charge inversion over material, film thickness and bias."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qpamp import KTO, STO, VaractorDesign, charge, voltage_from_charge  # noqa: E402

MATERIALS = {"sto": STO, "kto": KTO, "ideal": STO._replace(inhomogeneity=0.0)}


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    st.sampled_from(sorted(MATERIALS)),
    st.floats(min_value=100e-9, max_value=400e-9),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_round_trip(name, thickness, v):
    design = VaractorDesign(16e-12, thickness, MATERIALS[name])
    assert abs(voltage_from_charge(charge(v, design), design) - v) <= 1e-10
