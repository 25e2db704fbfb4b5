"""One evaluation chain for floats and arrays: material -> varactor -> resonator."""

import numpy as np
import pytest

import qpamp.cli
import qpamp.material
from qpamp import (
    KTO,
    STO,
    CircuitParams,
    ConfigurationError,
    DriveSpec,
    MaterialParams,
    SweepSpec,
    VaractorDesign,
    bias_sweep,
    capacitance,
    capacitance_derivatives,
    dielectric_response,
    kerr_strength,
    mode,
    operating_point,
    permittivity,
    permittivity_derivatives,
    rate_budget,
    three_wave_strength,
)
from qpamp.cli import main
from qpamp.config import load_config

THICKNESS = 200e-9
CIRCUIT = CircuitParams(inductance=0.5e-9, q_ext=100.0)
DRIVE = DriveSpec(v_ac=1e-3, theta=0.3)

IDEAL = MaterialParams(
    eps00_rel=2080.0,
    curie_temp=42.0,
    debye_temp=175.0,
    renorm_field=1.93e6,
    inhomogeneity=0.0,
    a1=2.45e-4,
    a2=2.45e-3,
    temperature=0.0,
)
MATERIALS = pytest.mark.parametrize("material", [STO, KTO, IDEAL], ids=["sto", "kto", "ideal"])

# Zero bias (a 0/0 there would raise, as RuntimeWarnings fail the tests),
# both signs, and fields from far below to far above E_N.
FIELDS = np.concatenate(([0.0], np.geomspace(1e2, 2e7, 40), -np.geomspace(1e3, 5e6, 6)))
VOLTAGES = FIELDS * THICKNESS


def design(material):
    return VaractorDesign(plate_area=16e-12, thickness=THICKNESS, material=material)


def assert_elementwise(func, inputs, names, normwise=()):
    """func(array) equals [func(x) for x in inputs], output by output.

    Each output must agree to 1e-14 relative element by element, except the
    ones named in ``normwise``: those are differences of terms of opposite
    sign (d2eps/dE2 changes sign at the inflection of eps(E), K_eff is
    -C'' + 3 C'**2 / C), where a one-ulp difference between numpy's and the
    C library's power functions is not small next to the value itself.  They
    agree to 1e-14 of the largest magnitude in their column.
    """
    got = func(np.asarray(inputs))
    want = [func(float(x)) for x in inputs]
    for k, name in enumerate(names):
        column = np.broadcast_to(got[k], len(inputs))
        scalars = np.array([w[k] for w in want])
        scale = float(np.max(np.abs(scalars))) if name in normwise else 0.0
        for x, a, s in zip(inputs, column, scalars):
            assert a == pytest.approx(s, rel=1e-14, abs=1e-14 * scale), (name, x)


@MATERIALS
def test_permittivity_derivatives_arrays(material):
    assert_elementwise(
        lambda e: permittivity_derivatives(e, material),
        FIELDS,
        ("eps_r", "deps_dE", "d2eps_dE2"),
        normwise=("d2eps_dE2",),
    )


@MATERIALS
def test_dielectric_response_arrays(material):
    names = (
        "eps_rel",
        "loss_tangent",
        "tan_delta_1",
        "tan_delta_2",
        "tan_delta_3",
    )
    assert_elementwise(
        lambda e: [getattr(dielectric_response(e, material), n) for n in names], FIELDS, names
    )


@MATERIALS
def test_capacitance_derivatives_arrays(material):
    assert_elementwise(
        lambda v: capacitance_derivatives(v, design(material)),
        VOLTAGES,
        ("c", "dc_dv", "d2c_dv2"),
        normwise=("d2c_dv2",),
    )


@MATERIALS
def test_mode_and_couplings_arrays(material):
    names = ("omega0", "z0", "q_zpf", "phi_zpf", "v_zpf")
    assert_elementwise(
        lambda v: [getattr(mode(v, design(material), CIRCUIT), n) for n in names], VOLTAGES, names
    )
    assert_elementwise(
        lambda v: [three_wave_strength(v, DRIVE, design(material), CIRCUIT)], VOLTAGES, ("xi",)
    )
    assert_elementwise(
        lambda v: [kerr_strength(v, design(material), CIRCUIT)],
        VOLTAGES,
        ("k_eff",),
        normwise=("k_eff",),
    )


@MATERIALS
def test_scalars_stay_python_floats(material):
    d = design(material)
    for v in (0.0, 9.3e-3):
        e = v / THICKNESS
        values = [
            permittivity(e, material),
            *permittivity_derivatives(e, material),
            dielectric_response(e, material).loss_tangent,
            capacitance(v, d),
            *capacitance_derivatives(v, d),
            mode(v, d, CIRCUIT).omega0,
            kerr_strength(v, d, CIRCUIT),
        ]
        assert all(type(x) is float for x in values)
        assert type(three_wave_strength(v, DRIVE, d, CIRCUIT)) is complex


def count_chain(monkeypatch):
    calls = []
    state = qpamp.material._state

    def counting(*args):
        calls.append(args)
        return state(*args)

    monkeypatch.setattr(qpamp.material, "_state", counting)
    return calls


def test_operating_point_evaluates_chain_once(monkeypatch):
    calls = count_chain(monkeypatch)
    operating_point(9.3e-3, DRIVE, design(STO), CIRCUIT)
    assert len(calls) == 1


def test_rate_budget_evaluates_chain_once(monkeypatch):
    calls = count_chain(monkeypatch)
    rate_budget(9.3e-3, design(STO), CIRCUIT)
    assert len(calls) == 1


def test_bias_sweep_evaluates_chain_per_table(monkeypatch):
    calls = count_chain(monkeypatch)
    result = bias_sweep(SweepSpec("bias_voltage", 0.0, 0.25, 201), design(STO), CIRCUIT, DRIVE)
    assert len(result.rows) == 201
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["design", "gain"])
def test_command_evaluates_chain_once_after_search(monkeypatch, tmp_path, command):
    calls = count_chain(monkeypatch)
    searches = []
    search = qpamp.cli.maximize_3wm

    def counted_search(*args, **kwargs):
        start = len(calls)
        best = search(*args, **kwargs)
        searches.append(len(calls) - start)
        return best

    monkeypatch.setattr(qpamp.cli, "maximize_3wm", counted_search)
    assert main([command, "--out", str(tmp_path)]) == 0
    assert len(searches) == 1 and searches[0] > 0
    assert len(calls) == searches[0] + 1


@MATERIALS
def test_working_point_record_arrays(material):
    names = ("c", "eps_rel", "loss_tangent", "kappa_int", "kappa_ext", "xi", "pump_photons")
    assert_elementwise(
        lambda v: [getattr(operating_point(v, DRIVE, design(material), CIRCUIT), n) for n in names],
        VOLTAGES,
        names,
    )


@MATERIALS
def test_working_point_record_matches_the_layers(material):
    d = design(material)
    for v in (0.0, 9.3e-3, -0.05):
        point = operating_point(v, DRIVE, d, CIRCUIT)
        linear = mode(v, d, CIRCUIT)
        e = v / THICKNESS
        assert point.eps_rel == permittivity(e, material)
        assert point.loss_tangent == dielectric_response(e, material).loss_tangent
        assert point.c == capacitance(v, d)
        assert point.kappa_int == point.omega0 * point.loss_tangent
        assert point.kappa_ext == point.omega0 / CIRCUIT.q_ext
        assert point.xi == three_wave_strength(v, DRIVE, d, CIRCUIT)
        assert point.k_eff == kerr_strength(v, d, CIRCUIT)
        assert (linear.xi, linear.k_eff, linear.pump_photons) == (0.0j, 0.0, 0.0)
        couplings = {name: getattr(point, name) for name in ("xi", "k_eff", "pump_photons")}
        assert linear._replace(**couplings) == point
        rates = rate_budget(v, d, CIRCUIT)
        assert (rates.omega0, rates.kappa_int, rates.kappa_ext) == (
            point.omega0,
            point.kappa_int,
            point.kappa_ext,
        )


def test_negative_eta_rejected():
    # debye_temp < 4 curie_temp at T = 0: a ferroelectric ground state.
    with pytest.raises(ConfigurationError, match="eta"):
        MaterialParams(**{**STO.__dict__, "curie_temp": 100.0})


def test_negative_eta_is_rejected_at_load(tmp_path, capsys):
    with pytest.raises(ConfigurationError, match="eta"):
        load_config(overrides=["material.curie_temp_k=100"])
    argv = ["material", "--out", str(tmp_path), "--override", "material.curie_temp_k=100"]
    assert main(argv) == 2
    assert "eta" in capsys.readouterr().err
    assert not (tmp_path / "material.csv").exists()



def test_zero_eta_is_rejected_at_load(tmp_path, capsys):
    # 168 K = 4 * 42 K (STO's curie_temp) at T = 0 gives eta = 0 exactly.
    overrides = ["material.debye_temp_k=168", "material.temperature_k=0"]
    with pytest.raises(ConfigurationError, match="eta = 0,"):
        load_config(overrides=overrides)
    argv = ["material", "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 2
    assert "eta = 0," in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
