import cmath
import math

import numpy as np
import pytest
from scipy.constants import epsilon_0, hbar

import qpamp.resonator
import qpamp.varactor
from oracles import fd6_first, fd6_second
from qpamp import (
    KTO,
    STO,
    CircuitParams,
    ConfigurationError,
    DriveSpec,
    VaractorDesign,
    capacitance,
    energy_and_derivatives,
    kerr_strength,
    mode,
    operating_point,
    pump_photon_estimate,
    three_wave_strength,
)

TWO_PI = 2.0 * math.pi
STO_DESIGN = VaractorDesign(plate_area=16e-12, thickness=200e-9, material=STO)
KTO_DESIGN = VaractorDesign(plate_area=16e-12, thickness=200e-9, material=KTO)
CIRCUIT = CircuitParams(inductance=0.5e-9, q_ext=100.0)
DRIVE = DriveSpec(v_ac=1e-3)


def test_physical_constants_match_scipy():
    # The package carries these as literals so that it loads without scipy.
    assert qpamp.varactor.epsilon_0 == epsilon_0
    assert qpamp.resonator.hbar == hbar


class TestMode:
    def test_frequencies_at_working_points(self):
        assert mode(9.3e-3, STO_DESIGN, CIRCUIT).omega0 / TWO_PI == pytest.approx(
            2.072e9, rel=5e-3
        )
        assert mode(66e-3, KTO_DESIGN, CIRCUIT).omega0 / TWO_PI == pytest.approx(
            4.882e9, rel=5e-3
        )

    def test_against_capacitance_oracle(self):
        # Rebuild every mode constant from the frozen bisection-oracle
        # Green's function at the STO working point.
        c = epsilon_0 * 2080.0 * 7.999146007550048 * 16e-12 / 200e-9
        m = mode(9.3e-3, STO_DESIGN, CIRCUIT)
        assert m.omega0 == pytest.approx(1.0 / math.sqrt(0.5e-9 * c), rel=1e-12)
        assert m.z0 == pytest.approx(math.sqrt(0.5e-9 / c), rel=1e-12)
        assert m.q_zpf == pytest.approx(math.sqrt(hbar / (2.0 * m.z0)), rel=1e-12)
        assert m.v_zpf == pytest.approx(m.q_zpf / c, rel=1e-12)

    def test_zero_point_invariants(self):
        for v0 in (0.0, 9.3e-3, 0.1):
            m = mode(v0, STO_DESIGN, CIRCUIT)
            assert m.q_zpf * m.phi_zpf == pytest.approx(hbar / 2.0, rel=1e-12)
            c = capacitance(v0, STO_DESIGN)
            assert m.omega0 * m.z0 == pytest.approx(1.0 / c, rel=1e-12)
            assert m.v_zpf == pytest.approx(m.q_zpf / c, rel=1e-12)
            assert m.xi == 0.0j and m.k_eff == 0.0

    def test_frequency_increases_with_bias(self):
        freqs = [mode(v, STO_DESIGN, CIRCUIT).omega0 for v in np.linspace(0.0, 0.25, 30)]
        assert all(a < b for a, b in zip(freqs, freqs[1:]))


class TestThreeWave:
    def test_zero_at_zero_bias(self):
        assert three_wave_strength(0.0, DRIVE, STO_DESIGN, CIRCUIT) == 0.0j

    def test_working_point_magnitudes(self):
        xi_sto = three_wave_strength(9.3e-3, DRIVE, STO_DESIGN, CIRCUIT)
        assert abs(xi_sto) / TWO_PI == pytest.approx(26e6, rel=0.05)
        xi_kto = three_wave_strength(66e-3, DRIVE, KTO_DESIGN, CIRCUIT)
        assert abs(xi_kto) / TWO_PI == pytest.approx(9.5e6, rel=0.05)

    def test_reduced_form(self):
        # |xi| = |C'| v_ac / (4 sqrt(L) C^(3/2)) after eliminating the
        # zero-point scales; C' from an independent sixth-order stencil.
        for v0, design in ((9.3e-3, STO_DESIGN), (66e-3, KTO_DESIGN)):
            c = capacitance(v0, design)
            c1 = fd6_first(lambda v: capacitance(v, design), v0, 3e-4)
            want = abs(c1) * DRIVE.v_ac / (4.0 * math.sqrt(0.5e-9) * c**1.5)
            assert abs(three_wave_strength(v0, DRIVE, design, CIRCUIT)) == pytest.approx(
                want, rel=1e-6
            )

    def test_odd_in_bias(self):
        xi_p = three_wave_strength(9.3e-3, DRIVE, STO_DESIGN, CIRCUIT)
        xi_m = three_wave_strength(-9.3e-3, DRIVE, STO_DESIGN, CIRCUIT)
        assert xi_m == -xi_p

    def test_linear_in_pump(self):
        xi_1 = three_wave_strength(9.3e-3, DriveSpec(1e-3), STO_DESIGN, CIRCUIT)
        xi_2 = three_wave_strength(9.3e-3, DriveSpec(2e-3), STO_DESIGN, CIRCUIT)
        assert xi_2 == 2.0 * xi_1

    def test_pump_phase(self):
        base = three_wave_strength(9.3e-3, DriveSpec(1e-3, 0.0), STO_DESIGN, CIRCUIT)
        for theta in (0.3, math.pi / 2, 2.0):
            rotated = three_wave_strength(
                9.3e-3, DriveSpec(1e-3, theta), STO_DESIGN, CIRCUIT
            )
            assert rotated == pytest.approx(base * cmath.exp(-1j * theta), rel=1e-14)
            assert abs(rotated) == pytest.approx(abs(base), rel=1e-14)


class TestKerr:
    def test_working_point_scale(self):
        assert kerr_strength(9.3e-3, STO_DESIGN, CIRCUIT) / TWO_PI == pytest.approx(
            0.1187, rel=1e-3
        )
        assert kerr_strength(66e-3, KTO_DESIGN, CIRCUIT) / TWO_PI == pytest.approx(
            0.0856, rel=1e-3
        )

    def test_zero_bias_value_and_maximum(self):
        k0 = kerr_strength(0.0, STO_DESIGN, CIRCUIT)
        assert k0 / TWO_PI == pytest.approx(0.2, rel=0.05)
        for v in np.linspace(0.0, 0.25, 40)[1:]:
            assert kerr_strength(v, STO_DESIGN, CIRCUIT) < k0

    def test_even_in_bias(self):
        assert kerr_strength(-9.3e-3, STO_DESIGN, CIRCUIT) == kerr_strength(
            9.3e-3, STO_DESIGN, CIRCUIT
        )

    def test_positive_everywhere_sampled(self):
        for v in np.linspace(0.0, 0.25, 40):
            assert kerr_strength(v, STO_DESIGN, CIRCUIT) > 0.0

    def test_against_sixth_order_stencils(self):
        v0 = 9.3e-3
        f = lambda v: capacitance(v, STO_DESIGN)
        c = f(v0)
        c1 = fd6_first(f, v0, 3e-4)
        c2 = fd6_second(f, v0, 3e-4)
        m = mode(v0, STO_DESIGN, CIRCUIT)
        want = (-c2 + 3.0 * c1 * c1 / c) * m.v_zpf**4 / (2.0 * hbar)
        assert kerr_strength(v0, STO_DESIGN, CIRCUIT) == pytest.approx(want, rel=1e-6)


class TestFormEquivalence:
    def test_charge_and_voltage_forms_agree(self):
        # Rebuild both couplings from the charge-domain energy expansion and
        # compare with the production voltage-form values at random biases.
        rng = np.random.default_rng(20260814)
        biases = np.concatenate(
            [rng.uniform(-0.25, 0.25, 25), rng.uniform(-0.02, 0.02, 25)]
        )
        for v0 in biases:
            for design in (STO_DESIGN,):
                point = energy_and_derivatives(v0, design)
                m = mode(v0, design, CIRCUIT)
                q_ac = DRIVE.v_ac * point.capacitance
                xi_charge = -point.u3 * q_ac * m.q_zpf**2 / (2.0 * hbar)
                k_charge = point.u4 * m.q_zpf**4 / (2.0 * hbar)
                xi = three_wave_strength(v0, DRIVE, design, CIRCUIT)
                k = kerr_strength(v0, design, CIRCUIT)
                if xi_charge == 0.0:
                    assert xi == 0.0j
                else:
                    assert xi.real == pytest.approx(xi_charge, rel=1e-9)
                    assert xi.imag == 0.0
                assert k == pytest.approx(k_charge, rel=1e-9)


class TestOperatingPoint:
    def test_combines_everything(self):
        op = operating_point(9.3e-3, DRIVE, STO_DESIGN, CIRCUIT)
        m = mode(9.3e-3, STO_DESIGN, CIRCUIT)
        assert op.omega0 == m.omega0
        assert op.z0 == m.z0
        assert op.xi == three_wave_strength(9.3e-3, DRIVE, STO_DESIGN, CIRCUIT)
        assert op.k_eff == kerr_strength(9.3e-3, STO_DESIGN, CIRCUIT)

    def test_pump_photon_estimate(self):
        v0 = 9.3e-3
        c = capacitance(v0, STO_DESIGN)
        q_zpf = mode(v0, STO_DESIGN, CIRCUIT).q_zpf
        want = (DRIVE.v_ac * c / (2.0 * q_zpf)) ** 2
        got = pump_photon_estimate(v0, DRIVE, STO_DESIGN, CIRCUIT)
        assert got == pytest.approx(want, rel=1e-12)
        assert 1e6 < got < 1e7  # classical-pump sanity scale


class TestSpecs:
    def test_circuit_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitParams(inductance=-1e-9)
        with pytest.raises(ConfigurationError):
            CircuitParams(inductance=1e-9, q_ext=0.0)

    @pytest.mark.parametrize("name", ["inductance", "q_ext"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_circuit_rejects_non_finite(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            CircuitParams(**{**CIRCUIT.__dict__, name: value})

    def test_drive_validation(self):
        with pytest.raises(ConfigurationError):
            DriveSpec(v_ac=-1e-3)

    @pytest.mark.parametrize("v_ac", [math.nan, math.inf, -math.inf])
    def test_drive_rejects_non_finite_amplitude(self, v_ac):
        with pytest.raises(ConfigurationError):
            DriveSpec(v_ac=v_ac)

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_drive_rejects_non_finite_phase(self, theta):
        with pytest.raises(ConfigurationError):
            DriveSpec(v_ac=1e-3, theta=theta)

    def test_charge_amplitude(self):
        assert DriveSpec(2e-3).charge_amplitude(5e-12) == pytest.approx(1e-14, rel=1e-15)
