import math

import numpy as np
import pytest
from scipy.constants import epsilon_0

from oracles import (
    fd6_first,
    fd6_second,
    finite_difference_capacitance_derivatives,
    riemann_midpoint,
)
from qpamp import (
    KTO,
    STO,
    ConfigurationError,
    VaractorDesign,
    capacitance,
    capacitance_derivatives,
    charge,
    energy,
    energy_and_derivatives,
    voltage_from_charge,
)

STO_DESIGN = VaractorDesign(plate_area=16e-12, thickness=200e-9, material=STO)
KTO_DESIGN = VaractorDesign(plate_area=16e-12, thickness=200e-9, material=KTO)


class TestCapacitance:
    def test_endpoints(self):
        # Quoted design values for a (4 um)^2 plate on a 200 nm film.
        assert capacitance(0.0, STO_DESIGN) == pytest.approx(17.2e-12, rel=0.02)
        assert capacitance(0.25, STO_DESIGN) == pytest.approx(1.28e-12, rel=0.02)
        assert capacitance(0.0, KTO_DESIGN) == pytest.approx(3.18e-12, rel=0.02)
        assert capacitance(0.25, KTO_DESIGN) == pytest.approx(0.86e-12, rel=0.02)

    def test_endpoints_against_bisection_oracle(self):
        # eps0 * eps00_rel * G_oracle * A / d with G from the cubic-bisection
        # oracle (values frozen; see oracles.cubic_root_bisect).
        scale = epsilon_0 * 16e-12 / 200e-9
        assert capacitance(0.0, STO_DESIGN) == pytest.approx(
            scale * 2080.0 * 11.552044262296844, rel=1e-12
        )
        assert capacitance(0.25, STO_DESIGN) == pytest.approx(
            scale * 2080.0 * 0.8707599390832804, rel=1e-12
        )
        assert capacitance(0.0, KTO_DESIGN) == pytest.approx(
            scale * 1390.0 * 3.230365065859695, rel=1e-12
        )
        assert capacitance(0.25, KTO_DESIGN) == pytest.approx(
            scale * 1390.0 * 0.8765326065861689, rel=1e-12
        )

    def test_working_point(self):
        assert capacitance(9.3e-3, STO_DESIGN) == pytest.approx(11.8e-12, rel=0.01)

    def test_geometry_scaling(self):
        double_area = VaractorDesign(32e-12, 200e-9, STO)
        assert capacitance(0.0, double_area) == pytest.approx(
            2.0 * capacitance(0.0, STO_DESIGN), rel=1e-15
        )
        double_gap = VaractorDesign(16e-12, 400e-9, STO)
        assert capacitance(0.0, double_gap) == pytest.approx(
            0.5 * capacitance(0.0, STO_DESIGN), rel=1e-15
        )

    def test_even_in_voltage(self):
        for v in (1e-3, 0.1, 0.25):
            assert capacitance(-v, STO_DESIGN) == capacitance(v, STO_DESIGN)


class TestCharge:
    def test_zero(self):
        assert charge(0.0, STO_DESIGN) == 0.0

    def test_linear_limit(self):
        v = 1e-6
        assert charge(v, STO_DESIGN) == pytest.approx(
            capacitance(0.0, STO_DESIGN) * v, rel=1e-3
        )

    def test_against_riemann_oracle(self):
        # Frozen 20000-panel midpoint sums of eps0 eps_r(v/d) A/d over [0, 0.25].
        assert charge(0.25, STO_DESIGN) == pytest.approx(8.05005446973035e-13, rel=1e-9)
        assert charge(0.25, KTO_DESIGN) == pytest.approx(4.19503561759502e-13, rel=1e-9)
        # And a live midpoint sum at the working point.
        live = riemann_midpoint(lambda u: capacitance(u, STO_DESIGN), 0.0, 9.3e-3, 4000)
        assert charge(9.3e-3, STO_DESIGN) == pytest.approx(live, rel=1e-9)

    def test_odd(self):
        for v in (1e-3, 0.1, 0.25):
            assert charge(-v, STO_DESIGN) == pytest.approx(-charge(v, STO_DESIGN), rel=1e-13)

    def test_derivative_is_capacitance(self):
        rng = np.random.default_rng(20260814)
        for design in (STO_DESIGN, KTO_DESIGN):
            for v in rng.uniform(-0.25, 0.25, 25):
                h = 1e-5 * max(abs(v), 1e-3)
                fd = (charge(v + h, design) - charge(v - h, design)) / (2.0 * h)
                assert fd == pytest.approx(capacitance(v, design), rel=1e-8)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            charge(1.5, STO_DESIGN)


class TestInversion:
    def test_zero(self):
        assert voltage_from_charge(0.0, STO_DESIGN) == 0.0

    def test_round_trips(self):
        for design in (STO_DESIGN, KTO_DESIGN):
            for v in (1e-3, 1e-2, 0.1, 0.25):
                assert voltage_from_charge(charge(v, design), design) == pytest.approx(
                    v, rel=1e-10
                )
                assert voltage_from_charge(charge(-v, design), design) == pytest.approx(
                    -v, rel=1e-10
                )

    def test_outside_bracket(self):
        q_max = charge(STO_DESIGN.v_max, STO_DESIGN)
        with pytest.raises(ValueError):
            voltage_from_charge(1.5 * q_max, STO_DESIGN)


class TestEnergy:
    def test_zero_and_even(self):
        assert energy(0.0, STO_DESIGN) == 0.0
        assert energy(-0.1, STO_DESIGN) == pytest.approx(energy(0.1, STO_DESIGN), rel=1e-12)

    def test_against_riemann_oracle(self):
        live = riemann_midpoint(
            lambda u: u * capacitance(u, STO_DESIGN), 0.0, 0.1, 8000
        )
        assert energy(0.1, STO_DESIGN) == pytest.approx(live, rel=1e-9)

    def test_derivative_is_voltage(self):
        # dU/dq = v, with the derivative taken numerically through the
        # charge-domain parameterisation.
        for v0 in (9.3e-3, 0.05, 0.2):
            q0 = charge(v0, STO_DESIGN)
            dq = 1e-4 * q0
            u_plus = energy(voltage_from_charge(q0 + dq, STO_DESIGN), STO_DESIGN)
            u_minus = energy(voltage_from_charge(q0 - dq, STO_DESIGN), STO_DESIGN)
            assert (u_plus - u_minus) / (2.0 * dq) == pytest.approx(v0, rel=5e-8)


class TestEnergyExpansion:
    def test_u2_is_inverse_capacitance(self):
        for v0 in (0.0, 9.3e-3, 0.1):
            point = energy_and_derivatives(v0, STO_DESIGN)
            assert point.u2 == pytest.approx(1.0 / point.capacitance, rel=1e-12)
            assert point.u2 > 0.0

    def test_u3_u4_from_charge_domain_differences(self):
        # u3 = d(u2)/dq and u4 = d(u3)/dq, both via voltage_from_charge.
        v0 = 9.3e-3
        point = energy_and_derivatives(v0, STO_DESIGN)
        q0 = point.charge
        dq = 2e-3 * q0

        def u2_of(q):
            return energy_and_derivatives(voltage_from_charge(q, STO_DESIGN), STO_DESIGN).u2

        def u3_of(q):
            return energy_and_derivatives(voltage_from_charge(q, STO_DESIGN), STO_DESIGN).u3

        fd_u3 = (u2_of(q0 + dq) - u2_of(q0 - dq)) / (2.0 * dq)
        fd_u4 = (u3_of(q0 + dq) - u3_of(q0 - dq)) / (2.0 * dq)
        assert fd_u3 == pytest.approx(point.u3, rel=1e-5)
        assert fd_u4 == pytest.approx(point.u4, rel=1e-4)

    def test_zero_bias_symmetry(self):
        point = energy_and_derivatives(0.0, STO_DESIGN)
        assert point.u3 == 0.0
        assert point.u4 > 0.0
        assert point.charge == 0.0
        assert point.energy == 0.0

    def test_fields(self):
        point = energy_and_derivatives(9.3e-3, STO_DESIGN)
        assert point.bias_field == pytest.approx(9.3e-3 / 200e-9, rel=1e-15)
        assert point.charge == pytest.approx(charge(9.3e-3, STO_DESIGN), rel=1e-12)
        assert point.energy == pytest.approx(energy(9.3e-3, STO_DESIGN), rel=1e-12)


class TestDerivativeCrossChecks:
    def test_sixth_order_stencils(self):
        # Independent high-order stencils; h chosen to balance truncation
        # against roundoff for this curvature scale.
        for design in (STO_DESIGN, KTO_DESIGN):
            for v0 in (5e-3, 9.3e-3, 0.05, 0.15):
                _, c1, c2 = capacitance_derivatives(v0, design)
                f = lambda v: capacitance(v, design)
                assert fd6_first(f, v0, 3e-4) == pytest.approx(c1, rel=1e-6)
                assert fd6_second(f, v0, 3e-4) == pytest.approx(c2, rel=1e-6)

    def test_richardson_helper(self):
        # The Richardson helper runs with a much smaller step, so its second
        # derivative is roundoff-limited; the first is tight.
        for v0 in (9.3e-3, 0.1):
            c, c1, c2 = capacitance_derivatives(v0, STO_DESIGN)
            fd1, fd2 = finite_difference_capacitance_derivatives(
                lambda v: capacitance(v, STO_DESIGN), v0
            )
            assert fd1 == pytest.approx(c1, rel=1e-8)
            assert fd2 == pytest.approx(c2, rel=1e-4)

    def test_odd_even_structure(self):
        c_p, c1_p, c2_p = capacitance_derivatives(0.1, STO_DESIGN)
        c_m, c1_m, c2_m = capacitance_derivatives(-0.1, STO_DESIGN)
        assert c_m == c_p
        assert c1_m == -c1_p
        assert c2_m == c2_p
        assert c1_p < 0.0  # capacitance falls with bias


class TestDesign:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            VaractorDesign(plate_area=-1e-12, thickness=200e-9, material=STO)
        with pytest.raises(ConfigurationError):
            VaractorDesign(plate_area=16e-12, thickness=0.0, material=STO)

    @pytest.mark.parametrize("name", ["plate_area", "thickness", "v_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            VaractorDesign(**{**STO_DESIGN.__dict__, name: value})

    def test_bias_field(self):
        assert STO_DESIGN.bias_field(0.2) == pytest.approx(1e6, rel=1e-15)
