import math

import numpy as np
import pytest
from scipy.constants import epsilon_0

import qpamp.varactor
from oracles import (
    fd6_first,
    fd6_second,
    finite_difference_capacitance_derivatives,
    invert_bisect,
    quad_adaptive,
    riemann_midpoint,
    riemann_richardson,
)
from qpamp import (
    KTO,
    STO,
    ConfigurationError,
    NumericalError,
    VaractorDesign,
    capacitance,
    capacitance_derivatives,
    charge,
    energy,
    energy_and_derivatives,
    eta,
    voltage_from_charge,
)

STO_DESIGN = VaractorDesign(plate_area=16e-12, thickness=200e-9, material=STO)
KTO_DESIGN = VaractorDesign(plate_area=16e-12, thickness=200e-9, material=KTO)
# An ideal crystal (lam_s = 0), where the Newton start is already the root.
IDEAL_DESIGN = VaractorDesign(16e-12, 200e-9, STO._replace(inhomogeneity=0.0))
DESIGNS = {"sto": STO_DESIGN, "kto": KTO_DESIGN, "ideal": IDEAL_DESIGN}
BIASES = [s * v for v in (1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0) for s in (1.0, -1.0)]
# The disorder floors the quadrature grid spans: from nearly ideal films, whose
# knee lies far out, to floors far above eta**(3/2), whose knee is near 0.
INHOMOGENEITIES = [
    0.0, 1e-9, 1e-6, 1e-4, 1e-3, 5e-3, STO.inhomogeneity, KTO.inhomogeneity, 0.2, 0.5,
]
# |v| from 1 uV to v_max = 1 V, half a decade apart, with both signs.
GRID_BIASES = [s * 10.0 ** (k / 2.0 - 6.0) for k in range(13) for s in (1.0, -1.0)]


def _linear_moments(monkeypatch, slope):
    """Make the integrator a charge q = slope * v; returns the (v, start) of each call."""
    calls = []

    def moments(v, design, start=0.0):
        calls.append((v, start))
        return slope * (abs(v) - abs(start)), 0.0

    monkeypatch.setattr(qpamp.varactor, "_moments", moments)
    return calls


class TestCapacitance:
    def test_endpoints(self):
        # Quoted design values for a (4 um)^2 plate on a 200 nm film.
        assert capacitance(0.0, STO_DESIGN) == pytest.approx(17.2e-12, rel=0.02, abs=0.0)
        assert capacitance(0.25, STO_DESIGN) == pytest.approx(1.28e-12, rel=0.02, abs=0.0)
        assert capacitance(0.0, KTO_DESIGN) == pytest.approx(3.18e-12, rel=0.02, abs=0.0)
        assert capacitance(0.25, KTO_DESIGN) == pytest.approx(0.86e-12, rel=0.02, abs=0.0)

    def test_endpoints_against_bisection_oracle(self):
        # eps0 * eps00_rel * G_oracle * A / d with G from the cubic-bisection
        # oracle (values frozen; see oracles.cubic_root_bisect).
        scale = epsilon_0 * 16e-12 / 200e-9
        assert capacitance(0.0, STO_DESIGN) == pytest.approx(
            scale * 2080.0 * 11.552044262296844, rel=1e-12, abs=0.0
        )
        assert capacitance(0.25, STO_DESIGN) == pytest.approx(
            scale * 2080.0 * 0.8707599390832804, rel=1e-12, abs=0.0
        )
        assert capacitance(0.0, KTO_DESIGN) == pytest.approx(
            scale * 1390.0 * 3.230365065859695, rel=1e-12, abs=0.0
        )
        assert capacitance(0.25, KTO_DESIGN) == pytest.approx(
            scale * 1390.0 * 0.8765326065861689, rel=1e-12, abs=0.0
        )

    def test_working_point(self):
        assert capacitance(9.3e-3, STO_DESIGN) == pytest.approx(11.8e-12, rel=0.01, abs=0.0)

    def test_geometry_scaling(self):
        double_area = VaractorDesign(32e-12, 200e-9, STO)
        assert capacitance(0.0, double_area) == pytest.approx(
            2.0 * capacitance(0.0, STO_DESIGN), rel=1e-15, abs=0.0
        )
        double_gap = VaractorDesign(16e-12, 400e-9, STO)
        assert capacitance(0.0, double_gap) == pytest.approx(
            0.5 * capacitance(0.0, STO_DESIGN), rel=1e-15, abs=0.0
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
            capacitance(0.0, STO_DESIGN) * v, rel=1e-3, abs=0.0
        )

    def test_against_riemann_oracle(self):
        # Frozen 20000-panel midpoint sums of eps0 eps_r(v/d) A/d over [0, 0.25].
        assert charge(0.25, STO_DESIGN) == pytest.approx(8.05005446973035e-13, rel=1e-9, abs=0.0)
        assert charge(0.25, KTO_DESIGN) == pytest.approx(4.19503561759502e-13, rel=1e-9, abs=0.0)
        # And a live midpoint sum at the working point.
        live = riemann_midpoint(lambda u: capacitance(u, STO_DESIGN), 0.0, 9.3e-3, 4000)
        assert charge(9.3e-3, STO_DESIGN) == pytest.approx(live, rel=1e-9, abs=0.0)

    def test_odd(self):
        for v in (1e-3, 0.1, 0.25):
            assert charge(-v, STO_DESIGN) == pytest.approx(
                -charge(v, STO_DESIGN), rel=1e-13, abs=0.0
            )

    def test_derivative_is_capacitance(self):
        rng = np.random.default_rng(20260814)
        for design in (STO_DESIGN, KTO_DESIGN):
            for v in rng.uniform(-0.25, 0.25, 25):
                h = 1e-5 * max(abs(v), 1e-3)
                fd = (charge(v + h, design) - charge(v - h, design)) / (2.0 * h)
                assert fd == pytest.approx(capacitance(v, design), rel=1e-8, abs=0.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            charge(1.5, STO_DESIGN)

    @pytest.mark.parametrize("name", DESIGNS)
    def test_interval_integrals(self, name):
        # The inversion's increments: C and u C over [|a|, |b|], short steps and long ones
        # across the knee, against adaptive quadrature; swapping the ends flips the signs.
        design = DESIGNS[name]
        for a, b in ((1e-3, 1.001e-3), (0.01, 0.1), (0.05, 0.9), (-0.3, -0.31)):
            q, u = qpamp.varactor._moments(b, design, a)
            lo, hi = abs(a), abs(b)
            q_ref = quad_adaptive(lambda x: capacitance(x, design), lo, hi)
            u_ref = quad_adaptive(lambda x: x * capacitance(x, design), lo, hi)
            assert q == pytest.approx(q_ref, rel=1e-12, abs=0.0), (a, b)
            assert u == pytest.approx(u_ref, rel=1e-12, abs=0.0), (a, b)
            assert qpamp.varactor._moments(a, design, b) == (-q, -u)

    @pytest.mark.parametrize("thickness", [100e-9, 400e-9, 5e-6])
    @pytest.mark.parametrize("lam_s", INHOMOGENEITIES)
    @pytest.mark.parametrize("base", [STO, KTO], ids=["sto", "kto"])
    def test_against_adaptive_quadrature(self, base, lam_s, thickness):
        design = VaractorDesign(16e-12, thickness, base._replace(inhomogeneity=lam_s))
        for v in GRID_BIASES:
            q_ref = quad_adaptive(lambda u: capacitance(u, design), 0.0, v)
            u_ref = quad_adaptive(lambda u: u * capacitance(u, design), 0.0, v)
            assert charge(v, design) == pytest.approx(q_ref, rel=1e-12, abs=0.0), v
            assert energy(v, design) == pytest.approx(u_ref, rel=1e-12, abs=0.0), v

    @pytest.mark.parametrize("v", [1e-3, 0.05, -0.25, 1.0])
    def test_ideal_closed_forms_against_riemann_oracle(self, v):
        # What is left of the Richardson oracle's error stays below 1e-12.
        q_ref = riemann_richardson(lambda u: capacitance(u, IDEAL_DESIGN), 0.0, v)
        u_ref = riemann_richardson(lambda u: u * capacitance(u, IDEAL_DESIGN), 0.0, v)
        assert charge(v, IDEAL_DESIGN) == pytest.approx(q_ref, rel=1e-11, abs=0.0)
        assert energy(v, IDEAL_DESIGN) == pytest.approx(u_ref, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("base", [STO, KTO], ids=["sto", "kto"])
    def test_floor_effect_bound(self, base):
        # A floor lowers q and U by at most (4/9) lam_s**2 / eta**3 relative; below
        # 1e-17 eta**3 that is under rounding, and the ideal forms are used.
        ideal = VaractorDesign(16e-12, 200e-9, base._replace(inhomogeneity=0.0))
        eta3 = eta(base) ** 3
        for lam_s in (1e-6, 1e-5, 1e-300, 1e-320):
            design = VaractorDesign(16e-12, 200e-9, base._replace(inhomogeneity=lam_s))
            bound = (4.0 / 9.0) * lam_s**2 / eta3
            for v in (1e-4, 0.01, -1.0):
                for func in (charge, energy):
                    drop = (func(v, ideal) - func(v, design)) / func(v, ideal)
                    # 1e-14: the quadrature rule's rounding.
                    assert -1e-14 <= drop <= bound + 1e-14, (lam_s, v, func.__name__)

    def test_gauss_legendre_rule_matches_numpy(self):
        # The eight literal (node, weight) pairs and their mirror images.
        nodes, weights = np.polynomial.legendre.leggauss(16)
        rule = np.array(qpamp.varactor._GAUSS_LEGENDRE_16)
        for half in (slice(8, None), slice(7, None, -1)):
            np.testing.assert_allclose(rule[:, 0], abs(nodes[half]), rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(rule[:, 1], weights[half], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("func", [charge, energy, energy_and_derivatives])
    def test_nan_bias_refused(self, func):
        # NaN fails every comparison, so only a negated range test refuses it.
        with pytest.raises(ValueError, match="trusted range"):
            func(math.nan, STO_DESIGN)


class TestInversion:
    def test_zero(self):
        assert voltage_from_charge(0.0, STO_DESIGN) == 0.0

    def test_round_trips(self):
        for design in (STO_DESIGN, KTO_DESIGN):
            for v in (1e-3, 1e-2, 0.1, 0.25):
                assert voltage_from_charge(charge(v, design), design) == pytest.approx(
                    v, rel=1e-10, abs=0.0
                )
                assert voltage_from_charge(charge(-v, design), design) == pytest.approx(
                    -v, rel=1e-10, abs=0.0
                )

    def test_outside_bracket(self):
        q_max = charge(STO_DESIGN.v_max, STO_DESIGN)
        with pytest.raises(ValueError):
            voltage_from_charge(1.5 * q_max, STO_DESIGN)

    @pytest.mark.parametrize("v", BIASES)
    @pytest.mark.parametrize("name", DESIGNS)
    def test_against_bisection(self, name, v):
        design = DESIGNS[name]
        q = charge(v, design)
        expected = invert_bisect(lambda u: charge(u, design), q, design.v_max)
        assert voltage_from_charge(q, design) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", DESIGNS)
    def test_window_edges_invert(self, name):
        # Rounding can put an iterate just past v_max; it is clamped, not refused.
        design = DESIGNS[name]
        for sign in (1.0, -1.0):
            q = charge(sign * design.v_max, design)
            assert abs(voltage_from_charge(q, design) - sign * design.v_max) <= 1e-10

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_non_finite_charge_refused(self, q):
        with pytest.raises(ValueError):
            voltage_from_charge(q, STO_DESIGN)

    @pytest.mark.parametrize("name", DESIGNS)
    def test_charge_calls(self, name, monkeypatch):
        # One full integral per inversion, at the Newton start inside the window; each
        # later step integrates only its own increment.  q(v_max) is integrated only
        # when an iterate leaves the window, which rounding can do at the window edges.
        design = DESIGNS[name]
        targets = {v: charge(v, design) for v in BIASES}
        seen = []

        def counted(v, d):
            seen.append(v)
            return charge(v, d)

        monkeypatch.setattr(qpamp.varactor, "charge", counted)
        for v, q in targets.items():
            seen.clear()
            voltage_from_charge(q, design)
            assert abs(seen[0]) < design.v_max and seen[0] * v > 0.0, seen
            if abs(v) < design.v_max:
                assert len(seen) == 1, seen
            assert seen[1:] in ([], [design.v_max]), seen

    @pytest.mark.parametrize(
        "name, v, calls",
        [("sto", 0.01, 118), ("sto", 0.1, 118), ("sto", 0.5, 117), ("kto", 0.1, 84)],
    )
    def test_capacitance_calls(self, name, v, calls, monkeypatch):
        # The exact node and step count of one inversion: one full integral of 32-64
        # nodes, a 16-node panel per increment and one C(v) per Newton step.  It pins
        # the panel width, the knee cut and the Newton start, which move no result
        # beyond rounding but change this count.
        design = DESIGNS[name]
        q = charge(v, design)
        seen = []

        def counted(u, d):
            seen.append(u)
            return capacitance(u, d)

        monkeypatch.setattr(qpamp.varactor, "capacitance", counted)
        assert voltage_from_charge(q, design) == pytest.approx(v, rel=1e-14, abs=0.0)
        assert len(seen) == calls

    def test_clamped_start_carries_q_at_the_window_edge(self, monkeypatch):
        # A charge 10x steeper than C(0), with C to match, puts the Newton start past a
        # 2 uV window edge.  The clamped iterate carries q(v_max), the one full
        # integral, and the next step lands on the root.
        slope = 10.0 * capacitance(0.0, STO_DESIGN)
        design = VaractorDesign(16e-12, 200e-9, STO, v_max=2e-6)
        full = []

        def counted(v, d):
            full.append(v)
            return charge(v, d)

        monkeypatch.setattr(qpamp.varactor, "charge", counted)
        monkeypatch.setattr(qpamp.varactor, "capacitance", lambda v, d: slope)
        _linear_moments(monkeypatch, slope)
        assert voltage_from_charge(slope * 1e-6, design) == pytest.approx(1e-6, rel=1e-12)
        assert full == [2e-6]

    def test_unsettled_steps_raise(self, monkeypatch):
        # Against a charge 10x shallower than C, each step closes a tenth of the gap.
        # The start takes the one full integral and the 49 later steps an increment each.
        slope = capacitance(0.0, STO_DESIGN) / 10.0
        calls = _linear_moments(monkeypatch, slope)
        with pytest.raises(NumericalError, match="did not converge"):
            voltage_from_charge(slope * 1e-3, STO_DESIGN)
        starts = [start for _, start in calls]
        assert starts[0] == 0.0 and len(starts) == 50
        assert all(0.0 < a < b for a, b in zip(starts[1:], starts[2:])), starts

    def test_step_across_zero_takes_a_full_integral(self, monkeypatch):
        # Against a charge 10x steeper than C the first step overshoots past zero.  The
        # new iterate's charge is then integrated from 0, not carried across zero.
        slope = 10.0 * capacitance(0.0, STO_DESIGN)
        calls = _linear_moments(monkeypatch, slope)
        voltage_from_charge(slope * 1e-6, STO_DESIGN)
        assert [start for _, start in calls[:2]] == [0.0, 0.0], calls
        assert calls[0][0] > 0.0 > calls[1][0], calls


class TestEnergy:
    def test_zero_and_even(self):
        assert energy(0.0, STO_DESIGN) == 0.0
        assert energy(-0.1, STO_DESIGN) == pytest.approx(
            energy(0.1, STO_DESIGN), rel=1e-12, abs=0.0
        )

    def test_against_riemann_oracle(self):
        # A plain 8000-panel midpoint sum is 5.8e-9 off here; the Richardson
        # step brings it to about 4e-15.
        live = riemann_richardson(lambda u: u * capacitance(u, STO_DESIGN), 0.0, 0.1, 8000)
        assert energy(0.1, STO_DESIGN) == pytest.approx(live, rel=1e-9, abs=0.0)

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
        for design in DESIGNS.values():
            for v in GRID_BIASES:
                point = energy_and_derivatives(v, design)
                assert point.charge == charge(v, design), v
                assert point.energy == energy(v, design), v

    @pytest.mark.parametrize("v", [1e-3, 0.1, 0.25, 1.0])
    @pytest.mark.parametrize("design", [STO_DESIGN, KTO_DESIGN], ids=["sto", "kto"])
    def test_one_pass_over_the_nodes(self, monkeypatch, design, v):
        # q and U come from the same nodes: the expansion calls the module-global
        # capacitance as often as charge alone does, not once per integral.
        calls = []

        def counted(u, d):
            calls.append(u)
            return capacitance(u, d)

        monkeypatch.setattr(qpamp.varactor, "capacitance", counted)
        charge(v, design)
        alone = len(calls)
        calls.clear()
        energy_and_derivatives(v, design)
        assert alone > 0
        assert len(calls) == alone


class TestDerivativeCrossChecks:
    def test_sixth_order_stencils(self):
        # Independent high-order stencils; h chosen to balance truncation
        # against roundoff for this curvature scale.
        for design in (STO_DESIGN, KTO_DESIGN):
            for v0 in (5e-3, 9.3e-3, 0.05, 0.15):
                _, c1, c2 = capacitance_derivatives(v0, design)
                f = lambda v: capacitance(v, design)
                assert fd6_first(f, v0, 3e-4) == pytest.approx(c1, rel=1e-6, abs=0.0)
                assert fd6_second(f, v0, 3e-4) == pytest.approx(c2, rel=1e-6, abs=0.0)

    def test_richardson_helper(self):
        # The Richardson helper runs with a much smaller step, so its second
        # derivative is roundoff-limited; the first is tight.
        for v0 in (9.3e-3, 0.1):
            c, c1, c2 = capacitance_derivatives(v0, STO_DESIGN)
            fd1, fd2 = finite_difference_capacitance_derivatives(
                lambda v: capacitance(v, STO_DESIGN), v0
            )
            assert fd1 == pytest.approx(c1, rel=1e-8, abs=0.0)
            assert fd2 == pytest.approx(c2, rel=1e-4, abs=0.0)

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
