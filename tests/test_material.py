import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import central_first, cubic_root_bisect, greens_bisect
from qpamp import (
    KTO,
    STO,
    ConfigurationError,
    MaterialParams,
    builtin_material,
    dielectric_response,
    eta,
    normalized_bias,
    permittivity,
    permittivity_derivatives,
)
from qpamp.material import _solve_cubic

# Bias fields of the two reference working points (9.3 mV and 66 mV across
# a 200 nm film).
E_STO_OPT = 9.3e-3 / 200e-9
E_KTO_OPT = 66e-3 / 200e-9


def lossless(inhomogeneity=0.0, temperature=0.0, **overrides):
    base = dict(
        eps00_rel=2000.0,
        curie_temp=40.0,
        debye_temp=175.0,
        renorm_field=2e6,
        inhomogeneity=inhomogeneity,
        a1=0.0,
        a2=0.0,
        temperature=temperature,
    )
    base.update(overrides)
    return MaterialParams(**base)


def displacement(lam, eta_val):
    """The cubic's root y, as every chain evaluation solves it."""
    return _solve_cubic(lam, eta_val)


def greens(lam, eta_val):
    """The soft-mode Green's function G = 1 / (y**2 + eta) from that root."""
    y = _solve_cubic(lam, eta_val)
    return 1.0 / (y * y + eta_val)


class TestEta:
    def test_builtin_values(self):
        # Oracle: direct evaluation of (theta/T_c) sqrt(1/16 + (T/theta)^2) - 1.
        want_sto = (175.0 / 42.0) * math.sqrt(1.0 / 16.0 + (0.01 / 175.0) ** 2) - 1.0
        want_kto = (170.0 / 32.5) * math.sqrt(1.0 / 16.0 + (0.01 / 170.0) ** 2) - 1.0
        assert eta(STO) == pytest.approx(want_sto, rel=1e-15, abs=0.0)
        assert eta(KTO) == pytest.approx(want_kto, rel=1e-15, abs=0.0)
        # T -> 0 limits: 175/168 - 1 = 1/24 and 170/130 - 1 = 4/13.
        assert eta(STO) == pytest.approx(1.0 / 24.0, rel=1e-6)
        assert eta(KTO) == pytest.approx(4.0 / 13.0, rel=1e-6)

    def test_boundary_case_vanishes(self):
        # debye = 4 * curie at T = 0; MaterialParams refuses it, the formula reads fields only.
        assert eta(SimpleNamespace(curie_temp=43.75, debye_temp=175.0, temperature=0.0)) == 0.0

    def test_temperature_raises_eta(self):
        warm = MaterialParams(**{**STO.__dict__, "temperature": 10.0})
        assert eta(warm) > eta(STO)


class TestNormalizedBias:
    def test_zero_field_hits_floor(self):
        assert normalized_bias(0.0, STO) == STO.inhomogeneity
        assert normalized_bias(0.0, KTO) == KTO.inhomogeneity

    def test_ideal_crystal_at_renorm_field(self):
        mat = lossless()
        assert normalized_bias(mat.renorm_field, mat) == 1.0

    def test_reference_point(self):
        assert normalized_bias(E_STO_OPT, STO) == pytest.approx(
            math.hypot(0.018, E_STO_OPT / 1.93e6), rel=1e-15, abs=0.0
        )
        assert normalized_bias(E_STO_OPT, STO) == pytest.approx(0.0300747, rel=1e-5)

    def test_even_in_field(self):
        assert normalized_bias(-3e5, STO) == normalized_bias(3e5, STO)


class TestGreens:
    def test_zero_bias_closed_form(self):
        for eta_val in (eta(STO), eta(KTO), 1e-3, 5.0):
            assert greens(0.0, eta_val) == pytest.approx(1.0 / eta_val, rel=1e-14, abs=0.0)

    def test_reference_values_against_bisection(self):
        # Frozen from the bisection oracle (200 halvings of the cubic).
        assert greens(0.018, eta(STO)) == pytest.approx(11.552044262296844, rel=1e-12)
        assert greens(0.020, eta(KTO)) == pytest.approx(3.230365065859695, rel=1e-12)

    def test_agrees_with_bisection_over_range(self):
        for eta_val in (eta(STO), eta(KTO), 1e-3, 5.0):
            for lam in np.geomspace(1e-8, 10.0, 40):
                assert greens(lam, eta_val) == pytest.approx(
                    greens_bisect(lam, eta_val), rel=1e-12, abs=0.0
                )

    def test_monotone_decreasing(self):
        lams = np.linspace(0.0, 2.0, 200)
        vals = [greens(lam, eta(STO)) for lam in lams]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestDisplacement:
    def test_zero_bias(self):
        assert displacement(0.0, eta(STO)) == 0.0

    def test_reference_values_against_bisection(self):
        assert displacement(0.018, eta(STO)) == pytest.approx(
            0.2118916501337385, rel=1e-12, abs=0.0
        )
        assert displacement(0.020, eta(KTO)) == pytest.approx(
            0.04324571067211294, rel=1e-12, abs=0.0
        )
        # Value at the KTO working point, quoted to two figures elsewhere.
        lam = normalized_bias(E_KTO_OPT, KTO)
        assert displacement(lam, eta(KTO)) == pytest.approx(0.394, rel=2e-3)

    def test_cubic_residual(self):
        for eta_val in (eta(STO), eta(KTO), 1e-3, 5.0):
            for lam in np.geomspace(1e-8, 10.0, 40):
                y = displacement(lam, eta_val)
                residual = y**3 + 3.0 * eta_val * y - 2.0 * lam
                assert abs(residual) <= 1e-12 * max(y**3, 3.0 * eta_val * y, 2.0 * lam)

    def test_greens_identity(self):
        # G * (y^2 + eta) = 1 must hold to 1e-12 across the whole bias range.
        for eta_val in (eta(STO), eta(KTO), 1e-3, 5.0):
            for lam in np.concatenate(([0.0], np.geomspace(1e-8, 10.0, 60))):
                g = greens(lam, eta_val)
                y = displacement(lam, eta_val)
                assert g * (y * y + eta_val) == pytest.approx(1.0, rel=1e-12)


class TestPermittivity:
    def test_zero_bias_builtins(self):
        assert permittivity(0.0, STO) == pytest.approx(24.0e3, rel=0.02)
        assert permittivity(0.0, KTO) == pytest.approx(4.5e3, rel=0.02)
        # Frozen oracle values: eps00_rel times the bisection Green's function.
        assert permittivity(0.0, STO) == pytest.approx(24028.252065577435, rel=1e-12)
        assert permittivity(0.0, KTO) == pytest.approx(4490.207441544974, rel=1e-12)

    def test_working_point(self):
        assert permittivity(E_STO_OPT, STO) == pytest.approx(1.66e4, rel=0.01)
        assert permittivity(E_STO_OPT, STO) == pytest.approx(
            STO.eps00_rel * greens_bisect(normalized_bias(E_STO_OPT, STO), eta(STO)),
            rel=1e-12,
        )

    def test_ideal_crystal_zero_bias(self):
        mat = lossless()
        assert permittivity(0.0, mat) == pytest.approx(mat.eps00_rel / eta(mat), rel=1e-14)

    def test_even_and_monotone(self):
        fields = np.linspace(0.0, 5e6, 120)
        vals = [permittivity(f, STO) for f in fields]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        for f in (1e4, 3e5, 2e6):
            assert permittivity(-f, STO) == permittivity(f, STO)


class TestDerivatives:
    def test_greens_chain_rule_against_fd(self):
        # dy/dlam = 2G/3 and dG/dlam = -(4/3) G^3 y.
        eta_val = eta(STO)
        for lam in (0.01, 0.05, 0.3, 1.5):
            g = greens(lam, eta_val)
            y = displacement(lam, eta_val)
            fd_y = central_first(lambda x: displacement(x, eta_val), lam, 1e-6)
            fd_g = central_first(lambda x: greens(x, eta_val), lam, 1e-6)
            assert fd_y == pytest.approx(2.0 * g / 3.0, rel=1e-6)
            assert fd_g == pytest.approx(-(4.0 / 3.0) * g**3 * y, rel=1e-6)

    def test_permittivity_derivatives_against_fd(self):
        for mat in (STO, KTO):
            for field in (2e4, E_STO_OPT, 5e5, 2e6):
                _, d1, d2 = permittivity_derivatives(field, mat)
                h = 1e-3 * field
                fd1 = central_first(lambda f: permittivity(f, mat), field, h)
                fd2 = (
                    permittivity(field + h, mat)
                    - 2.0 * permittivity(field, mat)
                    + permittivity(field - h, mat)
                ) / (h * h)
                assert d1 == pytest.approx(fd1, rel=1e-5)
                assert d2 == pytest.approx(fd2, rel=1e-4, abs=0.0)

    def test_zero_bias_odd_part_vanishes(self):
        for mat in (STO, KTO, lossless()):
            eps, d1, d2 = permittivity_derivatives(0.0, mat)
            assert d1 == 0.0
            assert eps == permittivity(0.0, mat)
            assert d2 < 0.0

    def test_underflowing_inhomogeneity_is_an_ideal_crystal(self):
        # lam_s**2 underflows to 0, so lam is 0 at zero bias: s must come from the square.
        tiny, ideal = lossless(inhomogeneity=1e-200), lossless()
        assert permittivity_derivatives(0.0, tiny) == permittivity_derivatives(0.0, ideal)
        fields = np.array([0.0, 1e4, 2e6])
        for got, want in zip(
            permittivity_derivatives(fields, tiny), permittivity_derivatives(fields, ideal)
        ):
            assert np.array_equal(got, want)

    def test_ideal_crystal_zero_bias_curvature(self):
        # lam_s = 0 limit: d2eps/dE2 = -(8/9) eps00_rel / (eta^4 E_N^2).
        mat = lossless()
        _, d1, d2 = permittivity_derivatives(0.0, mat)
        eta_val = eta(mat)
        assert d1 == 0.0
        assert d2 == pytest.approx(
            -(8.0 / 9.0) * mat.eps00_rel / (eta_val**4 * mat.renorm_field**2), rel=1e-12, abs=0.0
        )


class TestLoss:
    def test_working_point_values(self):
        resp = dielectric_response(E_STO_OPT, STO)
        # Oracle: rebuild each channel from the bisection y and G.
        lam = normalized_bias(E_STO_OPT, STO)
        y = cubic_root_bisect(lam, eta(STO))
        g = greens_bisect(lam, eta(STO))
        want1 = STO.a1 * (STO.temperature / STO.curie_temp) ** 2 * g**1.5
        want2 = STO.a2 * y * y * g
        assert resp.tan_delta_1 == pytest.approx(want1, rel=1e-12, abs=0.0)
        assert resp.tan_delta_2 == pytest.approx(want2, rel=1e-12, abs=0.0)
        assert resp.tan_delta_3 == 0.0
        assert resp.loss_tangent == pytest.approx(1.64e-3, rel=0.01)
        assert 1.0 / resp.loss_tangent == pytest.approx(6.1e2, rel=0.03)

    def test_kto_working_point(self):
        resp = dielectric_response(E_KTO_OPT, KTO)
        assert resp.loss_tangent == pytest.approx(1.35e-4, rel=0.01)
        assert 1.0 / resp.loss_tangent == pytest.approx(7.4e3, rel=0.03)

    def test_breakdown_sums(self):
        for field in (0.0, 1e5, 2e6):
            resp = dielectric_response(field, KTO)
            total = resp.tan_delta_1 + resp.tan_delta_2 + resp.tan_delta_3
            assert resp.loss_tangent == total

    def test_ideal_cold_crystal_is_lossless_at_zero_bias(self):
        assert dielectric_response(0.0, lossless(a1=2e-4, a2=1e-3)).loss_tangent == 0.0

    def test_defect_channel(self):
        doped = lossless(a2=1e-3, a3=2e-4, defect_density=0.5, inhomogeneity=0.01)
        resp = dielectric_response(1e5, doped)
        g = resp.eps_rel / doped.eps00_rel
        assert resp.tan_delta_3 == pytest.approx(2e-4 * 0.5 * g, rel=1e-15, abs=0.0)

    def test_defect_density_without_a3(self):
        # Refused where it is set, before any evaluation of the chain.
        with pytest.raises(ConfigurationError, match="a3"):
            lossless(defect_density=0.5)

    def test_loss_increases_with_bias(self):
        fields = np.linspace(0.0, 5e6, 80)
        vals = [dielectric_response(f, STO).loss_tangent for f in fields]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestParams:
    def test_builtin_lookup(self):
        assert builtin_material("sto") is STO
        assert builtin_material("KTO") is KTO
        with pytest.raises(ConfigurationError):
            builtin_material("batio3")
        with pytest.raises(ConfigurationError) as excinfo:
            builtin_material("foo")
        assert str(excinfo.value) == "material 'name' must be one of sto, kto, got 'foo'"

    def test_table_values(self):
        assert STO.eps00_rel == 2080.0
        assert STO.renorm_field == pytest.approx(1.93e6)
        assert KTO.curie_temp == 32.5
        assert KTO.a2 == 4.0e-4
        assert STO.a3 is None and KTO.a3 is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MaterialParams(**{**STO.__dict__, "eps00_rel": -1.0})
        with pytest.raises(ConfigurationError):
            MaterialParams(**{**STO.__dict__, "inhomogeneity": -0.1})
        with pytest.raises(ConfigurationError):
            MaterialParams(**{**STO.__dict__, "temperature": 20.0})

    def test_zero_eta_rejected_at_construction(self):
        # 168 K = 4 * 42 K at T = 0: the quantum critical point, eta = 0 exactly.
        with pytest.raises(ConfigurationError, match="eta = 0,"):
            replace(STO, debye_temp=168.0, temperature=0.0)

    @pytest.mark.parametrize(
        "name",
        [
            "eps00_rel",
            "curie_temp",
            "debye_temp",
            "renorm_field",
            "inhomogeneity",
            "a1",
            "a2",
            "a3",
            "defect_density",
            "temperature",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            MaterialParams(**{**STO.__dict__, name: value})
