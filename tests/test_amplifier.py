import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import first_crossing_bisect
from qpamp import (
    KTO,
    STO,
    CircuitParams,
    ConfigurationError,
    DriveSpec,
    GridSpec,
    RateBudget,
    ThresholdError,
    VaractorDesign,
    compression_estimate,
    gain_profile,
    profile_from_rates,
    rate_budget,
    reflection,
)
from qpamp.amplifier import _half_power_offset

TWO_PI = 2.0 * math.pi
STO_DESIGN = VaractorDesign(plate_area=16e-12, thickness=200e-9, material=STO)
KTO_DESIGN = VaractorDesign(plate_area=16e-12, thickness=200e-9, material=KTO)
CIRCUIT = CircuitParams(inductance=0.5e-9, q_ext=100.0)

# A round-number budget used for the reflection checks.
BUDGET = RateBudget(omega0=TWO_PI * 2e9, kappa_int=TWO_PI * 3.4e6, kappa_ext=TWO_PI * 20.7e6)
LOSSLESS = RateBudget(omega0=TWO_PI * 2e9, kappa_int=0.0, kappa_ext=TWO_PI * 20e6)
# Lossy enough (kappa_int = 0.3 kappa) that a weak pump leaves a notch and no 3-dB width.
SUB_3DB = RateBudget(
    omega0=TWO_PI * 2e9, kappa_int=0.3 * TWO_PI * 20e6, kappa_ext=0.7 * TWO_PI * 20e6
)
# Rounded from the KTO reference working point: 4.9 GHz, 0.7 MHz and 48.9 MHz.
KTO_LIKE = RateBudget(omega0=TWO_PI * 4.9e9, kappa_int=TWO_PI * 0.7e6, kappa_ext=TWO_PI * 48.9e6)


def power_at(rates, xi):
    """|R|**2 as a function of the offset from the pumped centre, in units of kappa."""
    center = rates.omega_p / 2.0
    return lambda u: abs(reflection(center + u * rates.kappa, xi, rates)) ** 2


class TestRateBudget:
    def test_sto_working_point(self):
        rates = rate_budget(9.3e-3, STO_DESIGN, CIRCUIT)
        assert rates.kappa_int / TWO_PI == pytest.approx(3.4e6, rel=0.03)
        assert rates.kappa_ext / TWO_PI == pytest.approx(20.7e6, rel=0.03)
        assert rates.kappa / TWO_PI == pytest.approx(24e6, rel=0.03)
        assert rates.q_int == pytest.approx(6.1e2, rel=0.03)
        assert rates.q_ext == pytest.approx(100.0, rel=1e-12)

    def test_kto_working_point(self):
        rates = rate_budget(66e-3, KTO_DESIGN, CIRCUIT)
        assert rates.kappa_ext / TWO_PI == pytest.approx(48.9e6, rel=0.03)
        assert rates.kappa / TWO_PI == pytest.approx(49.5e6, rel=0.03)
        assert rates.q_int == pytest.approx(7.4e3, rel=0.03)
        # The internal rate itself, quoted to one significant figure
        # elsewhere, rounds to 0.7 MHz.
        assert rates.kappa_int / TWO_PI == pytest.approx(0.7e6, abs=0.05e6)

    @pytest.mark.parametrize(
        "name, value",
        [
            (name, value)
            for name in ("omega0", "kappa_int", "kappa_ext")
            for value in (math.nan, math.inf, -math.inf)
        ]
        + [("omega0", 0.0), ("kappa_ext", 0.0), ("kappa_int", -1.0)],
    )
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            RateBudget(**{**BUDGET.__dict__, name: value})

    def test_rule_message(self):
        with pytest.raises(ConfigurationError) as excinfo:
            RateBudget(1.0, -1.0, 1.0)
        assert str(excinfo.value) == "rate 'kappa_int' must be finite and non-negative"

    def test_derived_fields(self):
        assert BUDGET.kappa == BUDGET.kappa_int + BUDGET.kappa_ext
        assert BUDGET.omega_p == 2.0 * BUDGET.omega0
        assert LOSSLESS.q_int == math.inf


class TestReflection:
    def test_lossless_unitarity(self):
        omegas = LOSSLESS.omega_p / 2.0 + np.linspace(-10, 10, 4001) * LOSSLESS.kappa
        r = reflection(omegas, 0.0, LOSSLESS)
        assert float(np.max(np.abs(np.abs(r) - 1.0))) < 1e-12

    def test_center_value_no_pump(self):
        r = reflection(BUDGET.omega_p / 2.0, 0.0, BUDGET)
        want = (BUDGET.kappa_ext - BUDGET.kappa_int) / BUDGET.kappa
        assert isinstance(r, complex)
        assert r.real == pytest.approx(want, rel=1e-12, abs=0.0)
        assert r.imag == pytest.approx(0.0, abs=1e-15)

    def test_matches_direct_formula(self):
        # Independent scalar evaluation of the reflection expression.
        xi = 0.9 * BUDGET.kappa / 2.0
        for frac in (-2.3, -0.37, 0.0, 0.41, 1.9):
            omega = BUDGET.omega_p / 2.0 + frac * BUDGET.kappa
            dw = omega - BUDGET.omega_p / 2.0
            want = (
                BUDGET.kappa_ext * BUDGET.kappa / 2.0 + 1j * BUDGET.kappa_ext * dw
            ) / ((BUDGET.kappa / 2.0 + 1j * dw) ** 2 - xi * xi) - 1.0
            got = reflection(omega, xi, BUDGET)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_vectorized_equals_scalar(self):
        xi = 0.8 * BUDGET.kappa / 2.0
        omegas = BUDGET.omega_p / 2.0 + np.linspace(-3, 3, 101) * BUDGET.kappa
        vec = reflection(omegas, xi, BUDGET)
        for i, omega in enumerate(omegas):
            scalar = reflection(float(omega), xi, BUDGET)
            assert abs(vec[i] - scalar) <= 1e-12 * abs(scalar)

    def test_symmetric_about_center(self):
        xi = 0.7 * BUDGET.kappa / 2.0
        for frac in (0.1, 0.9, 2.7):
            dw = frac * BUDGET.kappa
            left = reflection(BUDGET.omega_p / 2.0 - dw, xi, BUDGET)
            right = reflection(BUDGET.omega_p / 2.0 + dw, xi, BUDGET)
            assert abs(left) == pytest.approx(abs(right), rel=1e-12, abs=0.0)

    def test_gain_grows_toward_threshold(self):
        center = BUDGET.omega_p / 2.0
        gains = [
            abs(reflection(center, ratio * BUDGET.kappa / 2.0, BUDGET))
            for ratio in (0.0, 0.5, 0.9, 0.99, 0.999)
        ]
        assert all(a < b for a, b in zip(gains, gains[1:]))
        assert 20.0 * math.log10(gains[-1]) > 50.0

    def test_passive_without_pump(self):
        omegas = BUDGET.omega_p / 2.0 + np.linspace(-5, 5, 801) * BUDGET.kappa
        r = reflection(omegas, 0.0, BUDGET)
        assert float(np.max(np.abs(r))) <= 1.0 + 1e-12

    def test_threshold_raises(self):
        for ratio in (1.0, 1.1):
            with pytest.raises(ThresholdError) as err:
                reflection(BUDGET.omega_p / 2.0, ratio * BUDGET.kappa / 2.0, BUDGET)
            assert err.value.pump_ratio == pytest.approx(ratio, rel=1e-12)

    def test_rejects_nan_pump(self):
        with pytest.raises(ValueError):
            reflection(BUDGET.omega_p / 2.0, math.nan, BUDGET)
        with pytest.raises(ValueError):
            profile_from_rates(BUDGET, math.nan)


class TestGainProfile:
    def test_flat_when_lossless_and_unpumped(self):
        profile = profile_from_rates(LOSSLESS, 0.0)
        assert float(np.max(np.abs(profile.gain_db))) < 1e-10
        assert math.isnan(profile.bandwidth)
        assert profile.pump_ratio == 0.0

    def test_peak_matches_scalar_evaluation(self):
        xi = 0.9 * BUDGET.kappa / 2.0
        profile = profile_from_rates(BUDGET, xi)
        center = BUDGET.omega_p / 2.0
        want_db = 20.0 * math.log10(abs(reflection(center, xi, BUDGET)))
        assert profile.peak_gain_db == pytest.approx(want_db, rel=1e-9)
        assert profile.pump_ratio == pytest.approx(0.9, rel=1e-12, abs=0.0)

    def test_bandwidth_against_interpolated_scan(self):
        xi = 0.9 * BUDGET.kappa / 2.0
        profile = profile_from_rates(BUDGET, xi, GridSpec(count=4001, half_span_kappa=2.0))
        power = np.abs(profile.reflection) ** 2
        half = power.max() / 2.0
        # Interpolate the right-side half-power crossing; the curve is
        # symmetric so the width is twice that offset.
        center = len(power) // 2
        right = power[center:]
        i = int(np.argmax(right < half))
        x0 = profile.frequencies[center + i - 1] - BUDGET.omega_p / 2.0
        x1 = profile.frequencies[center + i] - BUDGET.omega_p / 2.0
        frac = (power[center + i - 1] - half) / (power[center + i - 1] - power[center + i])
        scan_width = 2.0 * (x0 + frac * (x1 - x0))
        assert profile.bandwidth == pytest.approx(scan_width, rel=1e-4)

    def test_bandwidth_shrinks_with_gain(self):
        widths = [
            profile_from_rates(BUDGET, r * BUDGET.kappa / 2.0).bandwidth
            for r in (0.8, 0.9, 0.95)
        ]
        assert widths[0] > widths[1] > widths[2] > 0.0

    @pytest.mark.parametrize(
        "rates",
        [BUDGET, LOSSLESS, SUB_3DB, KTO_LIKE],
        ids=["budget", "lossless", "sub_3db", "kto_like"],
    )
    @pytest.mark.parametrize("ratio", [0.1, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
    def test_bandwidth_against_bisection(self, rates, ratio):
        kappa = rates.kappa
        xi = ratio * kappa / 2.0
        profile = profile_from_rates(rates, xi)
        half = float(np.max(np.abs(profile.reflection) ** 2)) / 2.0
        power = power_at(rates, xi)
        span = GridSpec().half_span_kappa
        upper = first_crossing_bisect(power, half, span)
        if math.isnan(upper) or power(span) >= half:
            assert math.isnan(profile.bandwidth)
        else:
            # The curve is even in the offset, so the width is twice the upper crossing.
            assert abs(profile.bandwidth / kappa - 2.0 * upper) <= 1e-9

    def test_bandwidth_at_a_3db_peak(self):
        # A peak of 3 dB puts the half-power level at |R|**2 = 1, where the
        # quadratic in u**2 loses its leading coefficient.
        # R(0) = (kappa_ext / kappa) / (2 (1/4 - (xi/kappa)**2)) - 1 = sqrt(2).
        kappa = BUDGET.kappa
        xi = kappa * math.sqrt(0.25 - 0.5 * BUDGET.kappa_ext / kappa / (1.0 + math.sqrt(2.0)))
        profile = profile_from_rates(BUDGET, xi)
        assert profile.peak_gain_db == pytest.approx(10.0 * math.log10(2.0), abs=1e-12)
        power = power_at(BUDGET, xi)
        span = GridSpec().half_span_kappa
        upper = first_crossing_bisect(power, 1.0, span)
        assert power(span) < 1.0
        assert abs(profile.bandwidth / kappa - 2.0 * upper) <= 1e-9
        # With the level exactly 1 the leading coefficient is exactly 0.
        assert abs(_half_power_offset(BUDGET, xi, 1.0) - upper) <= 1e-9

    def test_sub_3db_peak_in_a_narrow_span(self):
        # Critically coupled, a 2.4 dB peak falls below half power near 0.26
        # kappa and climbs back above it near 1.1 kappa, so a span of +-kappa
        # holds one crossing on each side and the width exists.
        rates = RateBudget(BUDGET.omega0, TWO_PI * 10e6, TWO_PI * 10e6)
        xi = 0.755 * rates.kappa / 2.0
        profile = profile_from_rates(rates, xi, GridSpec(half_span_kappa=1.0))
        assert profile.peak_gain_db < 10.0 * math.log10(2.0)
        half = float(np.max(np.abs(profile.reflection) ** 2)) / 2.0
        power = power_at(rates, xi)
        upper = first_crossing_bisect(power, half, 1.0)
        assert power(1.2) > half
        assert abs(profile.bandwidth / rates.kappa - 2.0 * upper) <= 1e-9

    def test_centered_bandwidth_unchanged(self):
        # Full width as computed from the roots of the quartic in u.
        profile = profile_from_rates(BUDGET, 0.9 * BUDGET.kappa / 2.0)
        assert profile.bandwidth / BUDGET.kappa == pytest.approx(
            0.10108489170841178, rel=1e-12, abs=0.0
        )

    def test_bandwidth_property_against_bisection(self):
        # Drawn coupling shares, pump ratios and spans: the closed-form width
        # against bisection, with NaN in the same places on both sides.
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=100, derandomize=True, deadline=None, database=None)
        @given(
            st.floats(min_value=0.01, max_value=1.0),
            st.floats(min_value=0.0, max_value=0.999),
            st.floats(min_value=0.25, max_value=8.0),
        )
        def check(ext_share, ratio, half_span):
            kappa_ext = ext_share * BUDGET.kappa
            rates = RateBudget(BUDGET.omega0, BUDGET.kappa - kappa_ext, kappa_ext)
            xi = ratio * rates.kappa / 2.0
            profile = profile_from_rates(rates, xi, GridSpec(half_span_kappa=half_span))
            power = power_at(rates, xi)
            half = power(0.0) / 2.0
            upper = first_crossing_bisect(power, half, half_span)
            if math.isnan(upper) or power(half_span) >= half:
                assert math.isnan(profile.bandwidth)
            else:
                assert abs(profile.bandwidth / rates.kappa - 2.0 * upper) <= 1e-9

        check()

    def test_sub_3db_peak_has_no_bandwidth(self):
        # The curve dips below half power inside the span but is back above
        # it at the span edge, so it has no 3-dB width there.
        rates = SUB_3DB
        profile = profile_from_rates(rates, 0.64 * rates.kappa / 2.0)
        power = np.abs(profile.reflection) ** 2
        assert profile.peak_gain_db < 10.0 * math.log10(2.0)
        assert power.min() < power.max() / 2.0 <= power[-1]
        assert math.isnan(profile.bandwidth)

    def test_gain_db_is_the_reflection_in_db(self):
        profile = profile_from_rates(BUDGET, 0.8 * BUDGET.kappa / 2.0)
        assert np.array_equal(profile.gain_db, 20.0 * np.log10(np.abs(profile.reflection)))

    def test_overflowing_span_gives_nan_without_warning(self):
        # A span of 1e300 kappa overflows the grid; any floating-point warning fails the test.
        grid = GridSpec(count=3, half_span_kappa=1e300)
        profile = profile_from_rates(BUDGET, 0.5 * BUDGET.kappa / 2.0, grid)
        assert math.isnan(profile.peak_gain_db)
        assert math.isnan(profile.bandwidth)
        assert np.isnan(profile.gain_db).all()

    def test_profile_frequencies_span(self):
        grid = GridSpec(count=11, half_span_kappa=3.0)
        profile = profile_from_rates(BUDGET, 0.5 * BUDGET.kappa / 2.0, grid)
        center = BUDGET.omega_p / 2.0
        assert profile.frequencies[0] == pytest.approx(center - 3.0 * BUDGET.kappa)
        assert profile.frequencies[-1] == pytest.approx(center + 3.0 * BUDGET.kappa)
        assert len(profile.frequencies) == 11

    def test_threshold_error_carries_ratio(self):
        with pytest.raises(ThresholdError) as err:
            profile_from_rates(BUDGET, 1.1 * BUDGET.kappa / 2.0)
        assert err.value.pump_ratio == pytest.approx(1.1, rel=1e-12)

    def test_from_physical_design(self):
        # A 0.4 mV pump keeps the STO design below threshold at its best bias.
        profile = gain_profile(9.3e-3, DriveSpec(0.4e-3), STO_DESIGN, CIRCUIT)
        assert profile.pump_ratio < 1.0
        assert profile.peak_gain_db > 10.0
        # The full 1 mV pump overdrives this working point.
        with pytest.raises(ThresholdError):
            gain_profile(9.3e-3, DriveSpec(1e-3), STO_DESIGN, CIRCUIT)

    def test_grid_validation(self):
        # Each rule quotes its field, so that the config layer can name the [gain] key.
        for kwargs, field in (
            ({"count": 1}, "count"),
            ({"count": 800}, "count"),  # no sample on the pumped center
            ({"half_span_kappa": 0.0}, "half_span_kappa"),
            ({"half_span_kappa": math.inf}, "half_span_kappa"),  # an all-NaN profile
        ):
            with pytest.raises(ConfigurationError, match=f"'{field}'"):
                GridSpec(**kwargs)

    @pytest.mark.parametrize("count", [math.nan, 801.0])
    def test_grid_rejects_a_non_integer_count(self, count):
        with pytest.raises(ConfigurationError, match="grid 'count' must be odd and at least 3"):
            GridSpec(count=count)


class TestCompression:
    def test_quoted_scale(self):
        # K/2pi = 0.1 Hz, kappa/2pi = 20 MHz, omega0/2pi = 2 GHz with a
        # 1e8-photon budget: about -64 dBm in the ordinary-frequency
        # convention, about 16 dB higher in the angular one.
        est = compression_estimate(TWO_PI * 0.1, LOSSLESS, n_photons=1e8)
        assert est.p_dbm_ordinary == pytest.approx(-63.7486, abs=1e-3)
        assert est.p_dbm_angular == pytest.approx(-47.7850, abs=1e-3)
        assert est.p_dbm_angular - est.p_dbm_ordinary == pytest.approx(
            20.0 * math.log10(TWO_PI), abs=1e-9
        )

    def test_default_budget_is_kappa_over_kerr(self):
        est = compression_estimate(TWO_PI * 0.1, LOSSLESS)
        assert est.n_photons == pytest.approx(2e8, rel=1e-12)

    def test_budget_scales_with_kappa(self):
        double = RateBudget(LOSSLESS.omega0, 0.0, 2.0 * LOSSLESS.kappa_ext)
        est1 = compression_estimate(TWO_PI * 0.1, LOSSLESS)
        est2 = compression_estimate(TWO_PI * 0.1, double)
        assert est2.n_photons == pytest.approx(2.0 * est1.n_photons, rel=1e-12)

    def test_omega_override(self):
        est = compression_estimate(TWO_PI * 0.1, replace(LOSSLESS, omega0=TWO_PI * 4e9))
        base = compression_estimate(TWO_PI * 0.1, LOSSLESS)
        assert est.p_dbm_ordinary - base.p_dbm_ordinary == pytest.approx(
            10.0 * math.log10(2.0), abs=1e-9
        )

    def test_invalid_kerr(self):
        with pytest.raises(ValueError):
            compression_estimate(0.0, LOSSLESS)
        with pytest.raises(ValueError):
            compression_estimate(-1.0, LOSSLESS)

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="k_eff must be positive"):
            compression_estimate(math.nan, LOSSLESS)
        with pytest.raises(ValueError, match="photon budget must be positive"):
            compression_estimate(1.0, LOSSLESS, n_photons=math.nan)

    @pytest.mark.parametrize("k_eff", [math.nan, math.inf, -math.inf])
    def test_non_finite_kerr_raises_with_a_chosen_budget(self, k_eff):
        # The budget does not read k_eff, but a non-finite one still gives no finite power.
        with pytest.raises(ValueError, match="k_eff must be finite"):
            compression_estimate(k_eff, LOSSLESS, n_photons=1e8)
