import math

import numpy as np
import pytest

import qpamp.sweep
from oracles import (
    argmax_bisect,
    geometry_rows_per_design,
    material_row_mp,
    peak_gain_db_per_row,
)
from qpamp import (
    KTO,
    STO,
    CircuitParams,
    ConfigurationError,
    DriveSpec,
    MaterialParams,
    NumericalError,
    SweepSpec,
    VaractorDesign,
    bias_sweep,
    default_workers,
    dielectric_sweep,
    geometry_sweep,
    kerr_strength,
    maximize_3wm,
    operating_point,
    three_wave_strength,
)

TWO_PI = 2.0 * math.pi
STO_DESIGN = VaractorDesign(plate_area=16e-12, thickness=200e-9, material=STO)
KTO_DESIGN = VaractorDesign(plate_area=16e-12, thickness=200e-9, material=KTO)
CIRCUIT = CircuitParams(inductance=0.5e-9, q_ext=100.0)
DRIVE = DriveSpec(v_ac=1e-3)
# A crystal of no built-in material, lossy and inhomogeneous.
CUSTOM = MaterialParams(
    eps00_rel=3000.0,
    curie_temp=40.0,
    debye_temp=200.0,
    renorm_field=2.0e6,
    inhomogeneity=0.02,
    a1=1e-4,
    a2=1e-3,
    temperature=0.0,
)
# The custom crystal of tests/golden.
GOLDEN_CUSTOM = MaterialParams(
    eps00_rel=3000.0,
    curie_temp=40.0,
    debye_temp=160.0,
    renorm_field=2.0e6,
    inhomogeneity=0.025,
    a1=2e-4,
    a2=1e-3,
)
EPS = 2.0**-52


class TestSweepSpec:
    def test_points_linear(self):
        spec = SweepSpec("bias_voltage", 0.0, 0.25, 6)
        pts = spec.points()
        assert pts[0] == 0.0 and pts[-1] == 0.25 and len(pts) == 6

    def test_points_log(self):
        spec = SweepSpec("plate_separation", 1e-7, 1e-4, 4, spacing="log")
        pts = spec.points()
        assert pts[0] == pytest.approx(1e-7, rel=1e-12, abs=0.0)
        assert pts[-1] == pytest.approx(1e-4, rel=1e-12, abs=0.0)
        assert pts[1] / pts[0] == pytest.approx(10.0, rel=1e-9)

    def test_points_against_numpy_and_an_exact_sequence(self):
        # Each log exponent carries a few roundings of about eps * L, L the larger
        # |log10| of the ends, and 10**x makes ln(10) times that a relative error; so
        # the bound is 2 ln(10) (1 + L) ulps, which np.geomspace meets on the same draws.
        pytest.importorskip("hypothesis")
        mp = pytest.importorskip("mpmath")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=300, derandomize=True, deadline=None, database=None)
        @given(st.floats(-12.0, 9.0), st.floats(0.01, 12.0), st.integers(2, 50))
        def check(start_exponent, decades, count):
            start = 10.0**start_exponent
            stop = start * 10.0**decades
            linear = SweepSpec("bias_voltage", start, stop, count).points()
            assert linear == np.linspace(start, stop, count).tolist()
            log = SweepSpec("plate_separation", start, stop, count, spacing="log").points()
            assert len(log) == count and log[0] == start and log[-1] == stop
            ends = max(abs(math.log10(start)), abs(math.log10(stop)))
            rel = 2.0 * math.log(10.0) * (1.0 + ends) * EPS
            with mp.workdps(40):
                ratio = mp.mpf(stop) / start
                exact = [start * ratio ** (mp.mpf(i) / (count - 1)) for i in range(count)]
                for points in (log, np.geomspace(start, stop, count).tolist()):
                    for i, (x, want) in enumerate(zip(points, exact)):
                        assert abs(x - want) <= rel * want, (i, x, float(want))

        check()

    def test_single_point(self):
        spec = SweepSpec("bias_voltage", 0.0, 0.0, 1)
        assert spec.points() == [0.0]

    def test_pump_ratio_from_zero(self):
        # A pump ratio is a magnitude: 0 (no pump) is a valid start, unlike a negative one.
        spec = SweepSpec("pump_ratio", 0.0, 0.5, 3)
        assert spec.points() == [0.0, 0.25, 0.5]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SweepSpec("bias_voltage", 0.25, 0.0, 5)  # empty range
        with pytest.raises(ConfigurationError):
            SweepSpec("bias_voltage", 0.1, 0.1, 5)  # empty range
        with pytest.raises(ConfigurationError):
            SweepSpec("bias_voltage", 0.0, 0.25, 0)  # no points
        with pytest.raises(ConfigurationError):
            SweepSpec("bias_voltage", 0.0, 0.25, 5, spacing="cubic")
        with pytest.raises(ConfigurationError):
            SweepSpec("temperature", 0.0, 0.25, 5)
        with pytest.raises(ConfigurationError) as excinfo:
            SweepSpec("foo", 0, 1, 2)
        assert str(excinfo.value) == (
            "sweep 'variable' must be one of "
            "bias_voltage, bias_field, plate_separation, pump_ratio, got 'foo'"
        )
        with pytest.raises(ConfigurationError) as excinfo:
            SweepSpec("bias_voltage", 0, 1, 2, "cubic")
        assert str(excinfo.value) == "sweep 'spacing' must be one of linear, log, got 'cubic'"
        with pytest.raises(ConfigurationError):
            SweepSpec("plate_separation", 0.0, 1e-4, 5, spacing="log")
        with pytest.raises(ConfigurationError, match="plate_separation"):
            SweepSpec("plate_separation", 0.0, 1e-4, 5)  # no plates at zero separation
        with pytest.raises(ConfigurationError, match="pump_ratio"):
            SweepSpec("pump_ratio", -0.5, 0.5, 3)  # a pump ratio is a magnitude

    @pytest.mark.parametrize("name", ["start", "stop"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, value):
        spec = SweepSpec("bias_voltage", 0.0, 0.25, 3)
        with pytest.raises(ConfigurationError, match=name):
            SweepSpec(**{**spec.__dict__, name: value})

    @pytest.mark.parametrize("count", [2.5, math.inf])
    def test_rejects_a_non_integer_count(self, count):
        with pytest.raises(ConfigurationError, match="sweep 'count' must be >= 1"):
            SweepSpec("bias_voltage", 0.0, 0.1, count)


class TestBiasSweep:
    def test_shape_and_landmarks(self):
        spec = SweepSpec("bias_voltage", 0.0, 0.25, 101)
        result = bias_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE, workers=1)
        assert result.columns[0] == "v0_mv"
        assert len(result.rows) == 101
        xi = result.column("xi_mhz")
        v = result.column("v0_mv")
        # Zero at the origin, one interior maximum near 9.3 mV.
        assert xi[0] == 0.0
        i_max = int(np.argmax(xi))
        assert 0 < i_max < len(xi) - 1
        assert v[i_max] == pytest.approx(9.3, abs=1.3)
        assert all(a < b for a, b in zip(xi[: i_max + 1], xi[1 : i_max + 1]))
        assert all(a > b for a, b in zip(xi[i_max:], xi[i_max + 1 :]))
        # Permittivity-driven columns are monotone.
        eps = result.column("eps_r")
        assert all(a > b for a, b in zip(eps, eps[1:]))
        f0 = result.column("f0_ghz")
        assert all(a < b for a, b in zip(f0, f0[1:]))
        # Kerr is maximal at zero bias.
        keff = result.column("keff_hz")
        assert np.argmax(keff) == 0

    def test_peak_gain_column(self):
        spec = SweepSpec("bias_voltage", 0.0, 0.25, 41)
        result = bias_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE, workers=1)
        gain = result.column("peak_gain_db")
        # Below threshold at zero bias (no pump coupling), above it near the
        # optimum: the column must carry both finite values and NaNs.
        assert math.isfinite(gain[0])
        assert any(math.isnan(g) for g in gain)
        assert any(math.isfinite(g) for g in gain[1:])

    def test_peak_gain_where_the_square_of_kappa_underflows(self):
        # kappa near 1e-190 rad/s, so (kappa/2)**2 underflows to 0.  At zero bias xi = 0:
        # the lossless mode is below threshold and reflects with |R| = 1, on both paths.
        lossless = STO_DESIGN._replace(material=STO._replace(a1=0.0, a2=0.0))
        circuit = CircuitParams(inductance=0.5e-9, q_ext=1e200)
        spec = SweepSpec("bias_voltage", 0.0, 0.25, 3)
        for table in (bias_sweep, qpamp.sweep._bias_rows):
            assert table(spec, lossless, circuit, DRIVE).column("peak_gain_db")[0] == 0.0

    @pytest.mark.parametrize("window", [(0.0, 0.25, 201), (-0.3, 0.9, 1001)], ids=["0-250", "wide"])
    @pytest.mark.parametrize("v_ac", [0.25e-3, 1e-3, 5e-3])
    @pytest.mark.parametrize("design", [STO_DESIGN, KTO_DESIGN], ids=["sto", "kto"])
    def test_peak_gain_column_matches_per_row_reflection(self, design, v_ac, window):
        drive = DriveSpec(v_ac=v_ac)
        spec = SweepSpec("bias_voltage", *window)
        gain = bias_sweep(spec, design, CIRCUIT, drive).column("peak_gain_db")
        point = operating_point(np.array(spec.points()), drive, design, CIRCUIT)
        rows = zip(
            point.omega0.tolist(),
            point.kappa_int.tolist(),
            point.kappa_ext.tolist(),
            np.abs(point.xi).tolist(),
        )
        want = [peak_gain_db_per_row(*row) for row in rows]
        assert [math.isnan(g) for g in gain] == [math.isnan(w) for w in want]
        assert max(abs(g - w) for g, w in zip(gain, want) if not math.isnan(w)) <= 1e-12

    def test_non_finite_cell_raises(self):
        # 1e300 V overflows the normalised field; the chain turns it into NaN
        # without a floating-point warning.
        spec = SweepSpec("bias_voltage", 0.0, 1e300, 5)
        with pytest.raises(NumericalError, match="not finite"):
            bias_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE)

    def test_single_point_degenerate(self):
        spec = SweepSpec("bias_voltage", 0.0, 0.0, 1)
        result = bias_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE, workers=1)
        assert len(result.rows) == 1
        assert result.column("xi_mhz")[0] == 0.0

    def test_parallel_matches_serial_bitwise(self):
        spec = SweepSpec("bias_voltage", 0.0, 0.25, 60)
        serial = bias_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE, workers=1)
        parallel = bias_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE, workers=4)
        assert serial.rows == parallel.rows
        assert serial.columns == parallel.columns

    def test_deterministic_repeat(self):
        spec = SweepSpec("bias_voltage", 0.0, 0.25, 30)
        a = bias_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE, workers=2)
        b = bias_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE, workers=2)
        assert a.rows == b.rows

    def test_wrong_variable(self):
        with pytest.raises(ConfigurationError):
            bias_sweep(SweepSpec("bias_field", 0.0, 1e6, 5), STO_DESIGN, CIRCUIT, DRIVE)


def oracle_optimum(design):
    """The bias in [0.1 mV, 0.25 V] of largest |xi| for `DRIVE`, by `argmax_bisect`."""
    return argmax_bisect(
        lambda v: abs(three_wave_strength(v, DRIVE, design, CIRCUIT)), 1e-4, 0.25, 1e-5
    )


class TestMaximize:
    def test_sto_optimum(self):
        best = maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE)
        assert best.v0_max * 1e3 == pytest.approx(9.3, abs=0.2)
        assert best.xi_max / TWO_PI == pytest.approx(26e6, rel=0.05)

    def test_kto_optimum(self):
        best = maximize_3wm(KTO_DESIGN, CIRCUIT, DRIVE)
        assert best.v0_max * 1e3 == pytest.approx(66.0, abs=1.0)
        assert best.xi_max / TWO_PI == pytest.approx(9.5e6, rel=0.05)

    @pytest.mark.parametrize(
        "material, v0_mv",
        [
            (STO, 9.318749),
            (KTO, 66.330674),
            (STO._replace(inhomogeneity=0.0), 4.062505),
            (STO._replace(inhomogeneity=0.025), 12.322046),
        ],
        ids=["sto", "kto", "ideal-sto", "sto-0.025"],
    )
    def test_oracle_reproduces_closed_form_optima(self, material, v0_mv):
        # Closed-form optima, to 1 nV: |xi| ~ C' C**-1.5 peaks where z = y**2, y the cubic's
        # root, is the positive root of 2z^4 + 17 eta z^3 + 45 eta^2 z^2
        # + (27 eta^3 - 20 lambda_s^2) z - (27 eta^4 + 44 eta lambda_s^2).
        design = STO_DESIGN._replace(material=material)
        assert abs(oracle_optimum(design) * 1e3 - v0_mv) <= 5e-7

    def test_optimum_within_half_the_bracket_of_an_oracle(self):
        # Debye temperatures of 172-260 K put eta at about 0.03-0.55; the search's last
        # bracket is 1 uV wide, so its midpoint lies within 0.5 uV of the true optimum.
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=20, derandomize=True, deadline=None, database=None)
        @given(st.floats(172.0, 260.0), st.floats(0.0, 0.05))
        def check(debye_temp, inhomogeneity):
            material = STO._replace(debye_temp=debye_temp, inhomogeneity=inhomogeneity)
            design = STO_DESIGN._replace(material=material)
            best = maximize_3wm(design, CIRCUIT, DRIVE)
            assert abs(best.v0_max - oracle_optimum(design)) <= 0.5e-6

        check()

    def test_negative_range_mirrors(self):
        pos = maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE, v_range=(0.0, 0.25))
        neg = maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE, v_range=(-0.25, 0.0))
        assert neg.v0_max == pytest.approx(-pos.v0_max, abs=5e-6)
        assert neg.xi_max == pytest.approx(pos.xi_max, rel=1e-6)

    def test_beats_every_grid_point(self):
        best = maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE)
        for v in np.linspace(0.0, 0.25, 241):
            assert best.xi_max >= abs(three_wave_strength(v, DRIVE, STO_DESIGN, CIRCUIT))

    def test_resolution(self):
        # Refinement must do better than the 241-point grid pitch (~1 mV).
        best = maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE)
        grid = np.linspace(0.0, 0.25, 241)
        nearest = grid[np.argmin(np.abs(grid - best.v0_max))]
        assert best.v0_max != nearest

    def test_window_edge_flag(self):
        assert not maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE).on_window_edge
        assert not maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE, v_range=(-0.25, 0.0)).on_window_edge
        # STO peaks near 9.3 mV, outside both windows.
        upper = maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE, v_range=(0.0, 5e-3))
        assert upper.on_window_edge and upper.v0_max == pytest.approx(5e-3, abs=1e-6)
        lower = maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE, v_range=(20e-3, 0.25))
        assert lower.on_window_edge and lower.v0_max == pytest.approx(20e-3, abs=1e-6)

    def test_flat_objective(self):
        with pytest.raises(NumericalError, match="flat over the search range"):
            maximize_3wm(STO_DESIGN, CIRCUIT, DriveSpec(v_ac=0.0))

    def test_underflowing_objective(self):
        # v_zpf**2 underflows on a huge plate, so |xi| is exactly 0 at every grid point.
        huge = STO_DESIGN._replace(plate_area=1e288)
        with pytest.raises(NumericalError, match="underflows to zero"):
            maximize_3wm(huge, CIRCUIT, DRIVE)

    def test_non_finite_objective(self):
        # Near 1e308 V the normalised field overflows and |xi| is NaN.
        with pytest.raises(NumericalError, match="not finite"):
            maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE, v_range=(0.0, 1e308))

    def test_empty_range(self):
        with pytest.raises(ConfigurationError):
            maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE, v_range=(0.1, 0.1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_after_the_grid_maximum(self, monkeypatch, bad):
        # max() passes over a NaN, so a peak before it must not hide it.
        def strength(v0, drive, design, circuit):
            return 1.0 - (v0 - 0.1) ** 2 if v0 < 0.2 else bad

        monkeypatch.setattr(qpamp.sweep, "three_wave_strength", strength)
        with pytest.raises(NumericalError, match="not finite"):
            maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE)

    @pytest.mark.parametrize(
        "v_range", [(0.0, 0.25), (-0.25, 0.0), (1.3e-3, 7.7e-2), (-0.11, 0.37), (2.0, 2.0 + 3e-9)]
    )
    def test_grid_is_linspace(self, monkeypatch, v_range):
        seen = []

        def strength(v0, drive, design, circuit):
            seen.append(v0)
            return 1.0

        monkeypatch.setattr(qpamp.sweep, "three_wave_strength", strength)
        maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE, v_range=v_range)
        assert seen[:241] == np.linspace(*v_range, 241).tolist()

    def test_tie_keeps_the_first_grid_maximum(self, monkeypatch):
        grid = np.linspace(0.0, 0.25, 241).tolist()
        peaks = {grid[60], grid[180]}

        def strength(v0, drive, design, circuit):
            return 1.0 if v0 in peaks else 0.5

        monkeypatch.setattr(qpamp.sweep, "three_wave_strength", strength)
        best = maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE)
        assert (best.v0_max, best.xi_max) == (grid[60], 1.0)


class TestGeometrySweep:
    def test_trends_over_decades(self):
        spec = SweepSpec("plate_separation", 1e-7, 1e-4, 7, spacing="log")
        result = geometry_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE)
        xi = result.column("xi_max_mhz")
        keff = result.column("keff_zero_hz")
        ratio = result.column("xi_over_keff")
        v0 = result.column("v0_max_mv")
        d = result.column("d_nm")
        assert all(a > b for a, b in zip(xi, xi[1:]))
        assert all(a > b for a, b in zip(keff, keff[1:]))
        assert all(a < b for a, b in zip(ratio, ratio[1:]))
        # Optimal bias scales with the film thickness.
        for i in range(len(d)):
            assert v0[i] / d[i] == pytest.approx(v0[0] / d[0], rel=1e-14, abs=0.0)

    def test_exact_scaling_laws(self):
        # With A/d fixed the capacitance curve only rescales in voltage, so
        # xi ~ 1/d and K_eff ~ 1/d^2 exactly.
        spec = SweepSpec("plate_separation", 1e-7, 1e-5, 3, spacing="log")
        result = geometry_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE)
        d = result.column("d_nm")
        xi = result.column("xi_max_mhz")
        keff = result.column("keff_zero_hz")
        for i in range(1, len(d)):
            assert xi[i] * d[i] == pytest.approx(xi[0] * d[0], rel=1e-14, abs=0.0)
            assert keff[i] * d[i] ** 2 == pytest.approx(keff[0] * d[0] ** 2, rel=1e-14, abs=0.0)

    def test_reference_row_matches_direct_optimum(self):
        spec = SweepSpec("plate_separation", 200e-9, 200e-9, 1)
        result = geometry_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE)
        best = maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE)
        row = result.rows[0]
        assert row[result.columns.index("v0_max_mv")] == pytest.approx(
            best.v0_max * 1e3, rel=1e-12
        )
        assert row[result.columns.index("xi_max_mhz")] == pytest.approx(
            best.xi_max / TWO_PI / 1e6, rel=1e-12
        )
        assert row[result.columns.index("keff_zero_hz")] == pytest.approx(
            kerr_strength(0.0, STO_DESIGN, CIRCUIT) / TWO_PI, rel=1e-12, abs=0.0
        )

    def test_one_search_per_sweep(self, monkeypatch):
        # One search, one working-point record and one zero-bias Kerr strength,
        # whatever the row count; the other rows follow from the scaling laws.
        calls = {"maximize_3wm": [], "operating_point": [], "kerr_strength": []}
        for name, log in calls.items():

            def counting(*args, _log=log, _func=getattr(qpamp.sweep, name), **kwargs):
                _log.append(args)
                return _func(*args, **kwargs)

            monkeypatch.setattr(qpamp.sweep, name, counting)
        for count in (1, 12, 50):
            for log in calls.values():
                log.clear()
            spec = SweepSpec("plate_separation", 1e-7, 1e-4, count, spacing="log")
            assert len(geometry_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE).rows) == count
            assert {name: len(log) for name, log in calls.items()} == dict.fromkeys(calls, 1)
            searched = calls["maximize_3wm"][0][0]
            assert searched.thickness == max(spec.points())
            assert calls["operating_point"][0][2] == searched
            assert calls["kerr_strength"][0][1] == searched

    @pytest.mark.parametrize("count", [1, 12, 13, 50])
    @pytest.mark.parametrize(
        "material",
        [STO, KTO, STO._replace(inhomogeneity=0.0), CUSTOM],
        ids=["sto", "kto", "ideal_sto", "custom"],
    )
    def test_rows_match_a_design_per_row(self, material, count):
        # Against the table built from a design of its own per row.
        design = STO_DESIGN._replace(material=material)
        spec = SweepSpec("plate_separation", 1e-7, 1e-4, count, spacing="log")
        result = geometry_sweep(spec, design, CIRCUIT, DRIVE)
        want = geometry_rows_per_design(spec.points(), design, CIRCUIT, DRIVE)
        assert len(result.rows) == len(want) == count
        for got_row, want_row in zip(result.rows, want):
            assert got_row[:2] == want_row[:2]  # d_nm and v0_max_mv
            assert got_row[2:] == pytest.approx(want_row[2:], rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("design", [STO_DESIGN, KTO_DESIGN], ids=["sto", "kto"])
    def test_rows_match_direct_optima(self, design):
        # Every row, biased at the shared optimum field, is as good as a
        # search of its own scaled design over the same field window.
        spec = SweepSpec("plate_separation", 1e-7, 1e-4, 12, spacing="log")
        result = geometry_sweep(spec, design, CIRCUIT, DRIVE)
        area_ratio = design.plate_area / design.thickness
        for d, v0_mv, xi_mhz in zip(
            spec.points(), result.column("v0_max_mv"), result.column("xi_max_mhz")
        ):
            scaled = design._replace(
                plate_area=area_ratio * d,
                thickness=d,
                v_max=design.v_max * d / design.thickness,
            )
            best = maximize_3wm(scaled, CIRCUIT, DRIVE, v_range=(0.0, 0.25 * d / design.thickness))
            assert abs(v0_mv * 1e-3 - best.v0_max) <= 2e-6
            direct = best.xi_max / TWO_PI / 1e6
            assert xi_mhz >= direct * (1.0 - 1e-12)

    def test_wrong_variable(self):
        with pytest.raises(ConfigurationError):
            geometry_sweep(SweepSpec("bias_voltage", 0.0, 0.25, 5), STO_DESIGN, CIRCUIT, DRIVE)


class TestDielectricSweep:
    def test_sto_curves(self):
        spec = SweepSpec("bias_field", 0.0, 5e6, 101)
        result = dielectric_sweep(STO, spec)
        assert result.columns[0] == "E_V_per_um"
        eps = result.column("eps_r")
        tan = result.column("tan_delta")
        assert eps[0] == pytest.approx(24028.252065577435, rel=1e-9)
        assert all(a > b for a, b in zip(eps, eps[1:]))
        assert all(a < b for a, b in zip(tan, tan[1:]))
        assert eps[-1] < 3000.0
        # Breakdown adds up; defect channel absent for the built-ins.
        for row in result.rows:
            total = row[result.columns.index("tan_delta")]
            parts = [row[result.columns.index(f"tan_delta_{i}")] for i in (1, 2, 3)]
            assert total == parts[0] + parts[1] + parts[2]
            assert parts[2] == 0.0

    def test_field_column_units(self):
        spec = SweepSpec("bias_field", 0.0, 5e6, 11)
        result = dielectric_sweep(STO, spec)
        assert result.column("E_V_per_um")[-1] == pytest.approx(5.0, rel=1e-12)

    def test_ideal_crystal_floor(self):
        mat = MaterialParams(
            eps00_rel=2080.0,
            curie_temp=42.0,
            debye_temp=175.0,
            renorm_field=1.93e6,
            inhomogeneity=0.0,
            a1=2.45e-4,
            a2=2.45e-3,
            temperature=0.0,
        )
        spec = SweepSpec("bias_field", 0.0, 1e6, 5)
        result = dielectric_sweep(mat, spec)
        from qpamp import eta as eta_fn

        assert result.column("eps_r")[0] == pytest.approx(
            2080.0 / eta_fn(mat), rel=1e-12
        )
        assert result.column("tan_delta")[0] == 0.0

    @pytest.mark.parametrize("material", [STO, KTO, GOLDEN_CUSTOM], ids=["sto", "kto", "custom"])
    def test_rows_match_a_40_digit_oracle(self, material):
        # Every cell within 16 ulps of the row evaluated at 40 digits (8.2 ulps at most seen).
        pytest.importorskip("mpmath")
        spec = SweepSpec("bias_field", 0.0, 1e7, 201)
        result = dielectric_sweep(material, spec)
        for field, row in zip(spec.points(), result.rows):
            want = material_row_mp(field, material)
            for column, got, exact in zip(result.columns, row, want):
                assert abs(got - exact) <= 16 * EPS * abs(exact), (column, field, got, exact)

    def test_wrong_variable(self):
        with pytest.raises(ConfigurationError):
            dielectric_sweep(STO, SweepSpec("bias_voltage", 0.0, 0.25, 5))


class TestWorkers:
    @pytest.mark.parametrize("workers", [-3, 0, "x"])
    def test_invalid_workers_rejected(self, workers):
        spec = SweepSpec("bias_voltage", 0.0, 0.25, 3)
        with pytest.raises(ConfigurationError, match="workers"):
            bias_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE, workers=workers)

    def test_env_unset(self):
        assert default_workers() == 1
