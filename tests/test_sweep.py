import math
from dataclasses import replace

import numpy as np
import pytest

import qpamp.sweep

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
    three_wave_strength,
)

TWO_PI = 2.0 * math.pi
STO_DESIGN = VaractorDesign(plate_area=16e-12, thickness=200e-9, material=STO)
KTO_DESIGN = VaractorDesign(plate_area=16e-12, thickness=200e-9, material=KTO)
CIRCUIT = CircuitParams(inductance=0.5e-9, q_ext=100.0)
DRIVE = DriveSpec(v_ac=1e-3)


class TestSweepSpec:
    def test_points_linear(self):
        spec = SweepSpec("bias_voltage", 0.0, 0.25, 6)
        pts = spec.points()
        assert pts[0] == 0.0 and pts[-1] == 0.25 and len(pts) == 6

    def test_points_log(self):
        spec = SweepSpec("plate_separation", 1e-7, 1e-4, 4, spacing="log")
        pts = spec.points()
        assert pts[0] == pytest.approx(1e-7, rel=1e-12)
        assert pts[-1] == pytest.approx(1e-4, rel=1e-12)
        assert pts[1] / pts[0] == pytest.approx(10.0, rel=1e-9)

    def test_single_point(self):
        spec = SweepSpec("bias_voltage", 0.0, 0.0, 1)
        assert spec.points() == [0.0]

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
        with pytest.raises(ConfigurationError):
            SweepSpec("plate_separation", 0.0, 1e-4, 5, spacing="log")

    @pytest.mark.parametrize("name", ["start", "stop"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, value):
        spec = SweepSpec("bias_voltage", 0.0, 0.25, 3)
        with pytest.raises(ConfigurationError, match=name):
            SweepSpec(**{**spec.__dict__, name: value})


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

    def test_metadata(self):
        spec = SweepSpec("bias_voltage", 0.0, 0.25, 3)
        result = bias_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE, workers=1)
        assert result.metadata["variable"] == "bias_voltage"
        assert result.metadata["count"] == "3"
        assert "qpamp_version" in result.metadata


class TestMaximize:
    def test_sto_optimum(self):
        best = maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE)
        assert best.v0_max * 1e3 == pytest.approx(9.3, abs=0.2)
        assert best.xi_max / TWO_PI == pytest.approx(26e6, rel=0.05)

    def test_kto_optimum(self):
        best = maximize_3wm(KTO_DESIGN, CIRCUIT, DRIVE)
        assert best.v0_max * 1e3 == pytest.approx(66.0, abs=1.0)
        assert best.xi_max / TWO_PI == pytest.approx(9.5e6, rel=0.05)

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
        with pytest.raises(NumericalError):
            maximize_3wm(STO_DESIGN, CIRCUIT, DriveSpec(v_ac=0.0))

    def test_empty_range(self):
        with pytest.raises(ConfigurationError):
            maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE, v_range=(0.1, 0.1))


class TestGeometrySweep:
    def test_trends_over_decades(self):
        spec = SweepSpec("plate_separation", 1e-7, 1e-4, 7, spacing="log")
        result = geometry_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE, workers=1)
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
            assert v0[i] / d[i] == pytest.approx(v0[0] / d[0], rel=5e-4)

    def test_exact_scaling_laws(self):
        # With A/d fixed the capacitance curve only rescales in voltage, so
        # xi ~ 1/d and K_eff ~ 1/d^2 exactly.
        spec = SweepSpec("plate_separation", 1e-7, 1e-5, 3, spacing="log")
        result = geometry_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE, workers=1)
        d = result.column("d_nm")
        xi = result.column("xi_max_mhz")
        keff = result.column("keff_zero_hz")
        for i in range(1, len(d)):
            assert xi[i] * d[i] == pytest.approx(xi[0] * d[0], rel=1e-5)
            assert keff[i] * d[i] ** 2 == pytest.approx(keff[0] * d[0] ** 2, rel=1e-9)

    def test_reference_row_matches_direct_optimum(self):
        spec = SweepSpec("plate_separation", 200e-9, 200e-9, 1)
        result = geometry_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE, workers=1)
        best = maximize_3wm(STO_DESIGN, CIRCUIT, DRIVE)
        row = result.rows[0]
        assert row[result.columns.index("v0_max_mv")] == pytest.approx(
            best.v0_max * 1e3, rel=1e-12
        )
        assert row[result.columns.index("xi_max_mhz")] == pytest.approx(
            best.xi_max / TWO_PI / 1e6, rel=1e-12
        )
        assert row[result.columns.index("keff_zero_hz")] == pytest.approx(
            kerr_strength(0.0, STO_DESIGN, CIRCUIT) / TWO_PI, rel=1e-12
        )

    def test_one_search_per_sweep(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return maximize_3wm(*args, **kwargs)

        monkeypatch.setattr(qpamp.sweep, "maximize_3wm", counting)
        spec = SweepSpec("plate_separation", 1e-7, 1e-4, 12, spacing="log")
        geometry_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE)
        assert len(calls) == 1
        assert calls[0][0].thickness == pytest.approx(1e-4, rel=1e-12)

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
            scaled = replace(
                design,
                plate_area=area_ratio * d,
                thickness=d,
                v_max=design.v_max * d / design.thickness,
            )
            best = maximize_3wm(scaled, CIRCUIT, DRIVE, v_range=(0.0, 0.25 * d / design.thickness))
            assert abs(v0_mv * 1e-3 - best.v0_max) <= 2e-6
            direct = best.xi_max / TWO_PI / 1e6
            assert xi_mhz >= direct * (1.0 - 1e-12)

    def test_parallel_matches_serial_bitwise(self):
        spec = SweepSpec("plate_separation", 1e-7, 1e-5, 5, spacing="log")
        serial = geometry_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE, workers=1)
        parallel = geometry_sweep(spec, STO_DESIGN, CIRCUIT, DRIVE, workers=4)
        assert serial.rows == parallel.rows

    def test_wrong_variable(self):
        with pytest.raises(ConfigurationError):
            geometry_sweep(SweepSpec("bias_voltage", 0.0, 0.25, 5), STO_DESIGN, CIRCUIT, DRIVE)


class TestDielectricSweep:
    def test_sto_curves(self):
        spec = SweepSpec("bias_field", 0.0, 5e6, 101)
        result = dielectric_sweep(STO, spec, workers=1)
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
        result = dielectric_sweep(STO, spec, workers=1)
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
        result = dielectric_sweep(mat, spec, workers=1)
        from qpamp import eta as eta_fn

        assert result.column("eps_r")[0] == pytest.approx(
            2080.0 / eta_fn(mat), rel=1e-12
        )
        assert result.column("tan_delta")[0] == 0.0

    def test_wrong_variable(self):
        with pytest.raises(ConfigurationError):
            dielectric_sweep(STO, SweepSpec("bias_voltage", 0.0, 0.25, 5))


class TestWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("QPAMP_WORKERS", "3")
        assert default_workers() == 3

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("QPAMP_WORKERS", "many")
        with pytest.raises(ConfigurationError):
            default_workers()
        monkeypatch.setenv("QPAMP_WORKERS", "0")
        with pytest.raises(ConfigurationError):
            default_workers()

    def test_env_unset(self, monkeypatch):
        monkeypatch.delenv("QPAMP_WORKERS", raising=False)
        assert default_workers() == 1
