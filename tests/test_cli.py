"""End-to-end tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpamp
from qpamp import permittivity, builtin_material
from qpamp.amplifier import GridSpec, profile_from_rates, rate_budget, reflection
from qpamp.cli import main
from qpamp.config import (
    config_text_from_output,
    effective_sections,
    circuit_params,
    drive_spec,
    load_config,
    varactor_design,
)
from qpamp.sweep import maximize_3wm


def read_table(path):
    """Parse a CSV output file into (header_lines, columns, rows-of-floats)."""
    header, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(cell) for cell in line.split(",")])
    return header, columns, rows


def column(columns, rows, name):
    i = columns.index(name)
    return [row[i] for row in rows]


def read_kv(path):
    values = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


class TestMaterialCommand:
    def test_default_sto_table(self, tmp_path):
        assert main(["material", "--out", str(tmp_path)]) == 0
        header, columns, rows = read_table(tmp_path / "material.csv")
        assert columns == [
            "E_V_per_um",
            "eps_r",
            "tan_delta",
            "tan_delta_1",
            "tan_delta_2",
            "tan_delta_3",
        ]
        assert len(rows) == 201
        assert rows[0][0] == 0.0
        assert rows[-1][0] == pytest.approx(5.0, rel=1e-12)
        assert rows[0][1] == pytest.approx(
            permittivity(0.0, builtin_material("sto")), rel=1e-9
        )
        assert header[0].startswith("# qpamp")

    def test_uses_bias_field_sweep_section(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[sweep]\nvariable = bias_field\nmin = 0\nmax = 3\ncount = 7\n")
        assert main(["material", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, columns, rows = read_table(tmp_path / "material.csv")
        assert len(rows) == 7
        assert column(columns, rows, "E_V_per_um")[-1] == pytest.approx(3.0, rel=1e-12)

    def test_other_sweep_variable_falls_back_to_default_range(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[sweep]\nvariable = bias_voltage\nmin = 0\nmax = 20\ncount = 11\n"
        )
        assert main(["material", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, columns, rows = read_table(tmp_path / "material.csv")
        assert len(rows) == 201
        assert column(columns, rows, "E_V_per_um")[-1] == pytest.approx(5.0, rel=1e-12)

    def test_custom_lambda_zero_matches_closed_form(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[material]\n"
            "name = custom\n"
            "eps00_rel = 3000\n"
            "curie_temp_k = 40\n"
            "debye_temp_k = 160\n"
            "renorm_field_v_per_um = 2.0\n"
            "inhomogeneity = 0\n"
            "loss_a1 = 0\n"
            "loss_a2 = 0\n"
        )
        assert main(["material", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, columns, rows = read_table(tmp_path / "material.csv")
        eta_val = 160.0 / 40.0 * math.sqrt(1.0 / 16.0 + (0.01 / 160.0) ** 2) - 1.0
        assert rows[0][1] == pytest.approx(3000.0 / eta_val, rel=1e-12)
        assert column(columns, rows, "tan_delta") == [0.0] * len(rows)

    def test_empty_sweep_range_is_config_error(self, tmp_path, capsys):
        rc = main(
            [
                "material",
                "--out",
                str(tmp_path),
                "--override",
                "sweep.variable=bias_field",
                "--override",
                "sweep.min=2",
                "--override",
                "sweep.max=2",
                "--override",
                "sweep.count=5",
            ]
        )
        assert rc == 2
        assert "range is empty" in capsys.readouterr().err


class TestConfigDiagnostics:
    def test_unknown_key_names_its_location(self, tmp_path, capsys):
        rc = main(["material", "--out", str(tmp_path), "--override", "material.curie=42"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "[material]" in err and "curie" in err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        rc = main(["material", "--out", str(tmp_path), "--override", "magic.key=1"])
        assert rc == 2
        assert "magic" in capsys.readouterr().err

    def test_custom_material_missing_core_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[material]\nname = custom\neps00_rel = 3000\n")
        assert main(["material", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "curie_temp_k" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["material", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_nonpositive_geometry_rejected(self, tmp_path):
        rc = main(["material", "--out", str(tmp_path), "--override", "geometry.thickness_nm=0"])
        assert rc == 2

    def test_unsupported_output_format(self, tmp_path):
        rc = main(["material", "--out", str(tmp_path), "--override", "output.format=json"])
        assert rc == 2

    def test_malformed_override(self, tmp_path, capsys):
        assert main(["material", "--out", str(tmp_path), "--override", "no_equals"]) == 2
        assert "section.key=value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override", ["drive.v_ac_mv=nan", "drive.v_ac_mv=inf", "drive.theta_rad=nan"]
    )
    def test_non_finite_value_rejected(self, tmp_path, capsys, override):
        assert main(["design", "--out", str(tmp_path), "--override", override]) == 2
        key = override.split("=")[0].split(".")[1]
        assert f"[drive] {key}" in capsys.readouterr().err
        assert not (tmp_path / "design.kv").exists()

    def test_even_gain_count_rejected(self, tmp_path, capsys):
        # An even grid has no sample on the pumped center, so no 3-dB width.
        assert main(["gain", "--out", str(tmp_path), "--override", "gain.count=800"]) == 2
        assert "[gain] count" in capsys.readouterr().err
        assert not (tmp_path / "gain.csv").exists()

    def test_invalid_workers_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QPAMP_WORKERS", "many")
        assert main(["material", "--out", str(tmp_path)]) == 2
        assert "QPAMP_WORKERS" in capsys.readouterr().err


class TestDesignCommand:
    def test_sto_report(self, tmp_path, capsys):
        assert main(["design", "--out", str(tmp_path), "--material", "sto"]) == 0
        values = read_kv(tmp_path / "design.kv")
        assert values["material"] == "sto"
        assert float(values["v0_max_mv"]) == pytest.approx(9.3, abs=0.2)
        assert float(values["f0_ghz"]) == pytest.approx(2.07, abs=0.05)
        assert float(values["xi_mhz"]) == pytest.approx(26.5, rel=0.05)
        assert float(values["kappa_ext_mhz"]) == pytest.approx(20.7, rel=0.02)
        assert float(values["q_int"]) == pytest.approx(6.1e2, rel=0.05)
        assert float(values["xi_over_keff"]) == pytest.approx(2.2e8, rel=0.1)
        # Convention gap between the two circulating-power figures.
        gap = float(values["p_circ_dbm_angular"]) - float(values["p_circ_dbm"])
        assert gap == pytest.approx(20.0 * math.log10(2.0 * math.pi), abs=1e-9)
        out = capsys.readouterr().out
        assert "MHz" in out and "dBm" in out
        assert (tmp_path / "design.txt").exists()

    def test_kto_report(self, tmp_path):
        assert main(["design", "--out", str(tmp_path), "--material", "kto"]) == 0
        values = read_kv(tmp_path / "design.kv")
        assert float(values["v0_max_mv"]) == pytest.approx(66.0, abs=1.0)
        assert float(values["f0_ghz"]) == pytest.approx(4.88, abs=0.05)
        assert float(values["xi_mhz"]) == pytest.approx(9.5, rel=0.05)
        assert float(values["kappa_mhz"]) == pytest.approx(49.5, abs=0.5)
        assert float(values["q_int"]) == pytest.approx(7.4e3, rel=0.03)

    def test_search_window_comes_from_bias_sweep_section(self, tmp_path):
        # Restricting the window moves the optimum to its upper edge.
        rc = main(
            [
                "design",
                "--out",
                str(tmp_path),
                "--override",
                "sweep.variable=bias_voltage",
                "--override",
                "sweep.min=0",
                "--override",
                "sweep.max=4",
                "--override",
                "sweep.count=5",
            ]
        )
        assert rc == 0
        values = read_kv(tmp_path / "design.kv")
        assert float(values["v0_max_mv"]) == pytest.approx(4.0, abs=1e-3)


# A 0-5 mV search window ends below the STO optimum near 9.3 mV.
NARROW_WINDOW = [
    "--override",
    "sweep.variable=bias_voltage",
    "--override",
    "sweep.min=0",
    "--override",
    "sweep.max=5",
    "--override",
    "sweep.count=5",
]


class TestWindowEdgeWarning:
    @pytest.mark.parametrize("command", ["design", "gain"])
    def test_optimum_on_edge_warns(self, tmp_path, capsys, command):
        assert main([command, "--material", "sto", "--out", str(tmp_path)] + NARROW_WINDOW) == 0
        err = capsys.readouterr().err
        assert err.startswith("qpamp: warning:") and "edge of the search window" in err

    @pytest.mark.parametrize("command", ["design", "gain"])
    def test_default_window_is_quiet(self, tmp_path, capsys, command):
        assert main([command, "--material", "sto", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_outputs_unchanged_by_the_warning(self, tmp_path, capsys):
        assert main(["design", "--material", "sto", "--out", str(tmp_path)] + NARROW_WINDOW) == 0
        assert len(read_kv(tmp_path / "design.kv")) == 17
        assert "warning" not in (tmp_path / "design.txt").read_text()


class TestGainCommand:
    def test_zero_ratio_without_internal_loss_is_flat(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[material]\n"
            "name = sto\n"
            "loss_a1 = 0\n"
            "loss_a2 = 0\n"
            "[gain]\n"
            "xi_ratio = 0\n"
            "count = 101\n"
        )
        assert main(["gain", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, columns, rows = read_table(tmp_path / "gain.csv")
        assert len(rows) == 101
        assert max(abs(g) for g in column(columns, rows, "gain_db")) < 1e-10

    def test_columns_and_peak_match_direct_evaluation(self, tmp_path):
        rc = main(
            [
                "gain",
                "--out",
                str(tmp_path),
                "--override",
                "gain.xi_ratio=0.9",
                "--override",
                "gain.count=201",
            ]
        )
        assert rc == 0
        _, columns, rows = read_table(tmp_path / "gain.csv")
        assert columns == ["xi_ratio", "freq_ghz", "gain_db", "re_R", "im_R"]
        assert len(rows) == 201

        # Rebuild the identical pipeline through the config layer.
        cfg = load_config(overrides=["gain.xi_ratio=0.9", "gain.count=201"])
        sections = effective_sections(cfg, "gain")
        design = varactor_design(sections)
        circuit = circuit_params(sections)
        drive = drive_spec(sections)
        best = maximize_3wm(design, circuit, drive, v_range=(0.0, 0.25))
        rates = rate_budget(best.v0_max, design, circuit)
        r_center = reflection(rates.omega_p / 2.0, 0.9 * rates.kappa / 2.0, rates)
        expected_peak = 20.0 * math.log10(abs(r_center))
        assert max(column(columns, rows, "gain_db")) == pytest.approx(
            expected_peak, rel=1e-12
        )

    def test_ratios_from_pump_ratio_sweep_section(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[sweep]\nvariable = pump_ratio\nmin = 0.2\nmax = 0.6\ncount = 3\n"
            "[gain]\ncount = 5\n"
        )
        assert main(["gain", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, columns, rows = read_table(tmp_path / "gain.csv")
        assert len(rows) == 15
        ratios = sorted(set(column(columns, rows, "xi_ratio")))
        assert ratios == pytest.approx([0.2, 0.4, 0.6])

    def test_above_threshold_exits_3(self, tmp_path, capsys):
        rc = main(
            ["gain", "--out", str(tmp_path), "--override", "gain.xi_ratio=1.1"]
        )
        assert rc == 3
        assert "threshold" in capsys.readouterr().err

    def test_gain_grows_with_ratio(self, tmp_path):
        rc = main(
            [
                "gain",
                "--out",
                str(tmp_path),
                "--override",
                "gain.xi_ratio=0.5, 0.9, 0.99",
                "--override",
                "gain.count=51",
            ]
        )
        assert rc == 0
        _, columns, rows = read_table(tmp_path / "gain.csv")
        peaks = {}
        for row in rows:
            ratio, gain = row[0], row[2]
            peaks[ratio] = max(peaks.get(ratio, -math.inf), gain)
        ordered = [peaks[r] for r in sorted(peaks)]
        assert ordered == sorted(ordered)
        assert len(peaks) == 3


class TestSweepCommand:
    def test_bias_sweep_lands_on_working_point(self, tmp_path):
        rc = main(
            [
                "sweep",
                "--out",
                str(tmp_path),
                "--override",
                "sweep.variable=bias_voltage",
                "--override",
                "sweep.min=0",
                "--override",
                "sweep.max=20",
                "--override",
                "sweep.count=81",
            ]
        )
        assert rc == 0
        _, columns, rows = read_table(tmp_path / "sweep.csv")
        xi = column(columns, rows, "xi_mhz")
        v0 = column(columns, rows, "v0_mv")
        i_max = xi.index(max(xi))
        assert max(xi) == pytest.approx(26.5, rel=0.05)
        assert v0[i_max] == pytest.approx(9.3, abs=0.3)

    def test_count_two_gives_two_rows(self, tmp_path):
        rc = main(
            [
                "sweep",
                "--out",
                str(tmp_path),
                "--override",
                "sweep.variable=bias_voltage",
                "--override",
                "sweep.min=0",
                "--override",
                "sweep.max=10",
                "--override",
                "sweep.count=2",
            ]
        )
        assert rc == 0
        _, _, rows = read_table(tmp_path / "sweep.csv")
        assert len(rows) == 2

    def test_geometry_sweep_xi_decreases_with_thickness(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "[sweep]\nvariable = plate_separation\nmin = 100\nmax = 100000\n"
            "count = 5\nspacing = log\n"
        )
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, columns, rows = read_table(tmp_path / "sweep.csv")
        xi = column(columns, rows, "xi_max_mhz")
        assert all(a > b for a, b in zip(xi, xi[1:]))
        d = column(columns, rows, "d_nm")
        assert d[0] == pytest.approx(100.0, rel=1e-9)
        assert d[-1] == pytest.approx(100000.0, rel=1e-9)

    def test_pump_ratio_not_sweepable_here(self, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "--out",
                str(tmp_path),
                "--override",
                "sweep.variable=pump_ratio",
                "--override",
                "sweep.min=0",
                "--override",
                "sweep.max=1",
                "--override",
                "sweep.count=3",
            ]
        )
        assert rc == 2
        assert "pump_ratio" in capsys.readouterr().err


class TestOutputContract:
    def test_round_trip_reproduces_identical_bytes(self, tmp_path):
        out = tmp_path / "run"
        assert main(["material", "--out", str(out), "--material", "kto"]) == 0
        before = (out / "material.csv").read_bytes()

        echoed = tmp_path / "echoed.ini"
        echoed.write_text(config_text_from_output(str(out / "material.csv")))
        # No flags beyond --config: the echoed [output] path points back at `out`.
        assert main(["material", "--config", str(echoed)]) == 0
        assert (out / "material.csv").read_bytes() == before

    def test_design_round_trip(self, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["design", "--out", str(out), "--override", "drive.v_ac_mv=0.25"]
        )
        assert rc == 0
        before = (out / "design.kv").read_bytes()
        echoed = tmp_path / "echoed.ini"
        echoed.write_text(config_text_from_output(str(out / "design.kv")))
        assert main(["design", "--config", str(echoed)]) == 0
        assert (out / "design.kv").read_bytes() == before

    def test_header_echoes_resolved_config(self, tmp_path):
        assert main(["material", "--out", str(tmp_path)]) == 0
        header, _, _ = read_table(tmp_path / "material.csv")
        text = "\n".join(header)
        for needle in (
            "[material]",
            "eps00_rel = 2080.0",
            "[geometry]",
            "thickness_nm = 200.0",
            "[sweep]",
            "variable = bias_field",
            f"path = {tmp_path}",
        ):
            assert needle in text

    def test_cells_are_full_precision(self, tmp_path):
        assert main(["material", "--out", str(tmp_path)]) == 0
        _, _, rows = read_table(tmp_path / "material.csv")
        raw = (tmp_path / "material.csv").read_text().splitlines()
        data_lines = [l for l in raw if not l.startswith("#")][1:]
        for cell in data_lines[3].split(","):
            assert format(float(cell), ".17g") == cell

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "qpamp" in capsys.readouterr().out

    def test_commands_run_without_scipy(self, tmp_path):
        # A fresh interpreter: neither the import nor any command loads scipy.
        script = (
            "import json, sys\n"
            "import qpamp.cli\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "seen = {'import': scipy_modules()}\n"
            "for command in ('material', 'design', 'gain', 'sweep'):\n"
            "    rc = qpamp.cli.main([command, '--out', sys.argv[1]])\n"
            "    seen[command] = scipy_modules() if rc == 0 else f'exit {rc}'\n"
            "print(json.dumps(seen))\n"
        )
        src = str(Path(qpamp.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert result.returncode == 0, result.stderr
        seen = json.loads(result.stdout.splitlines()[-1])
        assert seen == {k: [] for k in ("import", "material", "design", "gain", "sweep")}

    def test_console_script_is_wired(self, tmp_path):
        src = str(Path(qpamp.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-m", "qpamp.cli", "material", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert result.returncode == 0
        assert (tmp_path / "material.csv").exists()
