"""End-to-end tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qpamp
from qpamp import ConfigurationError, permittivity, builtin_material
from qpamp.amplifier import GridSpec, profile_from_rates, rate_budget, reflection
from qpamp.cli import main
from qpamp.config import _KEYS, command_run, config_text_from_output, load_config
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


def cli_process(argv, timeout=None):
    """Run ``python -m qpamp.cli *argv`` in a fresh interpreter on this checkout."""
    src = str(Path(qpamp.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "qpamp.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout,
    )


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

    def test_config_file_not_utf8_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.ini"
        cfg.write_bytes(b"\xff[material]\nname = sto\n")
        out = tmp_path / "out"
        assert main(["material", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"qpamp: config error: cannot read config file {str(cfg)!r}: ")
        assert not out.exists()

    def test_nul_in_output_path_is_config_error(self, tmp_path, capsys):
        path = str(tmp_path / "a\0b")
        assert main(["material", "--override", f"output.path={path}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["qpamp: config error: [output] path: a path cannot contain a NUL byte"]
        assert not any(tmp_path.iterdir())

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

    @pytest.mark.parametrize(
        "section, key",
        [(s, k) for s, keys in _KEYS.items() for k, spec in keys.items() if spec.scale != 1.0],
    )
    def test_scaled_value_out_of_range_names_its_key(self, tmp_path, capsys, section, key):
        # Finite in display units, but inf (scale > 1) or 0 (scale < 1) in SI.
        value = "1e308" if _KEYS[section][key].scale > 1.0 else "5e-324"
        rc = main(["design", "--out", str(tmp_path), "--override", f"{section}.{key}={value}"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"[{section}] {key}" in err[0], err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "key, rule",
        [
            ("loss_a1", "must be finite and non-negative"),
            ("debye_temp_k", "must be finite and positive"),
            ("loss_a3", "must be finite and non-negative"),
        ],
    )
    def test_negative_material_value_names_its_key(self, tmp_path, capsys, key, rule):
        rc = main(["design", "--out", str(tmp_path), "--override", f"material.{key}=-1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"qpamp: config error: [material] {key}: {rule}, got -1.0"], err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                ["material.temperature_k=50"],
                "[material] debye_temp_k, temperature_k: low-temperature model requires "
                "temperature_k = 50.0 < debye_temp_k = 175.0 / 10",
            ),
            (
                ["material.defect_density=1"],
                "[material] loss_a3, defect_density: defect_density = 1.0 > 0 requires the "
                "charged-defect loss coefficient loss_a3 = None",
            ),
            (
                [
                    "material.name=custom",
                    "material.eps00_rel=2000",
                    "material.curie_temp_k=50",
                    "material.debye_temp_k=100",
                    "material.renorm_field_v_per_um=1",
                    "material.inhomogeneity=0.01",
                    "material.loss_a1=0",
                    "material.loss_a2=0",
                ],
                "[material] curie_temp_k, debye_temp_k: material parameters give eta = -0.5, "
                "outside the quantum-paraelectric model, which needs eta > 0 "
                "(debye_temp_k = 100.0 > 4 * curie_temp_k = 50.0 at T = 0)",
            ),
        ],
        ids=["low_temperature", "defects_without_a3", "custom_eta"],
    )
    def test_material_rule_names_its_keys(self, tmp_path, capsys, overrides, message):
        argv = ["design", "--out", str(tmp_path)]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"qpamp: config error: {message}"]
        assert not any(tmp_path.iterdir())

    def test_unknown_material_shortcut_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["design", "--out", str(tmp_path), "--material", "foo"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "qpamp design: error: argument --material: invalid choice: 'foo' "
            "(choose from 'sto', 'kto')"
        )

    @pytest.mark.parametrize(
        "overrides, code, message",
        [
            (
                ["material.name=foo"],
                2,
                "config error: [material] name: must be one of sto, kto, custom, got 'foo'",
            ),
            (
                ["geometry.thickness_nm=-1"],
                2,
                "config error: [geometry] thickness_nm: must be finite and positive, got -1.0",
            ),
            (
                ["circuit.q_ext=-1"],
                2,
                "config error: [circuit] q_ext: must be finite and positive, got -1.0",
            ),
            (
                ["gain.half_span_kappa=-1"],
                2,
                "config error: [gain] half_span_kappa: must be finite and positive, got -1.0",
            ),
            (
                ["material.loss_a3=-1"],
                2,
                "config error: [material] loss_a3: must be finite and non-negative, got -1.0",
            ),
            # kappa_ext = omega0 / q_ext overflows: a valid config whose rate breaks RateBudget.
            (["circuit.q_ext=1e-300"], 3, "error: rate 'kappa_ext' must be finite and positive"),
        ],
        ids=["material_name", "thickness", "q_ext", "half_span_kappa", "loss_a3",
             "kappa_ext_overflow"],
    )
    def test_message_is_pinned(self, tmp_path, capsys, overrides, code, message):
        argv = ["design", "--out", str(tmp_path)]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == code
        assert capsys.readouterr().err.splitlines() == [f"qpamp: {message}"]
        assert not any(tmp_path.iterdir())

    def test_negative_drive_amplitude_names_its_key(self, tmp_path, capsys):
        rc = main(["design", "--out", str(tmp_path), "--override", "drive.v_ac_mv=-1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["qpamp: config error: [drive] v_ac_mv: must be finite and non-negative, "
                       "got -1.0"], err
        assert not any(tmp_path.iterdir())

    def test_non_finite_drive_phase_names_its_key(self):
        # The parser already refuses 'nan'; the chain-object rule is reported the same way.
        config = load_config()
        config["drive"]["theta_rad"] = math.nan
        with pytest.raises(ConfigurationError) as excinfo:
            command_run(config, "design")
        assert str(excinfo.value) == "[drive] theta_rad: must be finite, got nan"

    @pytest.mark.parametrize(
        "command, sweep, message",
        [
            (
                "sweep",
                ("bias_voltage", "5", "1", "5", "linear"),
                "[sweep] min, max: range is empty: min = 5.0 mV must be < max = 1.0 mV",
            ),
            (
                "design",
                ("bias_voltage", "5", "1", "1", "linear"),
                "[sweep] min, max: search range is empty: min = 5.0 mV must be < max = 1.0 mV",
            ),
            (
                "sweep",
                ("bias_voltage", "0", "1", "0", "linear"),
                "[sweep] count: must be >= 1, got 0",
            ),
            (
                "sweep",
                ("plate_separation", "0", "1000", "3", "log"),
                "[sweep] min: must be > 0 for log spacing, got 0.0 nm",
            ),
            (
                "material",
                ("bias_field", "1e305", "1e306", "3", "linear"),
                "[sweep] min: 1e+305 is out of floating-point range in SI units",
            ),
            (
                "sweep",
                ("plate_separation", "0", "1000", "3", "linear"),
                "[sweep] min: must be > 0 for plate_separation, got 0.0 nm",
            ),
            (
                "sweep",
                ("plate_separation", "-100", "1000", "3", "linear"),
                "[sweep] min: must be > 0 for plate_separation, got -100.0 nm",
            ),
            (
                "gain",
                ("pump_ratio", "-0.5", "0.5", "3", "linear"),
                "[sweep] min: must be >= 0 for pump_ratio, got -0.5",
            ),
            (
                "sweep",
                ("foo", "0", "1", "3", "linear"),
                "[sweep] variable: must be one of bias_voltage, bias_field, plate_separation, "
                "pump_ratio, got 'foo'",
            ),
            (
                "sweep",
                ("bias_voltage", "0", "1", "3", "cubic"),
                "[sweep] spacing: must be one of linear, log, got 'cubic'",
            ),
        ],
    )
    def test_sweep_rule_names_its_keys_in_display_units(
        self, tmp_path, capsys, command, sweep, message
    ):
        keys = ("variable", "min", "max", "count", "spacing")
        overrides = [f"--override=sweep.{key}={value}" for key, value in zip(keys, sweep)]
        assert main([command, "--out", str(tmp_path), *overrides]) == 2
        assert capsys.readouterr().err.splitlines() == [f"qpamp: config error: {message}"]
        assert not any(tmp_path.iterdir())

    def test_even_gain_count_rejected(self, tmp_path, capsys):
        # An even grid has no sample on the pumped center, so no 3-dB width.
        assert main(["gain", "--out", str(tmp_path), "--override", "gain.count=800"]) == 2
        assert "[gain] count" in capsys.readouterr().err
        assert not (tmp_path / "gain.csv").exists()


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

    def test_lossless_film_reports_infinite_q_int(self, tmp_path, capsys):
        # q_int is one of the two documented non-finite values: inf without internal loss.
        argv = ["design", "--out", str(tmp_path)]
        argv += ["--override", "material.loss_a1=0", "--override", "material.loss_a2=0"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        values = read_kv(tmp_path / "design.kv")
        assert values.pop("material") == "sto" and values.pop("q_int") == "inf"
        assert float(values["kappa_int_mhz"]) == 0.0
        assert all(math.isfinite(float(value)) for value in values.values()), values
        report = (tmp_path / "design.txt").read_text().splitlines()
        assert "internal quality factor".ljust(50) + "inf" in report


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

    @pytest.mark.parametrize(
        "renorm_field, warns", [("100", True), ("1.93", False)], ids=["edge", "inside"]
    )
    def test_geometry_sweep_optimum_on_edge_warns(self, tmp_path, capsys, renorm_field, warns):
        # A stiff crystal (E_N = 100 V/um) peaks beyond the fixed 1.25 V/um field window.
        argv = ["sweep", "--material", "sto"]
        for item in (
            "sweep.variable=plate_separation",
            "sweep.min=200",
            "sweep.max=2000",
            "sweep.count=2",
            f"material.renorm_field_v_per_um={renorm_field}",
        ):
            argv += ["--override", item]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        _, columns, rows = read_table(tmp_path / "sweep.csv")
        v0_mv = column(columns, rows, "v0_max_mv")
        if warns:
            assert err == (
                "qpamp: warning: working-point field 1.25 V/um is on the edge of the search "
                "window of the plate-separation sweep; |xi| may peak outside it\n"
            )
            assert v0_mv[0] == 250.0
        else:
            assert err == ""
            assert v0_mv[0] < 249.0


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
        run = command_run(cfg, "gain")
        best = maximize_3wm(run.design, run.circuit, run.drive, v_range=(0.0, 0.25))
        rates = rate_budget(best.v0_max, run.design, run.circuit)
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

    def test_ratios_from_pump_ratio_sweep_from_zero(self, tmp_path):
        # A pump-ratio sweep may start at 0, the unpumped resonator.
        overrides = ["sweep.variable=pump_ratio", "sweep.min=0", "sweep.max=0.5",
                     "sweep.count=3", "gain.count=5"]
        argv = ["gain", "--out", str(tmp_path)]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 0
        _, columns, rows = read_table(tmp_path / "gain.csv")
        assert sorted(set(column(columns, rows, "xi_ratio"))) == [0.0, 0.25, 0.5]

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


# (command, [sweep] entries) whose table has a non-finite cell.  Biases up to 1e300 mV
# (fields up to 1e300 V/um for `material`) overflow the normalised field: the chain gives
# NaN there, and no numpy warning reaches stderr.  Films up to 1e200 nm underflow the
# zero-bias K_eff to 0, so xi_over_keff is inf.
OVERFLOW = ("min=0", "max=1e300", "count=5")
NON_FINITE = {
    "sweep": ("sweep", "variable=bias_voltage", *OVERFLOW),
    "design": ("design", "variable=bias_voltage", *OVERFLOW),
    "gain": ("gain", "variable=bias_voltage", *OVERFLOW),
    "material": ("material", "variable=bias_field", *OVERFLOW),
    "plate_separation": (
        "sweep", "variable=plate_separation", "min=100", "max=1e200", "count=9", "spacing=log"
    ),
}


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

    @pytest.mark.parametrize("run", NON_FINITE.values(), ids=NON_FINITE)
    def test_non_finite_results_exit_3(self, tmp_path, capsys, run):
        command, *overrides = run
        argv = [command, "--out", str(tmp_path)]
        for item in overrides:
            argv += ["--override", f"sweep.{item}"]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "not finite" in err[0]
        assert not any(tmp_path.iterdir())

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


# Overrides whose chain overflows, divides by zero or gives non-finite cells.
NUMERICAL_FAILURES = {
    "v_ac_overflow": ["design", "--override", "drive.v_ac_mv=1e300"],
    "renorm_field_underflow": ["design", "--override", "material.renorm_field_v_per_um=1e-300"],
    "inhomogeneity_overflow": ["material", "--override", "material.inhomogeneity=1e300"],
    "field_sweep_overflow": [
        "material",
        "--override",
        "sweep.variable=bias_field",
        "--override",
        "sweep.min=0",
        "--override",
        "sweep.max=1e300",
        "--override",
        "sweep.count=3",
    ],
    "eps00_overflow": ["material", "--override", "material.eps00_rel=1e308"],
    "gain_span_overflow": ["gain", "--override", "gain.half_span_kappa=1e300"],
    # kappa_int = omega0 tan(delta) overflows before the rate budget is built.
    "kappa_int_overflow_design": ["design", "--override", "material.loss_a2=1e308"],
    "kappa_int_overflow_gain": ["gain", "--override", "material.loss_a2=1e308"],
    # v_zpf**4 underflows, so K_eff is 0 at the working point.
    "k_eff_underflow": ["design", "--override", "circuit.inductance_nh=1e300"],
    # v_zpf**2 underflows, so |xi| is 0 on the whole search grid.
    "xi_underflow": ["design", "--override", "geometry.area_um2=1e300"],
    # kappa_ext = omega0 / q_ext is huge, so the compression power overflows to inf.
    "power_overflow": ["design", "--override", "circuit.q_ext=1e-200"],
    # |xi| ~ v_ac is huge and K_eff tiny, so |xi|/K_eff and the pump occupation overflow to inf.
    "pump_photons_overflow": [
        "design",
        "--override",
        "drive.v_ac_mv=1e300",
        "--override",
        "circuit.inductance_nh=1e100",
    ],
    # kappa_ext = omega0 / q_ext underflows to 0: a valid config whose rate breaks RateBudget.
    "kappa_ext_underflow_design": [
        "design",
        "--override",
        "circuit.q_ext=1e300",
        "--override",
        "circuit.inductance_nh=1e100",
    ],
    "kappa_ext_underflow_gain": [
        "gain",
        "--override",
        "circuit.q_ext=1e300",
        "--override",
        "circuit.inductance_nh=1e100",
    ],
}


@pytest.mark.parametrize("argv", NUMERICAL_FAILURES.values(), ids=NUMERICAL_FAILURES)
def test_numerical_failure_exits_3_with_one_line(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("qpamp: error:"), err
    assert not any(tmp_path.iterdir())


def test_an_overflowing_pump_occupation_is_named(tmp_path, capsys):
    # (q_ac / 2 q_zpf)**2 is taken as a product, so it overflows to inf on floats, which
    # `design` reports by name; `gain` writes no pump occupation and runs.
    override = ["--override", "drive.v_ac_mv=3.7e157"]
    assert main(["design", "--out", str(tmp_path / "design"), *override]) == 3
    assert capsys.readouterr().err == (
        "qpamp: error: design table column 'pump_photons' is not finite\n"
    )
    assert main(["gain", "--out", str(tmp_path / "gain"), *override]) == 0


@pytest.mark.parametrize("span", ["1e167", "1e290"])
def test_a_huge_gain_span_squares_to_inf(tmp_path, span):
    # Far off resonance (kappa/2 + i dw)**2 overflows; as a product it gives R = -1 there.
    argv = ["gain", "--override", f"gain.half_span_kappa={span}", "--override", "gain.count=5"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    _, columns, rows = read_table(tmp_path / "gain.csv")
    assert [row[columns.index("re_R")] for row in rows[:2]] == [-1.0, -1.0]


def test_k_eff_underflow_fails_only_the_design(tmp_path, capsys):
    override = ["--override", "circuit.inductance_nh=1e300"]
    assert main(["design", "--out", str(tmp_path / "design"), *override]) == 3
    assert "k_eff must be positive" in capsys.readouterr().err
    # Neither the gain curves nor the sweep table read K_eff.
    for command in ("gain", "sweep"):
        assert main([command, "--out", str(tmp_path / command), *override]) == 0


# Search windows where adjacent doubles lie more than the search's 1 uV resolution apart:
# the golden-section search must still end (a fresh process bounds the wait). The
# plate-separation table then fails: the zero-bias K_eff of its 1e191 m film underflows to 0.
FAR_APART = {
    "design_1e13_mv": (
        ["design", "--override", "sweep.variable=bias_voltage", "--override", "sweep.min=1e13",
         "--override", "sweep.max=2e13", "--override", "sweep.count=2"],
        0,
    ),
    "plate_separation_1e200_nm": (
        ["sweep", "--override", "sweep.variable=plate_separation", "--override", "sweep.min=100",
         "--override", "sweep.max=1e200", "--override", "sweep.count=9",
         "--override", "sweep.spacing=log"],
        3,
    ),
}


@pytest.mark.parametrize("argv, code", FAR_APART.values(), ids=FAR_APART)
def test_search_ends_where_doubles_are_far_apart(tmp_path, argv, code):
    result = cli_process([*argv, "--out", str(tmp_path)], timeout=60)
    assert result.returncode == code, result.stderr
    if code == 3:
        err = result.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("qpamp: error:"), err


@pytest.mark.parametrize("command", ["design", "material"])
def test_underflowing_inhomogeneity_runs_as_an_ideal_crystal(tmp_path, command):
    # inhomogeneity**2 underflows to 0, so every cell equals that of an ideal crystal.
    cells = []
    for value in ("1e-200", "0"):
        out = tmp_path / value
        argv = [command, "--out", str(out), "--override", f"material.inhomogeneity={value}"]
        assert main(argv) == 0
        text = (out / OUTPUT_FILES[command]).read_text()
        cells.append([line for line in text.splitlines() if not line.startswith("#")])
    assert cells[0] == cells[1]


@pytest.mark.parametrize(
    "override",
    [
        "drive.v_ac_mv=-1",
        "gain.half_span_kappa=-1",
        "gain.count=800",
        "geometry.area_um2=-1",
        "circuit.q_ext=0",
    ],
)
@pytest.mark.parametrize("command", ["material", "design", "gain", "sweep"])
def test_every_command_checks_every_section(tmp_path, capsys, command, override):
    # A section's rules do not depend on whether the command reads it.
    assert main([command, "--out", str(tmp_path), "--override", override]) == 2
    section, key = override.partition("=")[0].split(".")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"[{section}] {key}" in err[0], err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["material", "design", "gain", "sweep"])
def test_every_command_checks_the_sweep_section(tmp_path, capsys, command):
    # Even a command that falls back to its own [sweep] refuses an invalid one.
    sweep = {"variable": "bias_field", "min": "5", "max": "1", "count": "3"}
    overrides = [f"--override=sweep.{key}={value}" for key, value in sweep.items()]
    assert main([command, "--out", str(tmp_path), *overrides]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("qpamp: config error: [sweep] min, max: "), err
    assert not any(tmp_path.iterdir())


# A valid [sweep] per variable, each distinct from every command's fallback.
MATRIX_SWEEPS = {
    "bias_voltage": ("10", "200"),
    "bias_field": ("0.5", "4"),
    "plate_separation": ("100", "1000"),
    "pump_ratio": ("0.25", "0.75"),
}
FIELD_FALLBACK = ["variable = bias_field", "min = 0.0", "max = 5.0", "count = 201",
                  "spacing = linear"]
BIAS_FALLBACK = ["variable = bias_voltage", "min = 0.0", "max = 250.0", "count = 201",
                 "spacing = linear"]
OUTPUT_FILES = {"material": "material.csv", "design": "design.kv", "gain": "gain.csv",
                "sweep": "sweep.csv"}


def echoed_section(path, section):
    """The key = value lines echoed for one section in an output file's header."""
    lines, inside = [], False
    for line in path.read_text().splitlines():
        if not line.startswith("#"):
            break
        text = line[1:].strip()
        if text.startswith("["):
            inside = text == f"[{section}]"
        elif inside and text:
            lines.append(text)
    return lines


@pytest.mark.parametrize("variable", [None, *MATRIX_SWEEPS])
@pytest.mark.parametrize("command", ["material", "design", "gain", "sweep"])
def test_command_sweep_matrix(tmp_path, capsys, command, variable):
    """Which [sweep] each command runs on, for no [sweep] and for one of each variable."""
    argv = [command, "--out", str(tmp_path), "--override", "gain.count=5"]
    given = None
    if variable is not None:
        lo, hi = MATRIX_SWEEPS[variable]
        given = [f"variable = {variable}", f"min = {float(lo)}", f"max = {float(hi)}",
                 "count = 3", "spacing = linear"]
        for key, value in (("variable", variable), ("min", lo), ("max", hi), ("count", "3")):
            argv += ["--override", f"sweep.{key}={value}"]
    reads = {"material": ("bias_field",), "design": ("bias_voltage",),
             "gain": ("bias_voltage",), "sweep": ("bias_voltage", "plate_separation")}[command]
    rc = main(argv)

    if command == "sweep" and variable in ("bias_field", "pump_ratio"):
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"variable {variable!r} is not sweepable here" in err[0], err
        assert not any(tmp_path.iterdir())
        return
    assert rc == 0
    path = tmp_path / OUTPUT_FILES[command]
    fallback = FIELD_FALLBACK if command == "material" else BIAS_FALLBACK
    assert echoed_section(path, "sweep") == (given if variable in reads else fallback)
    from_sweep = command == "gain" and variable == "pump_ratio"
    ratios = "0.25, 0.5, 0.75" if from_sweep else "0.5, 0.9, 0.99"
    assert f"xi_ratio = {ratios}" in echoed_section(path, "gain")


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

    @staticmethod
    def _loaded_after(packages, steps, out_dir):
        """The modules of ``packages`` loaded after each step, run in turn in a fresh interpreter.

        A step is a module name to import, a CLI argument list run with ``--out out_dir``,
        or a ``{"name": ..., "code": ...}`` snippet of Python to execute.
        """
        script = (
            "import importlib, json, sys\n"
            "packages, out, steps = sys.argv[1].split(','), sys.argv[2], json.loads(sys.argv[3])\n"
            "seen = {}\n"
            "for step in steps:\n"
            "    if isinstance(step, str):\n"
            "        importlib.import_module(step)\n"
            "        name = step\n"
            "    elif isinstance(step, dict):\n"
            "        exec(step['code'], {})\n"
            "        name = step['name']\n"
            "    else:\n"
            "        name = ' '.join(step)\n"
            "        if importlib.import_module('qpamp.cli').main([*step, '--out', out]) != 0:\n"
            "            seen[name] = 'failed'\n"
            "            continue\n"
            "    seen[name] = sorted(m for m in sys.modules if m.split('.')[0] in packages)\n"
            "print(json.dumps(seen))\n"
        )
        src = str(Path(qpamp.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-c", script, ",".join(packages), str(out_dir), json.dumps(steps)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    # The 13-row log plate-separation table, which runs on Python floats.
    GEOMETRY = ["--override=sweep.variable=plate_separation", "--override=sweep.min=100",
                "--override=sweep.max=100000", "--override=sweep.count=13",
                "--override=sweep.spacing=log"]
    # The crystals of the library-path checks: STO, KTO and an ideal STO (lam_s = 0).
    CRYSTALS = "(qpamp.STO, qpamp.KTO, qpamp.STO._replace(inhomogeneity=0.0))"

    def test_commands_run_without_scipy(self, tmp_path):
        # Neither the import nor any command loads scipy.
        steps = ["qpamp.cli", ["material"], ["design"], ["gain"], ["sweep"],
                 ["sweep", *self.GEOMETRY]]
        seen = self._loaded_after(("scipy",), steps, tmp_path)
        names = [step if isinstance(step, str) else " ".join(step) for step in steps]
        assert seen == {k: [] for k in names}

    def test_import_and_design_run_without_numpy(self, tmp_path):
        # No command loads numpy: `gain` and the bias-voltage sweep build their rows on Python
        # floats too, while the library's `profile_from_rates` and `bias_sweep` use arrays.
        field_table = ["--override=sweep.variable=bias_field", "--override=sweep.min=0",
                       "--override=sweep.max=10", "--override=sweep.count=401"]
        pump_ratios = ["--override=sweep.variable=pump_ratio", "--override=sweep.min=0.5",
                       "--override=sweep.max=0.9", "--override=sweep.count=3"]
        steps = [
            "qpamp",
            "qpamp.cli",
            ["design", "--material", "sto"],
            ["design", "--material", "kto"],
            ["material"],
            ["material", *field_table],
            ["sweep", *self.GEOMETRY],
            ["gain", "--material", "sto"],
            ["gain", "--material", "kto", *pump_ratios],
            ["sweep"],
        ]
        seen = self._loaded_after(("numpy", "scipy"), steps, tmp_path)
        names = [step if isinstance(step, str) else " ".join(step) for step in steps]
        assert seen == {k: [] for k in names}

    def test_import_and_float_commands_load_neither_dataclasses_nor_inspect(self, tmp_path):
        # The records are defined without the dataclasses machinery, which loads inspect.
        steps = [
            "qpamp",
            "qpamp.cli",
            ["design", "--material", "sto"],
            ["design", "--material", "kto"],
            ["material"],
            ["sweep", *self.GEOMETRY],
        ]
        seen = self._loaded_after(("dataclasses", "inspect"), steps, tmp_path)
        names = [step if isinstance(step, str) else " ".join(step) for step in steps]
        assert seen == {k: [] for k in names}

    def test_configparser_loads_only_for_a_config_file(self, tmp_path):
        # Only a --config run reads an INI file; the import and other commands skip its parser.
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[geometry]\nthickness_nm = 200\n")
        steps = ["qpamp.cli", ["design", "--material", "sto"], ["material"],
                 ["design", "--config", str(cfg)]]
        seen = self._loaded_after(("configparser",), steps, tmp_path)
        assert seen == {
            "qpamp.cli": [],
            "design --material sto": [],
            "material": [],
            f"design --config {cfg}": ["configparser"],
        }

    def test_charge_path_runs_without_scipy_or_numpy(self, tmp_path):
        # Charge, energy, inversion and expansion sum a fixed rule on Python floats.
        code = (
            "import qpamp\n"
            f"for material in {self.CRYSTALS}:\n"
            "    design = qpamp.VaractorDesign(16e-12, 200e-9, material)\n"
            "    q = qpamp.charge(0.1, design)\n"
            "    qpamp.energy(0.1, design)\n"
            "    assert abs(qpamp.voltage_from_charge(q, design) - 0.1) < 1e-12\n"
            "    qpamp.energy_and_derivatives(0.1, design)\n"
        )
        step = {"name": "charge path", "code": code}
        assert self._loaded_after(("numpy", "scipy"), [step], tmp_path) == {"charge path": []}

    def test_scalar_amplifier_path_runs_without_numpy(self, tmp_path):
        # One rate budget, R at the pumped centre and the compression estimate are floats.
        code = (
            "import qpamp\n"
            "circuit = qpamp.CircuitParams(0.5e-9, 100.0)\n"
            f"for material in {self.CRYSTALS}:\n"
            "    design = qpamp.VaractorDesign(16e-12, 200e-9, material)\n"
            "    rates = qpamp.rate_budget(0.1, design, circuit)\n"
            "    r = qpamp.reflection(rates.omega_p / 2.0, 0.5 * rates.kappa / 2.0, rates)\n"
            "    assert type(r) is complex and abs(r) > 1.0, r\n"
            "    qpamp.compression_estimate(qpamp.kerr_strength(0.1, design, circuit), rates)\n"
        )
        step = {"name": "amplifier path", "code": code}
        assert self._loaded_after(("numpy", "scipy"), [step], tmp_path) == {"amplifier path": []}

    def test_console_script_is_wired(self, tmp_path):
        result = cli_process(["material", "--out", str(tmp_path)])
        assert result.returncode == 0
        assert (tmp_path / "material.csv").exists()
