"""CLI: config parsing, presets, table emission, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

import thermaljcm.perturbation
from thermaljcm.cli import (
    EXIT_CONFIG,
    EXIT_NO_REVIVAL,
    EXIT_OK,
    EXIT_VALIDATION,
    PRESETS,
    ConfigError,
    build_preset,
    main,
    parse_config,
)


def small_config(**overrides):
    doc = {
        "schema": 1,
        "model": {"l": 2, "g": 1.0, "omega0": 1.0, "omega": 1.0, "alpha": 2.0},
        "thermal": {"inv_beta": 0.1},
        "grid": {"t_start": 0.0, "t_stop": 2.0, "dt": 0.05},
        "truncation": {"n_max": 40},
    }
    for key, value in overrides.items():
        doc[key] = value
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigParsing:
    def test_round_trip_is_canonical(self):
        cfg = parse_config(small_config())
        again = parse_config(cfg.canonical())
        assert again == cfg
        assert again.canonical() == cfg.canonical()

    def test_complex_amplitude(self):
        doc = small_config()
        doc["model"]["alpha"] = [1.2, -0.5]
        cfg = parse_config(doc)
        assert cfg.params.alpha == 1.2 - 0.5j
        assert parse_config(cfg.canonical()) == cfg

    @pytest.mark.parametrize("mutate, path_fragment", [
        (lambda d: d.__setitem__("schema", 99), "schema"),
        (lambda d: d.pop("model"), "model"),
        (lambda d: d["model"].__setitem__("l", 0), "model.l"),
        (lambda d: d["model"].__setitem__("l", 2.5), "model.l"),
        (lambda d: d["model"].__setitem__("g", "strong"), "model.g"),
        (lambda d: d["model"].pop("omega"), "model.omega"),
        (lambda d: d["thermal"].__setitem__("inv_beta", -0.1), "thermal.inv_beta"),
        (lambda d: d["thermal"].__setitem__("inv_beta_grid", []), "inv_beta_grid"),
        (lambda d: d["grid"].__setitem__("dt", 0.0), "grid.dt"),
        (lambda d: d["truncation"].__setitem__("n_max", 0), "truncation.n_max"),
        (lambda d: d["output"].__setitem__("format", "xml")
         if "output" in d else d.__setitem__("output", {"format": "xml"}), "output.format"),
        (lambda d: d.__setitem__("extra", {}), "unknown"),
        # json.load admits NaN and Infinity; none of them is a usable number
        (lambda d: d.__setitem__("grid", {"t_stop": math.nan}), "grid.t_stop"),
        (lambda d: d["grid"].__setitem__("t_stop", math.inf), "grid.t_stop"),
        (lambda d: d["model"].__setitem__("g", math.nan), "model.g"),
        (lambda d: d["model"].__setitem__("g", 10**400), "model.g"),
        (lambda d: d["model"].__setitem__("alpha", [True, False]), "model.alpha"),
        (lambda d: d["model"].__setitem__("alpha", [1.0, math.inf]), "model.alpha"),
        (lambda d: d["model"].__setitem__("alpha", -math.inf), "model.alpha"),
        (lambda d: d["thermal"].__setitem__("inv_beta_grid", [0.1, math.inf]),
         r"inv_beta_grid\[1\]"),
    ])
    def test_field_errors_carry_paths(self, mutate, path_fragment):
        doc = small_config()
        mutate(doc)
        with pytest.raises(ConfigError, match=path_fragment):
            parse_config(doc)

    def test_all_presets_parse(self):
        for name in PRESETS:
            cfg = parse_config(build_preset(name))
            assert cfg.params.g == 1.0

    def test_preset_parameters_match_captions(self):
        checks = {
            "fig1a": (1, 6.0, 110), "fig1b": (2, 7.0, 110),
            "fig1c": (3, 7.0, 110), "fig1d": (4, 8.0, 110),
            "fig2": (1, 0.2, 80),
            "fig3a": (1, 12.0, 250), "fig3b": (2, 12.0, 250),
            "fig3c": (3, 12.0, 250), "fig3d": (4, 12.0, 250),
            "fig4a": (1, 12.0, 250), "fig4b": (2, 12.0, 250),
            "fig4c": (3, 12.0, 250), "fig4d": (4, 12.0, 250),
        }
        assert set(checks) == set(PRESETS)
        for name, (l, alpha, n_max) in checks.items():
            cfg = parse_config(build_preset(name))
            assert (cfg.params.l, cfg.params.alpha, cfg.n_max) == (l, alpha, n_max)
            assert cfg.params.delta == l - 1  # caption detunings

    def test_fig1b_preset_shows_collapse_and_revival(self, tmp_path):
        out = tmp_path / "fig1b.csv"
        assert main(["pe-series", "--preset", "fig1b", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()[1:]
        t = np.array([float(line.split(",")[0]) for line in lines])
        pe = np.array([float(line.split(",")[1]) for line in lines])
        plateau = np.abs(pe[(t > 1.0) & (t < 1.5)] - 0.5).max()
        revival = np.abs(pe[(t > 2.9) & (t < 3.4)] - 0.5).max()
        assert revival > 1.5 * plateau  # collapse then revival near t ~ 3.14


class TestPeSeries:
    def test_single_point_at_t_zero(self, tmp_path, capsys):
        doc = small_config(grid={"t_start": 0.0, "t_stop": 0.0, "dt": 0.1})
        rc = main(["pe-series", "--config", write_config(tmp_path, doc)])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",")[0] == "t"
        row = lines[1].split(",")
        beta = 1.0 / 0.1
        expected = math.exp(-beta) / (1.0 + math.exp(-beta))
        assert float(row[1]) == pytest.approx(expected, abs=1e-12)
        assert row[5] == "1"

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, small_config())
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["pe-series", "--config", path, "--out", out1]) == EXIT_OK
        assert main(["pe-series", "--config", path, "--out", out2]) == EXIT_OK
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_oracle_column_when_requested(self, tmp_path, capsys):
        doc = small_config(grid={"t_start": 0.0, "t_stop": 0.5, "dt": 0.1})
        rc = main(["pe-series", "--config", write_config(tmp_path, doc),
                   "--with-oracle"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        assert header[-1] == "pe_oracle"
        for line in lines[1:]:
            vals = line.split(",")
            # series and exact column agree to the perturbative residual
            assert float(vals[1]) == pytest.approx(float(vals[6]), abs=1e-5)

    def test_oracle_column_skipped_above_threshold(self, tmp_path, capsys):
        doc = small_config(grid={"t_start": 0.0, "t_stop": 0.3, "dt": 0.1},
                           truncation={"n_max": 110})
        doc["model"]["alpha"] = 7.0
        rc = main(["pe-series", "--config", write_config(tmp_path, doc),
                   "--with-oracle"])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        assert "pe_oracle" not in captured.out.splitlines()[0]
        assert "threshold" in captured.err

    def test_small_amplitude_bound(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "model": {"l": 2, "g": 1.0, "omega0": 1.0, "omega": 1.0, "alpha": 0.2},
            "thermal": {"inv_beta": 0.1},
            "grid": {"t_start": 0.0, "t_stop": 100.0, "dt": 0.05},
            "truncation": {"n_max": 80},
        }
        rc = main(["pe-series", "--config", write_config(tmp_path, doc)])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        peak = max(float(line.split(",")[1]) for line in lines)
        assert peak < 8.0e-4

    def test_json_format(self, tmp_path, capsys):
        doc = small_config(grid={"t_start": 0.0, "t_stop": 0.2, "dt": 0.1})
        rc = main(["pe-series", "--config", write_config(tmp_path, doc),
                   "--format", "json"])
        assert rc == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["columns"][0] == "t"
        assert len(data["rows"]) == 3

    def test_rejects_temperature_grid(self, tmp_path, capsys):
        doc = small_config(thermal={"inv_beta_grid": [0.0, 0.1]})
        rc = main(["pe-series", "--config", write_config(tmp_path, doc)])
        assert rc == EXIT_CONFIG


class TestPeriodSweep:
    def test_no_revival_everywhere_exits_4(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "model": {"l": 1, "g": 1.0, "omega0": 1.0, "omega": 1.0, "alpha": 0.2},
            "thermal": {"inv_beta_grid": [0.1]},
            "grid": {"dt": 0.02},
            "truncation": {"n_max": 80},
        }
        rc = main(["period-sweep", "--config", write_config(tmp_path, doc)])
        assert rc == EXIT_NO_REVIVAL
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].split(",")[-1] == "no-revival"
        assert lines[1].split(",")[1] == "nan"

    def test_zero_temperature_prior_equals_cold_period(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "model": {"l": 2, "g": 1.0, "omega0": 1.0, "omega": 1.0, "alpha": 7.0},
            "thermal": {"inv_beta_grid": [0.0]},
            "truncation": {"n_max": 110},
        }
        rc = main(["period-sweep", "--config", write_config(tmp_path, doc)])
        assert rc == EXIT_OK
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(math.pi, rel=1e-12)
        assert row[4] == "ok"


class TestCoherenceMap:
    def test_zero_time_rows_have_no_coherence(self, tmp_path, capsys):
        doc = small_config(thermal={"inv_beta_grid": [0.0, 0.1]},
                           grid={"t_start": 0.0, "t_stop": 0.3, "dt": 0.1})
        rc = main(["coherence-map", "--config", write_config(tmp_path, doc)])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            vals = line.split(",")
            if float(vals[0]) == 0.0:
                assert float(vals[2]) == 0.0
                assert float(vals[4]) == 0.0


class TestApproxCheck:
    def test_table_and_exact_t_zero(self, tmp_path, capsys):
        doc = small_config()
        doc["model"]["alpha"] = 6.0
        doc["model"]["l"] = 1
        doc["grid"] = {"t_start": 0.0, "t_stop": 0.5, "dt": 0.1}
        rc = main(["approx-check", "--config", write_config(tmp_path, doc)])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,lhs,rhs,abs_dev"
        first = lines[1].split(",")
        assert float(first[3]) < 1e-10


class TestOracleValidate:
    def test_default_suite_passes(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["oracle-validate", "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert any(name.startswith("theta_scaling_pe") for name in names)
        assert any(name.startswith("tilde_series_vs_fock") for name in names)

    def test_corrupted_series_fails_named_check(self, tmp_path, monkeypatch):
        real = thermaljcm.perturbation.series_tables

        def corrupted(*args, **kwargs):
            tables = real(*args, **kwargs)
            if tables.tilde is not None:
                tables._rho01_arrays  # P_e and rho01 keep the true series
                tables.tilde[1, 1] *= 1.05  # wrong polynomial coefficient, in effect
            return tables

        monkeypatch.setattr(thermaljcm.perturbation, "series_tables", corrupted)
        out = tmp_path / "report.json"
        rc = main(["oracle-validate", "--out", str(out)])
        assert rc == EXIT_VALIDATION
        report = json.loads(out.read_text())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failed
        assert all("tilde_series_vs_fock[j=2,k=1" in name for name in failed)

    def test_rejects_large_amplitude(self, tmp_path, capsys):
        doc = small_config()
        doc["model"]["alpha"] = 7.0
        rc = main(["oracle-validate", "--config", write_config(tmp_path, doc)])
        assert rc == EXIT_CONFIG


class TestErrorPaths:
    def test_missing_config_exits_2(self, capsys):
        assert main(["pe-series"]) == EXIT_CONFIG

    def test_unreadable_config_exits_2(self, capsys):
        assert main(["pe-series", "--config", "/nonexistent.json"]) == EXIT_CONFIG

    def test_non_finite_number_exits_2(self, tmp_path, capsys):
        doc = small_config(grid={"t_stop": math.nan})
        path = write_config(tmp_path, doc)
        assert "NaN" in open(path).read()
        assert main(["pe-series", "--config", path]) == EXIT_CONFIG
        assert "grid.t_stop" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["pe-series", "--config", str(path)]) == EXIT_CONFIG
        assert "line" in capsys.readouterr().err

    def test_preset_and_config_conflict(self, tmp_path, capsys):
        path = write_config(tmp_path, small_config())
        rc = main(["pe-series", "--preset", "fig1a", "--config", path])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("flag, value", [("--nmax", "0"), ("--dt", "0")])
    def test_invalid_flag_overrides_exit_2(self, tmp_path, capsys, flag, value):
        path = write_config(tmp_path, small_config())
        rc = main(["pe-series", "--config", path, flag, value])
        assert rc == EXIT_CONFIG

    def test_flag_overrides_apply(self, tmp_path, capsys):
        doc = small_config(grid={"t_start": 0.0, "t_stop": 1.0, "dt": 0.5})
        rc = main(["pe-series", "--config", write_config(tmp_path, doc),
                   "--dt", "0.25", "--nmax", "60"])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 5  # header + grid at the overridden dt
