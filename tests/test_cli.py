"""CLI: config parsing, presets, table emission, exit codes, determinism."""

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thermaljcm.perturbation
from thermaljcm import cli, oracle
from thermaljcm.cli import (
    EXIT_CONFIG,
    EXIT_NO_REVIVAL,
    EXIT_OK,
    EXIT_VALIDATION,
    PRESETS,
    ConfigError,
    _grid_samples,
    build_preset,
    main,
    parse_config,
)
from thermaljcm.analysis import SAMPLE_LIMIT
from thermaljcm.model import EigenvalueTable, LimitError, ModelParams, thermal_from_inv_beta
from thermaljcm.perturbation import TruncationPolicy, series_tables


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


#: what json.load can return: NaN, +-Infinity and integers past the float
#: range included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=5)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.integers() | st.integers(-(10**400), 10**400)
    | st.sampled_from([0, 1, -1, 2.5, 1e200, -1e200, 1e-320, 10**400]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["schema", "model", "thermal", "grid", "truncation",
                                       "oracle", "output", "l", "g", "alpha", "inv_beta",
                                       "n_max", "format", "x"]), children, max_size=4),
    max_leaves=12)

FIELD_PATHS = [
    ("schema",), ("model",), ("thermal",), ("grid",), ("truncation",), ("oracle",),
    ("output",),
    *[("model", key) for key in ("l", "g", "omega0", "omega", "alpha")],
    ("thermal", "inv_beta"), ("thermal", "inv_beta_grid"),
    *[("grid", key) for key in ("t_start", "t_stop", "dt")],
    *[("truncation", key) for key in ("n_max", "tail_tol", "adaptive")],
    *[("oracle", key) for key in ("with_oracle", "n_fock", "alpha_threshold")],
    ("output", "format"),
]


def huge_amplitude_doc(l, alpha, g=1.0, t_stop=1e-148):
    """A two-interval grid at zero temperature with every Poisson weight of
    the n_max = 40 series underflowed to 0."""
    doc = small_config(thermal={"inv_beta": 0.0},
                       grid={"t_start": 0.0, "t_stop": t_stop, "dt": t_stop / 2},
                       truncation={"n_max": 40, "tail_tol": 1.0})
    doc["model"].update(l=l, alpha=alpha, g=g)
    return doc


#: documents whose series prefactors are past the float range, and the field
#: to blame: 4 |alpha|^4, g^2 |alpha|^(2l) and |alpha|^(2l) at l = 4
HUGE_AMPLITUDES = [
    ({"l": 1, "alpha": 1e150}, "model.alpha"),
    ({"l": 1, "alpha": 1e9, "g": 1e150}, "model.g"),
    ({"l": 4, "alpha": 1e40, "t_stop": 1e-38}, "model.alpha"),
]


#: a P_e-only series build within the byte budget and past the work limit:
#: 2501 time samples x 400 003 photon columns, 1.0e9 (t, n) cells
WORK_1E9 = {
    "model": {"l": 1, "g": 1.0, "omega0": 1.0, "omega": 1.0, "alpha": 2.0},
    "thermal": {"inv_beta": 0.1},
    "grid": {"t_start": 0.0, "t_stop": 1.0, "dt": 0.0004},
    "truncation": {"n_max": 400_000},
}


#: a document whose series build, of 10^9 photon columns, is past the byte
#: budget; its dt is fine enough for a period sweep
NMAX_1E9 = {
    "model": {"l": 2, "g": 1.0, "omega0": 1.0, "omega": 1.0, "alpha": 2.0},
    "thermal": {"inv_beta": 0.1},
    "grid": {"t_start": 0.0, "t_stop": 2.0, "dt": 0.02},
    "truncation": {"n_max": 10**9},
}


#: a pe-series document on 11 time samples from t = 1e17, with the exact
#: solver: the float64 rounding of its Rabi phases is 32 rad
PHASE_1E17 = {
    "model": {"l": 1, "g": 1.0, "omega0": 1.0, "omega": 1.0, "alpha": 2.0},
    "thermal": {"inv_beta": 0.1},
    "grid": {"t_start": 1e17, "t_stop": 1e17 + 1e7, "dt": 1e6},
    "truncation": {"n_max": 40},
    "oracle": {"with_oracle": True},
}


#: documents whose times follow the periods, with no grid or with a grid
#: section the command does not read: l 3, alpha 1e-50, where a sweep row
#: spans 7.9e148, and g 1e9, where the validation suite's times reach 50
SWEEP_1E_50 = {"model": {"l": 3, "g": 1.0, "omega0": 1.0, "omega": 1.0, "alpha": 1e-50},
               "thermal": {"inv_beta": 0.1}, "truncation": {"n_max": 40}}
VALIDATE_G1E9 = {**SWEEP_1E_50, "model": {**SWEEP_1E_50["model"], "l": 1, "g": 1e9,
                                          "alpha": 2.0}}


#: address space of a CLI child process in the size-guard tests: room for
#: the interpreter and numpy, none for the tables a missing guard asks for
CAPPED_ADDRESS_SPACE = 2 << 30

CAPPED_CLI_SCRIPT = """
import resource, sys
cap = int(sys.argv[1])
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
if hard != resource.RLIM_INFINITY:
    cap = min(cap, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from thermaljcm.cli import main
sys.exit(main(sys.argv[2:]))
"""


def run_capped_cli(argv):
    """Run the CLI in a child process under ``CAPPED_ADDRESS_SPACE``: a size
    guard that lets a huge table through ends there in a MemoryError, not in
    a test host out of memory."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, "-c", CAPPED_CLI_SCRIPT, str(CAPPED_ADDRESS_SPACE), *argv],
        capture_output=True, text=True, env=env, timeout=120)


def run_cli(argv):
    """Exit code and stdout of an in-process run; stderr is dropped."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def assert_rejected_or_usable(doc):
    """parse_config raises ConfigError, or its config evaluates what every
    command derives from it."""
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    assert math.isfinite(cfg.params.abs_alpha_sq)
    cfg.params.delta
    cfg.trunc


class TestConfigParsing:
    def test_round_trip_is_canonical(self):
        cfg = parse_config(small_config())
        again = parse_config(cfg.canonical())
        assert again == cfg
        assert again.canonical() == cfg.canonical()

    def test_parsed_config_is_frozen(self):
        cfg = parse_config(small_config())
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.dt = 0.25

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
        (lambda d: d["model"].__setitem__("l", 10**400), "model.l"),
        (lambda d: d["model"].__setitem__("omega", 1e200), "model: omega = "),
        (lambda d: d["model"].__setitem__("omega0", 1e200), "model: omega0 = "),
        (lambda d: d["model"].__setitem__("g", "strong"), "model.g"),
        (lambda d: d["model"].pop("omega"), "model.omega"),
        (lambda d: d["thermal"].__setitem__("inv_beta", -0.1), "thermal.inv_beta"),
        (lambda d: d["thermal"].__setitem__("inv_beta_grid", []), "inv_beta_grid"),
        (lambda d: d["grid"].__setitem__("dt", 0.0), "grid.dt"),
        (lambda d: d["truncation"].__setitem__("n_max", 0), "truncation.n_max"),
        (lambda d: d["truncation"].__setitem__("tail_tol", -1e-9), "truncation.tail_tol"),
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

    @settings(max_examples=400, deadline=None)
    @given(doc=JSON_VALUES)
    def test_arbitrary_document_is_rejected_or_usable(self, doc):
        assert_rejected_or_usable(doc)

    @settings(max_examples=600, deadline=None)
    @given(path=st.sampled_from(FIELD_PATHS), value=JSON_VALUES)
    @example(path=("model", "alpha"), value=1e200)
    @example(path=("model", "alpha"), value=[1e300, -1e300])
    @example(path=("model", "l"), value=10**400)
    def test_arbitrary_field_value_is_rejected_or_usable(self, path, value):
        doc = small_config(oracle={"with_oracle": False, "n_fock": 20},
                           output={"format": "csv"})
        doc["truncation"]["adaptive"] = True
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        assert_rejected_or_usable(doc)

    @settings(max_examples=60, deadline=None)
    @given(l=st.integers(1, 200), n_max=st.integers(1, 3000))
    def test_eigenvalue_check_agrees_with_the_table(self, l, n_max):
        # a full series build is admitted at l exactly when its table, rows
        # m <= n_max + l + 2, is finite
        params = ModelParams(**{**small_config()["model"], "l": l})
        try:
            TruncationPolicy(n_max).check(params, (), True)
            admitted = True
        except LimitError as exc:
            assert exc.param == "l"
            admitted = False
        try:
            EigenvalueTable(params, n_max + l + 2)
        except ValueError:
            assert not admitted
        else:
            assert admitted

    @pytest.mark.parametrize("section", ["thermal", "grid", "truncation", "oracle", "output"])
    @pytest.mark.parametrize("value", [None, {}, False, []])
    def test_false_optional_section_reads_as_missing(self, section, value):
        # one rule for the five optional sections: null, {}, false and [] are
        # the section left out
        doc = small_config()
        doc.pop(section, None)
        missing = parse_config(doc)
        doc[section] = value
        assert parse_config(doc) == missing

    @pytest.mark.parametrize("section", ["thermal", "grid", "truncation", "oracle", "output"])
    @pytest.mark.parametrize("value", [[0.1], "x", 1, True])
    def test_optional_section_that_is_not_an_object_is_named(self, section, value):
        doc = small_config()
        doc[section] = value
        with pytest.raises(ConfigError, match=f"^{section}: must be an object$"):
            parse_config(doc)

    def test_null_thermal_section_runs_at_zero_temperature(self, tmp_path):
        # as a document without the section, like a null grid section
        doc = small_config()
        del doc["thermal"]
        missing = run_cli(["pe-series", "--config", write_config(tmp_path, doc, "a.json")])
        doc["thermal"] = None
        null = run_cli(["pe-series", "--config", write_config(tmp_path, doc, "b.json")])
        assert missing[0] == EXIT_OK
        assert null == missing

    def test_zero_tail_tolerance_is_kept_when_adaptive(self):
        doc = small_config(truncation={"n_max": 40, "tail_tol": 0, "adaptive": True})
        assert parse_config(doc).trunc.tail_tol == 0.0

    def test_all_presets_parse(self):
        for name in PRESETS:
            cfg = parse_config(build_preset(name))
            assert cfg.params.g == 1.0

    def test_unknown_preset_is_named(self):
        with pytest.raises(ConfigError, match="^preset: unknown name 'fig9'$"):
            build_preset("fig9")

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

    def test_pe_pert_is_the_sum_of_its_order_columns(self):
        # bitwise: the series' own P_e (SeriesTables.pe) sums the same terms
        # per channel first and differs in the last bits at 1904 of these
        # 3889 samples, one of them printed, so the two are not one sum
        code, (names, blocks) = cli.cmd_pe_series(parse_config(build_preset("fig1a")))
        (cols,) = blocks
        table = dict(zip(names, cols))
        total = table["pe_order0"] + table["pe_order1_contrib"] + table["pe_order2_contrib"]
        assert code == EXIT_OK and table["t"].size == 3889
        assert table["pe_pert"].tobytes() == total.tobytes()

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

    @pytest.mark.parametrize("preset, bound", [("fig1a", 6e-5), ("fig1b", 9e-5),
                                               ("fig1c", 9e-5), ("fig1d", 1.2e-4)])
    def test_fig1_presets_agree_with_the_exact_column(self, tmp_path, capsys, preset,
                                                      bound):
        # the paper's amplitudes, alpha = 6-8 at 1/beta = 0.1, over the whole
        # preset grid (1.35 revival periods)
        out = tmp_path / f"{preset}.csv"
        assert main(["pe-series", "--preset", preset, "--with-oracle",
                     "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[-1] == "pe_oracle"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.max(np.abs(rows[:, 1] - rows[:, 6])) <= bound

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

    def test_memory_holds_one_temperature_at_a_time(self, tmp_path):
        # 20 001 samples: main writes one temperature's rows and lets them go
        # before the next are made, so eight temperatures peak where two and
        # one do, within a quarter of one temperature's six columns
        samples = 20_001

        def peak(temperatures):
            doc = {"model": {"l": 1, "g": 1.0, "omega0": 1.0, "omega": 1.0, "alpha": 2.0},
                   "thermal": {"inv_beta_grid": [0.02 * i for i in range(temperatures)]},
                   "grid": {"t_start": 0.0, "t_stop": 400.0, "dt": 0.02},
                   "truncation": {"n_max": 40}}
            argv = ["coherence-map", "--config", write_config(tmp_path, doc),
                    "--out", str(tmp_path / "map.csv")]
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm: one-time allocations are in no peak
        one, two, eight = peak(1), peak(2), peak(8)
        assert (tmp_path / "map.csv").read_text().count("\n") == 1 + 8 * samples
        quarter_block = 6 * 8 * samples / 4
        assert eight <= two + quarter_block and two <= one + quarter_block


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

    def test_config_sets_the_model(self, tmp_path):
        reports = []
        for g in (1.0, 0.5):
            doc = small_config()
            doc["model"]["g"] = g
            out = tmp_path / f"report_g{g}.json"
            main(["oracle-validate", "--config", write_config(tmp_path, doc),
                  "--out", str(out)])
            reports.append(out.read_bytes())
        assert reports[0] != reports[1]

    @pytest.mark.parametrize("alpha, message", [(50.0, "limit 2048"),
                                                (1.3e154, "float range")])
    def test_cutoff_past_the_limit_exits_2(self, tmp_path, capsys, monkeypatch, alpha,
                                           message):
        def refuse(*args, **kwargs):  # the suite must not start building
            raise AssertionError("built a table or state past the cutoff limit")

        monkeypatch.setattr(oracle, "build_initial_state", refuse)
        monkeypatch.setattr(thermaljcm.perturbation, "series_tables", refuse)
        doc = small_config()
        doc["model"].update(l=1, alpha=alpha)
        path = write_config(tmp_path, doc)
        assert main(["oracle-validate", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "model.alpha" in err and message in err

    def test_multiplicity_whose_suite_eigenvalues_overflow_exits_2(self, tmp_path, capsys):
        # the document's series table ends at m = 135; the suite's adaptive
        # one at m = 307, where (m + 1)...(m + 132) overflows
        doc = small_config(truncation={"n_max": 1, "tail_tol": 1.0})
        doc["model"]["l"] = 132
        path = write_config(tmp_path, doc)
        assert main(["oracle-validate", "--config", path]) == EXIT_CONFIG
        assert "model.l" in capsys.readouterr().err

    def test_error_after_sizing_is_not_a_config_error(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("raised inside the suite")

        monkeypatch.setattr(oracle, "propagate", fail)
        path = write_config(tmp_path, small_config())
        with pytest.raises(ValueError, match="inside the suite"):
            main(["oracle-validate", "--config", path])


class TestErrorPaths:
    def test_missing_config_exits_2(self, capsys):
        assert main(["pe-series"]) == EXIT_CONFIG

    def test_unreadable_config_exits_2(self, capsys):
        assert main(["pe-series", "--config", "/nonexistent.json"]) == EXIT_CONFIG

    def test_non_finite_number_exits_2(self, tmp_path, capsys):
        doc = small_config(grid={"t_stop": math.nan})
        path = write_config(tmp_path, doc)
        assert "NaN" in Path(path).read_text()
        assert main(["pe-series", "--config", path]) == EXIT_CONFIG
        assert "grid.t_stop" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "grid"])
    def test_too_coarse_sweep_grid_exits_2(self, tmp_path, capsys, source):
        # period extraction needs 20 samples per fast cycle (pi/144 at fig3b)
        if source == "flag":
            argv = ["period-sweep", "--preset", "fig3b", "--dt", "0.1"]
        else:
            doc = build_preset("fig3b")
            doc["grid"] = {"dt": 0.1}
            argv = ["period-sweep", "--config", write_config(tmp_path, doc)]
        assert main(argv) == EXIT_CONFIG
        assert "grid.dt" in capsys.readouterr().err

    @pytest.mark.parametrize("command, l", [
        ("pe-series", 2), ("pe-series", 1), ("coherence-map", 2),
        ("period-sweep", 2), ("period-sweep", 3),
    ])
    def test_zero_amplitude_without_grid_exits_2(self, tmp_path, capsys, command, l):
        # the default grid and the sweep scale with the fast cycle, which
        # alpha = 0 does not have
        doc = small_config()
        doc["model"].update(l=l, alpha=0)
        del doc["grid"]
        assert main([command, "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        field = "model.alpha" if command == "period-sweep" else "grid: t_stop and dt"
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pe-series", "period-sweep", "coherence-map",
                                         "approx-check", "oracle-validate"])
    @pytest.mark.parametrize("alpha", [1e200, [0.0, -1e200], [1e300, 1e300]])
    def test_amplitude_whose_square_overflows_exits_2(self, tmp_path, capsys, command,
                                                      alpha):
        doc = small_config()
        doc["model"]["alpha"] = alpha
        assert main([command, "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert "model: alpha = " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pe-series", "coherence-map"])
    def test_multiplicity_whose_eigenvalues_overflow_exits_2(self, tmp_path, capsys,
                                                               command):
        # 200! alone is past the float range: every table would be nan
        doc = small_config()
        doc["model"]["l"] = 200
        doc["truncation"]["n_max"] = 20
        assert main([command, "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert "model.l" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, oracle", [(["--with-oracle"], {}),
                                               ([], {"with_oracle": True})])
    def test_multiplicity_whose_oracle_eigenvalues_overflow_exits_2(self, tmp_path, capsys,
                                                                      flags, oracle):
        # the series table ends at m = 135, where (m + 1)...(m + 132) is
        # finite; the exact solver's ends at n_fock - 1 = 159, where it is not
        doc = small_config(oracle=oracle, truncation={"n_max": 1, "tail_tol": 1.0})
        doc["model"]["l"] = 132
        argv = ["pe-series", "--config", write_config(tmp_path, doc), *flags]
        assert main(argv) == EXIT_CONFIG
        assert "model.l" in capsys.readouterr().err

    def test_oracle_cutoff_below_the_multiplicity_exits_2(self, tmp_path, capsys):
        doc = small_config(oracle={"with_oracle": True, "n_fock": 2})
        assert main(["pe-series", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert "oracle.n_fock" in capsys.readouterr().err

    def test_temperature_whose_oracle_cutoff_overflows_exits_2(self, tmp_path, capsys):
        # e^(2 theta) of the automatic cutoff is past the float range
        doc = small_config(thermal={"inv_beta": 1e308},
                           oracle={"with_oracle": True, "alpha_threshold": 3})
        assert main(["pe-series", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert "thermal.inv_beta" in capsys.readouterr().err

    @pytest.mark.parametrize("command, omega, grid", [
        ("pe-series", 1e-200, [1e200]),
        ("coherence-map", 1e-200, [1e200]),
        ("coherence-map", 1e-200, [0.0, 1e200]),
        ("period-sweep", 1e-200, [1e200]),
        ("period-sweep", 1e-300, [0.0, 1e300]),
    ])
    def test_temperature_whose_angle_underflows_exits_2(self, tmp_path, capsys, monkeypatch,
                                                        command, omega, grid):
        # beta * omega underflows to 0, so cosh(theta) = 1/sqrt(1 - e^(-beta omega))
        # is past the float range; refused before the series build
        def refuse(*args, **kwargs):
            raise AssertionError("built the series tables")

        monkeypatch.setattr(thermaljcm.perturbation, "series_tables", refuse)
        doc = {"model": {"l": 1, "g": 1, "omega0": 1, "omega": omega, "alpha": 2},
               "thermal": {"inv_beta_grid": grid}, "grid": {"t_stop": 1, "dt": 0.1},
               "truncation": {"n_max": 40}}
        assert main([command, "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: thermal.inv_beta: 1/beta = ")

    @pytest.mark.parametrize("inv_beta, n_fock, field", [
        (5.0, None, "thermal.inv_beta"),  # automatic n_fock 166: the 8-sigma rule fails
        (20.0, None, "thermal.inv_beta"),  # automatic n_fock 495
        (0.1, 8, "oracle.n_fock"),
        (0.1, 16, "oracle.n_fock"),
    ])
    def test_leaking_oracle_cutoff_exits_2(self, tmp_path, capsys, inv_beta, n_fock, field):
        oracle_cfg = {"with_oracle": True}
        if n_fock is not None:
            oracle_cfg["n_fock"] = n_fock
        doc = small_config(thermal={"inv_beta": inv_beta}, oracle=oracle_cfg)
        out = tmp_path / "out.csv"
        argv = ["pe-series", "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert field in err and "leak" in err
        assert out.read_text() == ""

    @pytest.mark.parametrize("model, inv_beta, n_fock, field", [
        ({}, 1000.0, None, "thermal.inv_beta"),  # automatic n_fock 18 050
        ({}, 0.1, 5000, "oracle.n_fock"),
        ({"alpha": 50.0}, 0.0, None, "model.alpha"),  # automatic n_fock 2 908
    ])
    def test_oracle_cutoff_past_the_limit_exits_2(self, tmp_path, capsys, monkeypatch, model,
                                                  inv_beta, n_fock, field):
        def refuse(params, thermal, t, trunc):  # a cutoff past the limit must not get here
            raise AssertionError(f"the exact solver ran at n_fock = {trunc.n_fock}")

        monkeypatch.setattr(oracle, "pe_curve", refuse)
        oracle_cfg = {"with_oracle": True}
        if n_fock is not None:
            oracle_cfg["n_fock"] = n_fock
        doc = small_config(thermal={"inv_beta": inv_beta}, oracle=oracle_cfg,
                           truncation={"n_max": 40, "tail_tol": 1.0})
        doc["model"].update(model)
        assert main(["pe-series", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert field in err and "limit 2048" in err

    @pytest.mark.parametrize("command", ["pe-series", "period-sweep", "coherence-map",
                                         "approx-check", "oracle-validate"])
    @pytest.mark.parametrize("field, value", [("omega", 1e200), ("omega0", 1e200),
                                              ("omega", 1e308)])
    def test_detuning_whose_square_overflows_exits_2(self, tmp_path, capsys, command,
                                                     field, value):
        doc = small_config()
        doc["model"][field] = value
        assert main([command, "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert f"model: {field} = " in capsys.readouterr().err

    def test_detuning_and_coupling_that_overflow_together_exit_2(self, tmp_path, capsys):
        # (delta/2)^2 and g^2 (m + 1) are each finite, their sum D_m is not
        doc = small_config(truncation={"n_max": 10, "tail_tol": 1.0})
        doc["model"].update(l=1, g=3.5e153, omega=1.5e154)
        assert main(["pe-series", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert "model.g" in capsys.readouterr().err

    @pytest.mark.parametrize("g", [1e-160, 1e-200])
    def test_sweep_past_the_float_range_at_a_tiny_coupling_exits_2(self, tmp_path, capsys, g):
        # the default sweep grid scales with 1/g: past t ~ 1e154 both t^2 and
        # 1/D_m overflow, so sin^2(sqrt(D_m) t)/D_m would too, and g^2 S2 be nan
        doc = {"model": {"l": 1, "g": g, "omega0": 1.0, "omega": 1.0, "alpha": 2.0}}
        assert main(["period-sweep", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: model.g: t = ")

    @pytest.mark.parametrize("grid, field", [
        # the default span, 1.35 revival periods, scales with 1/g
        ({}, "model.g"),
        ({"t_start": 0.0, "dt": 1e158}, "model.g"),
        # the document sets the span
        ({"t_start": 0.0, "t_stop": 1e200, "dt": 2.5e199}, "grid"),
    ])
    def test_series_past_the_float_range_names_what_set_the_span(self, tmp_path, capsys,
                                                                  grid, field):
        doc = {"model": {"l": 1, "g": 1e-160, "omega0": 1.0, "omega": 1.0, "alpha": 2.0},
               "grid": grid, "truncation": {"n_max": 20}}
        assert main(["pe-series", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {field}: t = ")

    def test_sweep_names_g_though_the_document_sets_a_span(self, tmp_path, capsys):
        # period-sweep reads no grid.t_stop: its rows span the thermal periods
        doc = {"model": {"l": 1, "g": 1e-160, "omega0": 1.0, "omega": 1.0, "alpha": 2.0},
               "grid": {"t_start": 0.0, "t_stop": 1.0, "dt": 1e158}}
        assert main(["period-sweep", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: model.g: t = ")

    def test_nmax_flag_that_overflows_the_eigenvalues_exits_2(self, tmp_path, capsys):
        # (m + 1)...(m + 60) is finite at n_max = 20 and overflows at 10^6
        doc = small_config()
        doc["model"]["l"] = 60
        doc["truncation"]["n_max"] = 20
        path = write_config(tmp_path, doc)
        assert main(["pe-series", "--config", path, "--nmax", "1000000"]) == EXIT_CONFIG
        assert "model.l" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["pe-series", "coherence-map", "approx-check"])
    @pytest.mark.parametrize("grid", [
        {"t_start": -1e308, "t_stop": 1e308, "dt": 1.0},  # t_stop - t_start is inf
        {"t_start": 0.0, "t_stop": 1.0, "dt": 1e-300},  # 1e300 samples
    ])
    def test_grid_past_the_sample_limit_exits_2(self, tmp_path, capsys, command, grid):
        doc = small_config(grid=grid)
        assert main([command, "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert "grid: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pe-series", "coherence-map", "approx-check"])
    @pytest.mark.parametrize("grid, field", [
        ({"t_stop": -1.0, "dt": 0.1}, "grid.t_stop"),  # before the default t_start, 0
        # past the default t_stop, 1.35 revival periods (4.24 here)
        ({"t_start": 100.0, "dt": 0.1}, "grid.t_start"),
    ])
    def test_backwards_grid_with_a_default_end_exits_2(self, tmp_path, capsys, command, grid,
                                                       field):
        doc = small_config(grid=grid)
        assert main([command, "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field}: t_stop "), captured.err
        assert captured.out == ""

    def test_coherence_map_rows_past_the_sample_limit_exits_2(self, tmp_path):
        # 2^20 samples at 400 temperatures: 4.2e8 output rows, 16 GiB of columns
        doc = small_config(thermal={"inv_beta_grid": [0.001 * i for i in range(400)]},
                           grid={"t_start": 0.0, "t_stop": 2.0**20 - 1, "dt": 1.0},
                           truncation={"n_max": 10, "tail_tol": 1.0})
        proc = run_capped_cli(["coherence-map", "--config", write_config(tmp_path, doc)])
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith("error: thermal.inv_beta_grid: 400 temperatures at "
                                      "1048576 time samples"), proc.stderr
        assert proc.stdout == ""

    def test_grid_sample_count_stops_at_the_limit(self):
        cfg = parse_config(small_config(
            grid={"t_start": 0.0, "t_stop": SAMPLE_LIMIT - 1.0, "dt": 1.0}))
        assert _grid_samples(cfg) == (0.0, 1.0, SAMPLE_LIMIT)
        with pytest.raises(ConfigError, match="^grid: "):
            _grid_samples(dataclasses.replace(cfg, t_stop=float(SAMPLE_LIMIT)))

    def test_approx_check_table_past_the_limit_exits_2(self, tmp_path, capsys):
        # the cosine sum runs to n = 1e10 + 1.2e6 at alpha 1e5: without the
        # limit, numpy is asked for a 74.5 GiB table
        doc = small_config(grid={"t_start": 0.0, "t_stop": 1.0, "dt": 0.5})
        doc["model"]["alpha"] = 1e5
        out = tmp_path / "out.csv"
        argv = ["approx-check", "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "model.alpha" in capsys.readouterr().err
        assert out.read_text() == ""

    def test_approx_check_photon_axis_past_the_byte_budget_exits_2(self, tmp_path):
        # one sample, but 1.0e8 photon numbers at alpha 1e4: the weights and
        # the phase rates alone were 3 GiB
        doc = small_config(grid={"t_start": 0.0, "t_stop": 0.0, "dt": 0.5})
        doc["model"]["alpha"] = 1e4
        proc = run_capped_cli(["approx-check", "--config", write_config(tmp_path, doc)])
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith("error: model.alpha: alpha = (10000+0j): approx-check's "
                                      "100120012 photon numbers need 3055 MiB, more than the "
                                      "limit of 1024 MiB"), proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("flags, alpha, field", [
        # 1.46e9 and 1.46e14 samples on the longest row: 10.9 GiB and 1 PiB
        (["--preset", "fig3a", "--dt", "1e-7"], None, "grid.dt"),
        (["--preset", "fig3a", "--dt", "1e-12"], None, "grid.dt"),
        # the default dt is 1/40 of a fast cycle that shrinks with alpha:
        # 7.4e9 samples
        ([], 1e4, "model.alpha"),
    ])
    def test_sweep_row_past_the_sample_limit_exits_2(self, tmp_path, flags, alpha, field):
        if alpha is not None:
            doc = small_config()
            doc["model"]["alpha"] = alpha
            del doc["grid"]
            flags = ["--config", write_config(tmp_path, doc)]
        proc = run_capped_cli(["period-sweep", *flags])
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith(f"error: {field}: the longest sweep row"), proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv, doc, field", [
        # 3e9 + l + 3 photon columns: 22.4 GiB for each eigenvalue array
        (["pe-series", "--preset", "fig1a", "--nmax", "3000000000", "--dt", "1"], None,
         "truncation.n_max"),
        (["period-sweep", "--preset", "fig3b", "--nmax", "3000000000"], None,
         "truncation.n_max"),
        # the adaptive cut at alpha 1e5 is n_max = 10 001 200 012: 74.5 GiB
        (["pe-series"], {"alpha": 1e5}, "model.alpha"),
        (["coherence-map"], {"alpha": 1e5}, "model.alpha"),
    ])
    def test_series_table_past_the_column_limit_exits_2(self, tmp_path, argv, doc, field):
        if doc is not None:
            config = small_config(grid={"t_start": 0.0, "t_stop": 1.0, "dt": 0.5},
                                  truncation={"adaptive": True})
            config["model"].update(doc)
            argv = [*argv, "--config", write_config(tmp_path, config)]
        proc = run_capped_cli(argv)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith(f"error: {field}: "), proc.stderr
        assert "photon columns needs " in proc.stderr
        assert "MiB, more than the limit of 1024 MiB" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("command, model, truncation, field", [
        # under the column limit; 16 777 003 columns need the eigenvalue
        # table's 128 MiB arrays and five more per worker
        ("pe-series", {}, {"n_max": 16_777_000}, "truncation.n_max"),
        ("coherence-map", {}, {"n_max": 16_777_000}, "truncation.n_max"),
        # the adaptive cut at alpha 4000 is n_max = 16 048 012
        ("pe-series", {"alpha": 4000.0}, {"adaptive": True}, "model.alpha"),
    ])
    def test_series_build_past_the_byte_budget_exits_2(self, tmp_path, command, model,
                                                       truncation, field):
        config = small_config(grid={"t_start": 0.0, "t_stop": 1.0, "dt": 0.5},
                              truncation={"tail_tol": 1.0, **truncation})
        config["model"].update(model)
        proc = run_capped_cli([command, "--config", write_config(tmp_path, config)])
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith(f"error: {field}: "), proc.stderr
        assert "MiB, more than the limit of 1024 MiB" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [
        # 3.16 M samples, 15.8 M output rows at its 5 temperatures: the full
        # build needs 1133 MiB
        ["coherence-map", "--preset", "fig4a", "--dt", "0.00008"],
        # 16.4 M samples: a P_e-only build, then 2.5 GiB of Python floats to
        # write it
        ["pe-series", "--preset", "fig1a", "--dt", "0.0000031"],
    ])
    def test_series_build_past_the_budget_on_its_samples_exits_2(self, argv):
        # each grid is under the sample limit; the build's per-sample arrays
        # are not under the byte budget
        proc = run_capped_cli(argv)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith("error: grid: a series build of "), proc.stderr
        assert "MiB, more than the limit of 1024 MiB" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("argv", [
        # 2501 samples x 400 003 photon columns: 1.0e9 cells of trig, within
        # the byte budget; it ran for 28.8 s before the work limit
        ["pe-series", "--config", "work.json"],
        ["coherence-map", "--config", "work.json"],
        # 1 457 494 samples on the longest row x 253 columns: 3.7e8 cells
        ["period-sweep", "--preset", "fig3a", "--dt", "1e-4"],
    ])
    def test_series_build_past_the_work_limit_exits_2(self, tmp_path, capsys, monkeypatch,
                                                       argv):
        class Refused(EigenvalueTable):
            def __init__(self, *args, **kwargs):
                raise AssertionError("built a series table")

        monkeypatch.setattr(thermaljcm.perturbation, "EigenvalueTable", Refused)
        argv = [write_config(tmp_path, WORK_1E9, a) if a == "work.json" else a for a in argv]
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: grid: a series build of "), err
        assert "(t, n) cells, more than the limit of 268435456" in err
        assert out.read_text() == ""

    def test_oracle_past_the_work_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        # the series build is 200 001 samples x 43 columns; the exact P_e
        # would be 200 001 x 2000 Fock levels, 4.0e8 cells, refused before
        # either engine builds a table
        def refuse(*args, **kwargs):
            raise AssertionError("built the thermal coherent state")

        class RefusedTable(EigenvalueTable):
            def __init__(self, *args, **kwargs):
                raise AssertionError("built the series table")

        monkeypatch.setattr(oracle, "thermal_coherent_state", refuse)
        monkeypatch.setattr(thermaljcm.perturbation, "EigenvalueTable", RefusedTable)
        doc = small_config(grid={"t_start": 0.0, "t_stop": 1.0, "dt": 5e-6},
                           oracle={"with_oracle": True, "n_fock": 2000})
        doc["model"]["l"] = 1
        assert main(["pe-series", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: grid: the exact P_e on 200001 time samples x 2000 "), err

    def test_t_squared_past_the_float_range_is_refused_before_the_table(self, tmp_path,
                                                                        capsys, monkeypatch):
        # g = 0: t^2 and 1/D both pass the float range; refused by the
        # truncation check, not after the eigenvalue table
        class Refused(EigenvalueTable):
            def __init__(self, *args, **kwargs):
                raise AssertionError("built a series table")

        monkeypatch.setattr(thermaljcm.perturbation, "EigenvalueTable", Refused)
        doc = {"model": {"l": 1, "g": 0.0, "omega0": 1.0, "omega": 1.0, "alpha": 2.0},
               "grid": {"t_start": 0.0, "t_stop": 1e200, "dt": 2.5e199},
               "truncation": {"n_max": 40}}
        for command in ("pe-series", "coherence-map"):
            assert main([command, "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
            assert capsys.readouterr().err.startswith("error: grid: t = 1e+200: ")

    @pytest.mark.parametrize("command, doc, field, table", [
        # the exact P_e is refused first, before scipy is imported: this
        # document exited 0 with physicality_flag 1 and pe_oracle within
        # 1.6e-6 of pe_pert, both rounding noise (the ulp of the phase is 32)
        ("pe-series", PHASE_1E17, "grid", "the exact P_e on 11 time samples x 29 Fock levels"),
        ("coherence-map", PHASE_1E17, "grid",
         "a series build of 11 time samples x 44 photon columns"),
        # lhs and abs_dev were nan
        ("approx-check", {**PHASE_1E17, "grid": {"t_start": 0.0, "t_stop": 1e308, "dt": 1e307}},
         "grid", "approx-check's table of 11 time samples x 42 photon numbers"),
        # times that follow the periods name model.g, with a grid section or not
        *[(command, {**doc, **grid}, "model.g", table)
          for command, doc, table in (
              ("period-sweep", SWEEP_1E_50, "a series build of 2 time samples x 43 photon columns"),
              ("oracle-validate", VALIDATE_G1E9,
               "the exact P_e on 3 time samples x 34 Fock levels"))
          for grid in ({}, {"grid": {"t_start": 0.0, "t_stop": 1.0}})],
    ])
    def test_phase_past_the_float_precision_exits_2(self, tmp_path, capsys, monkeypatch,
                                                     command, doc, field, table):
        class Refused(EigenvalueTable):
            def __init__(self, *args, **kwargs):
                raise AssertionError("built a series table")

        def refuse(*args, **kwargs):
            raise AssertionError("built the thermal coherent state")

        monkeypatch.setattr(thermaljcm.perturbation, "EigenvalueTable", Refused)
        monkeypatch.setattr(oracle, "thermal_coherent_state", refuse)
        assert main([command, "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: {table}: its largest phase, "), err
        assert err.endswith(" rad, more than the limit of 1e-05 rad\n"), err

    def test_phase_just_inside_the_float_precision_runs(self, tmp_path):
        # the series' largest phase, sqrt(44) x (6.7e9 + 10), rounds by 9.9e-6
        # rad; the exact solver's, on 29 Fock levels, by 8.0e-6
        doc = {**PHASE_1E17, "grid": {"t_start": 6.7e9, "t_stop": 6.7e9 + 10.0, "dt": 1.0}}
        rc, out = run_cli(["pe-series", "--config", write_config(tmp_path, doc)])
        assert rc == EXIT_OK
        rows = np.array([row.split(",") for row in out.splitlines()[1:]], dtype=float)
        assert rows.shape == (11, 7) and np.isfinite(rows).all()
        assert np.max(np.abs(rows[:, 1] - rows[:, 6])) < 1e-3

    @pytest.mark.parametrize("command, l, alpha, grid, field", [
        # |alpha|^l underflows to 0: a ZeroDivisionError in rabi_period, or
        # mean^(1 - l/2) past the float range, an OverflowError in
        # t0_prime_period; the default grid follows both
        *[(c, l, 1e-160, None, "grid") for c in ("pe-series", "coherence-map", "approx-check")
          for l in (3, 4)],
        ("period-sweep", 3, 1e-160, None, "model.alpha"),
        ("period-sweep", 4, 1e-160, None, "model.alpha"),
        # approx-check's own |alpha|^(l - 2), 1e310
        ("approx-check", 1, 1e-310, {"t_start": 0.0, "t_stop": 1.0, "dt": 0.5}, "model.alpha"),
    ])
    def test_tiny_amplitude_exits_2(self, tmp_path, capsys, command, l, alpha, grid, field):
        doc = {"model": {"l": l, "g": 1.0, "omega0": 1.0, "omega": 1.0, "alpha": alpha},
               "thermal": {"inv_beta": 0.1}, "truncation": {"n_max": 40}}
        if grid is not None:
            doc["grid"] = grid
        assert main([command, "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field}: "), captured.err
        assert captured.out == ""

    def test_sweep_fast_cycle_past_its_rows_is_no_revival(self, tmp_path):
        # at alpha 1e-50, l 3 the envelope window, one fast cycle of 3.1e150,
        # was 6.3e150 samples at dt 0.5: np.pad raised TypeError.  Wider than
        # the row, it holds the whole row from every sample
        doc = {"model": {"l": 3, "g": 1.0, "omega0": 1.0, "omega": 1.0, "alpha": 1e-50},
               "thermal": {"inv_beta": 0.1}, "grid": {"dt": 0.5}, "truncation": {"n_max": 40}}
        rc, out = run_cli(["period-sweep", "--config", write_config(tmp_path, doc)])
        assert rc == EXIT_NO_REVIVAL
        assert out.splitlines()[1].startswith("0.1,nan,310.831089524,3.14159265359e+50,")

    @pytest.mark.parametrize("n_max", [2**53, 10**400], ids=["2**53", "10**400"])
    def test_nmax_past_float_precision_and_range_exits_2(self, tmp_path, n_max):
        # the budget is summed in integers: neither n_max reaches a float
        doc = small_config(truncation={"n_max": n_max})
        proc = run_capped_cli(["pe-series", "--config", write_config(tmp_path, doc)])
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert proc.stderr.startswith(f"error: truncation.n_max: n_max = {n_max} at l = 2: "), \
            proc.stderr
        assert proc.stdout == ""

    def test_series_table_columns_stop_at_the_limit(self, tmp_path, capsys):
        # the smallest build, P_e-only on no samples, of n_max + 3 columns at
        # l = 2: 8 x (16 + 3) bytes a column, at most 2^30 / 152 columns
        edge = (1 << 30) // 152 - 3
        assert sum(thermaljcm.perturbation._build_bytes(edge + 3, 2, False, 0)) <= 1 << 30
        params = ModelParams(**small_config()["model"])
        TruncationPolicy(edge).check(params, ())
        with pytest.raises(LimitError, match="^n_max = .* more than the limit of 1024 MiB$"):
            TruncationPolicy(edge + 1).check(params, ())
        doc = small_config(truncation={"n_max": edge + 1})
        assert main(["pe-series", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: truncation.n_max: n_max = {edge + 1} ")

    @pytest.mark.parametrize("command", ["pe-series", "coherence-map"])
    def test_coupling_whose_eigenvalues_overflow_exits_2(self, tmp_path, capsys, command):
        # g^2 alone is past the float range
        doc = small_config()
        doc["model"]["g"] = 1e200
        assert main([command, "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: model.g: g = 1e+200: the Rabi ")

    @pytest.mark.parametrize("command", ["approx-check", "oracle-validate"])
    def test_command_that_builds_no_series_ignores_its_limits(self, tmp_path, command):
        # neither builds a series at truncation.n_max, so its limits refuse nothing
        rc, out = run_cli([command, "--config", write_config(tmp_path, NMAX_1E9)])
        assert rc == EXIT_OK
        if command == "oracle-validate":
            assert json.loads(out)["passed"] is True
        else:
            assert out.splitlines()[1].startswith("0,1,1,")

    @pytest.mark.parametrize("command", ["pe-series", "coherence-map", "period-sweep"])
    def test_series_command_refuses_its_own_build(self, tmp_path, capsys, command):
        assert main([command, "--config", write_config(tmp_path, NMAX_1E9)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: truncation.n_max: n_max = 1000000000 at l = 2: "), err

    def test_sweep_names_the_first_fault_it_meets(self, tmp_path, capsys):
        # its dt is checked before its series build is admitted
        doc = {**NMAX_1E9, "grid": {"dt": 0.05}}
        assert main(["period-sweep", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: grid.dt: dt = 0.05 too coarse ")

    def test_approx_check_past_the_series_eigenvalues_runs(self, tmp_path):
        # (m + 1)...(m + 150) overflows from m = 47 on, so a series build of
        # n_max 40 is refused; approx-check's own sums are finite here
        doc = small_config(grid={"t_start": 0.0, "t_stop": 2e-130, "dt": 1e-130})
        doc["model"]["l"] = 150
        rc, out = run_cli(["approx-check", "--config", write_config(tmp_path, doc)])
        assert rc == EXIT_OK
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 3 and all(row[1:3] == ["1", "1"] for row in rows)

    @pytest.mark.parametrize("command", ["pe-series", "coherence-map"])
    @pytest.mark.parametrize("fields, field", HUGE_AMPLITUDES)
    def test_series_prefactors_past_the_float_range_exit_2(self, tmp_path, capsys,
                                                            monkeypatch, command, fields,
                                                            field):
        # the Poisson weights underflow to 0, and an infinite prefactor would
        # turn the zero sums into nan, or aa**l would raise OverflowError
        class Refused(EigenvalueTable):
            def __init__(self, *args, **kwargs):
                raise AssertionError("built a series table")

        monkeypatch.setattr(thermaljcm.perturbation, "EigenvalueTable", Refused)
        doc = huge_amplitude_doc(**fields)
        assert main([command, "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert field in err and "series prefactors" in err


#: the (command, flag) pairs that change no output, so are not registered
UNREAD_FLAGS = [
    ("period-sweep", ["--with-oracle"]),
    ("coherence-map", ["--with-oracle"]),
    ("approx-check", ["--nmax", "60"]),
    ("approx-check", ["--with-oracle"]),
    ("oracle-validate", ["--format", "csv"]),
    ("oracle-validate", ["--nmax", "5"]),
    ("oracle-validate", ["--dt", "9"]),
    ("oracle-validate", ["--with-oracle"]),
]


class TestFlags:
    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
    def test_flag_the_command_does_not_read_is_a_usage_error(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "fig1a", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_flags_equal_their_document_fields(self, tmp_path):
        doc = small_config(grid={"t_start": 0.0, "t_stop": 1.0, "dt": 0.5})
        doc["truncation"]["adaptive"] = True
        outs = [tmp_path / name for name in ("flags.json", "fields.json", "doc.json")]
        assert main(["pe-series", "--config", write_config(tmp_path, doc),
                     "--nmax", "60", "--dt", "0.25", "--format", "json",
                     "--out", str(outs[0])]) == EXIT_OK
        fields = json.loads(json.dumps(doc))
        fields["truncation"].update(n_max=60, adaptive=False)
        fields["grid"]["dt"] = 0.25
        fields["output"] = {"format": "json"}
        assert main(["pe-series", "--config", write_config(tmp_path, fields, "fields.json"),
                     "--out", str(outs[1])]) == EXIT_OK
        assert main(["pe-series", "--config", write_config(tmp_path, doc, "doc.json"),
                     "--format", "json", "--out", str(outs[2])]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes() != outs[2].read_bytes()

    @pytest.mark.parametrize("flag, value, message", [
        ("--dt", "inf", "grid.dt: expected a finite number"),
        ("--dt", "nan", "grid.dt: expected a finite number"),
        ("--dt", "-0.5", "grid.dt: must be positive"),
        ("--nmax", "0", "truncation.n_max: must be an integer >= 1"),
    ])
    def test_bad_flag_value_is_named_by_its_field(self, capsys, flag, value, message):
        assert main(["pe-series", "--preset", "fig1a", flag, value]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["missing", None, {}, False])
    def test_missing_or_empty_section_takes_the_flag(self, tmp_path, capsys, section):
        doc = small_config(grid=section)
        if section == "missing":
            del doc["grid"]  # default grid: 1.35 revival periods, pi at l = 2
        path = write_config(tmp_path, doc)
        assert main(["pe-series", "--config", path, "--dt", "0.5"]) == EXIT_OK
        t = [float(line.split(",")[0]) for line in capsys.readouterr().out.splitlines()[1:]]
        assert t == [0.5 * i for i in range(9)]

    @pytest.mark.parametrize("doc, field", [
        (small_config(grid=[0.5]), "grid: must be an object"),
        ([small_config()], "config: document must be a JSON object"),
    ])
    def test_malformed_document_or_section_is_left_for_the_parser(self, tmp_path, capsys,
                                                                    doc, field):
        path = write_config(tmp_path, doc)
        assert main(["pe-series", "--config", path, "--dt", "0.5"]) == EXIT_CONFIG
        assert field in capsys.readouterr().err


def log_uniform(top):
    """Magnitudes from 1e-6 to ``top``, uniform in the exponent, or zero."""
    return st.just(0.0) | st.floats(-6.0, math.log10(top)).map(lambda e: 10.0**e)


#: positive frequencies from 1e-300 to 1e300, uniform in the exponent
FREQUENCIES = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)

SIGNED = st.tuples(log_uniform(1e200), st.sampled_from([1.0, -1.0])).map(
    lambda pair: pair[0] * pair[1])


#: magnitudes from 1e-300 to 3, uniform in the exponent, or zero, either
#: sign: a default grid has 108 |alpha|^2 / l samples, at most 972, and a
#: sweep row 148 |alpha|^2 / l
SMALL_SIGNED = st.tuples(st.just(0.0) | st.floats(-300.0, math.log10(3.0)).map(
    lambda e: 10.0**e), st.sampled_from([1.0, -1.0])).map(lambda pair: pair[0] * pair[1])


def finite_table(command, out):
    """Every number of a command's CSV table is finite, but a sweep's
    extracted period where its flag is the documented no-revival."""
    rows = [row.split(",") for row in out.splitlines()[1:]]
    if command == "period-sweep":
        rows = [row[:1] + row[2:-1] if row[-1] == "no-revival" else row[:-1] for row in rows]
    return rows and all(math.isfinite(float(v)) for row in rows for v in row)


#: the model of a document past |alpha| = 3: a size from 3 to 12 and a phase,
#: whose half-turn gives a real amplitude its sign
PAST_ALPHA_3 = {
    "l": st.integers(1, 6), "n_max": st.integers(1, 60) | st.just(250),
    "alpha": st.tuples(st.floats(3.0, 12.0), st.floats(0.0, 2.0 * math.pi)),
    "real": st.booleans(), "g": log_uniform(1e200).filter(lambda v: v > 0),
    "omega": st.just(1.0) | FREQUENCIES,
    "omega0": st.none() | FREQUENCIES,  # none: at resonance, l omega
    "inv_beta": st.floats(0.0, 1e3) | log_uniform(1e300), "tail_tol": st.floats(0.0, 1.0),
}


def past_alpha_3_doc(l, n_max, alpha, real, g, omega, omega0, inv_beta, tail_tol):
    """The document of one ``PAST_ALPHA_3`` draw, with no grid."""
    size, phase = alpha
    amplitude = size * (-1.0 if phase > math.pi else 1.0) if real else [
        size * math.cos(phase), size * math.sin(phase)]
    return {
        "schema": 1,
        "model": {"l": l, "g": g, "omega0": l * omega if omega0 is None else omega0,
                  "omega": omega, "alpha": amplitude},
        "thermal": {"inv_beta": inv_beta},
        "truncation": {"n_max": n_max, "tail_tol": tail_tol},
    }


def assert_capped_table(command, doc, exits):
    """``command`` on ``doc`` under ``CAPPED_ADDRESS_SPACE`` exits with one of
    ``exits``, never in a traceback, and prints only finite numbers unless
    it refuses the document."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = run_capped_cli([command, "--config", write_config(Path(tmp), doc)])
    assert proc.returncode in exits, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    if proc.returncode != EXIT_CONFIG:
        assert finite_table(command, proc.stdout), proc.stdout


class TestFiniteOutput:
    """No series command exits 0 with a non-finite number in its table.

    The first property draws amplitudes up to 1e200 on explicit grids of at
    most 50 time samples, for ``pe-series`` and ``coherence-map`` only:
    ``period-sweep`` and ``approx-check`` size their grids or photon axis
    with |alpha|^2.  The second draws amplitudes down to 1e-300 and at most
    3 for all four commands and ``pe-series --with-oracle``, with no grid
    (``period-sweep`` always takes the default dt) or with one of at most 10
    samples reaching up to 1e308.  Every example has n_max <= 60, and
    n_fock <= 60 with the oracle, so that none builds a large state.  The
    third draws ``period-sweep`` at amplitudes 3 to 12, with the default dt
    or a document's ``grid.dt``, and n_max up to 60 or 250, and the fourth
    ``pe-series``, ``coherence-map`` and ``approx-check`` at the same
    amplitudes with no grid; their grids grow as |alpha|^2, so each example
    runs in a child process under ``CAPPED_ADDRESS_SPACE``, where it must not
    end in a traceback either.
    """

    @settings(max_examples=200, deadline=None)
    @given(command=st.sampled_from(["pe-series", "coherence-map"]),
           l=st.integers(1, 6), n_max=st.integers(1, 60),
           alpha=SIGNED | st.lists(SIGNED, min_size=2, max_size=2),
           g=log_uniform(1e200), omega=FREQUENCIES, omega0=FREQUENCIES,
           inv_beta=st.floats(0.0, 1e3) | log_uniform(1e300),
           tail_tol=st.floats(0.0, 1.0), t_start=st.floats(0.0, 100.0),
           dt=log_uniform(10.0).filter(lambda v: v > 0), k=st.integers(0, 49))
    @example(command="pe-series", l=1, n_max=40, alpha=1e150, g=1.0, omega=1.0, omega0=1.0,
             inv_beta=0.0, tail_tol=1.0, t_start=0.0, dt=5e-149, k=2)
    @example(command="coherence-map", l=1, n_max=40, alpha=1e150, g=1.0, omega=1.0, omega0=1.0,
             inv_beta=0.0, tail_tol=1.0, t_start=0.0, dt=5e-149, k=2)
    @example(command="pe-series", l=1, n_max=40, alpha=1e9, g=1e150, omega=1.0, omega0=1.0,
             inv_beta=0.0, tail_tol=1.0, t_start=0.0, dt=5e-149, k=2)
    @example(command="coherence-map", l=1, n_max=40, alpha=1e9, g=1e150, omega=1.0, omega0=1.0,
             inv_beta=0.0, tail_tol=1.0, t_start=0.0, dt=5e-149, k=2)
    @example(command="pe-series", l=4, n_max=40, alpha=1e40, g=1.0, omega=1.0, omega0=1.0,
             inv_beta=0.0, tail_tol=1.0, t_start=0.0, dt=5e-39, k=2)
    @example(command="coherence-map", l=4, n_max=40, alpha=1e40, g=1.0, omega=1.0, omega0=1.0,
             inv_beta=0.0, tail_tol=1.0, t_start=0.0, dt=5e-39, k=2)
    # t^2 past the float range where 1/D is too: at g = 0, and where g^2 underflows
    @example(command="pe-series", l=1, n_max=40, alpha=2.0, g=0.0, omega=1.0, omega0=1.0,
             inv_beta=0.0, tail_tol=1.0, t_start=0.0, dt=2.5e199, k=4)
    @example(command="coherence-map", l=1, n_max=40, alpha=2.0, g=0.0, omega=1.0, omega0=1.0,
             inv_beta=0.0, tail_tol=1.0, t_start=0.0, dt=2.5e199, k=4)
    @example(command="pe-series", l=1, n_max=40, alpha=2.0, g=1e-170, omega=1.0, omega0=1.0,
             inv_beta=0.0, tail_tol=1.0, t_start=0.0, dt=2.5e199, k=4)
    @example(command="coherence-map", l=1, n_max=40, alpha=2.0, g=1e-170, omega=1.0, omega0=1.0,
             inv_beta=0.0, tail_tol=1.0, t_start=0.0, dt=2.5e199, k=4)
    # beta * omega underflows to 0: the cavity's Bogoliubov angle is past the
    # float range
    @example(command="pe-series", l=1, n_max=40, alpha=2.0, g=1.0, omega=1e-200, omega0=1.0,
             inv_beta=1e200, tail_tol=1e-9, t_start=0.0, dt=0.1, k=10)
    @example(command="coherence-map", l=1, n_max=40, alpha=2.0, g=1.0, omega=1e-200,
             omega0=1.0, inv_beta=1e200, tail_tol=1e-9, t_start=0.0, dt=0.1, k=10)
    def test_exit_0_means_every_number_is_finite(self, command, l, n_max, alpha, g, omega,
                                                 omega0, inv_beta, tail_tol, t_start, dt, k):
        doc = {
            "schema": 1,
            "model": {"l": l, "g": g, "omega0": omega0, "omega": omega, "alpha": alpha},
            "thermal": {"inv_beta": inv_beta},
            "grid": {"t_start": t_start, "t_stop": t_start + k * dt, "dt": dt},
            "truncation": {"n_max": n_max, "tail_tol": tail_tol},
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), doc)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", thermaljcm.perturbation.TruncationWarning)
                rc, out = run_cli([command, "--config", path])
        assert rc in (EXIT_OK, EXIT_CONFIG)
        if rc == EXIT_OK:
            rows = out.splitlines()[1:]
            assert 1 <= len(rows) <= 50
            cells = [float(v) for row in rows for v in row.split(",")]
            assert all(math.isfinite(v) for v in cells)

    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(["pe-series", "coherence-map", "period-sweep",
                                    "approx-check", "pe-series --with-oracle"]),
           l=st.integers(1, 6), n_max=st.integers(1, 60),
           alpha=SMALL_SIGNED | st.lists(SMALL_SIGNED, min_size=2, max_size=2),
           g=log_uniform(1e200), omega=FREQUENCIES, omega0=FREQUENCIES,
           inv_beta=st.floats(0.0, 1e3) | log_uniform(1e300), tail_tol=st.floats(0.0, 1.0),
           grid=st.none() | st.tuples(st.floats(0.0, 100.0) | log_uniform(1e308),
                                      log_uniform(1e307).filter(lambda v: v > 0),
                                      st.integers(0, 9)),
           n_fock=st.integers(2, 60))
    # a phase past the float64 precision: nan in approx-check's lhs
    @example(command="approx-check", l=1, n_max=40, alpha=2.0, g=1.0, omega=1.0, omega0=1.0,
             inv_beta=0.1, tail_tol=1.0, grid=(0.0, 1e307, 9), n_fock=2)
    # the rhs's slow phase g t / |alpha| past the float range: nan in rhs
    @example(command="approx-check", l=1, n_max=40, alpha=1e-300, g=1.0, omega=1.0, omega0=1.0,
             inv_beta=0.1, tail_tol=1.0, grid=(1e9, 1.0, 2), n_fock=2)
    # |alpha|^l underflows to 0: a ZeroDivisionError in rabi_period, an
    # OverflowError in t0_prime_period, or in approx-check's |alpha|^(l - 2)
    @example(command="pe-series", l=3, n_max=40, alpha=1e-160, g=1.0, omega=1.0, omega0=1.0,
             inv_beta=0.1, tail_tol=1.0, grid=None, n_fock=2)
    @example(command="period-sweep", l=4, n_max=40, alpha=1e-160, g=1.0, omega=1.0,
             omega0=1.0, inv_beta=0.1, tail_tol=1.0, grid=None, n_fock=2)
    @example(command="approx-check", l=1, n_max=40, alpha=1e-310, g=1.0, omega=1.0,
             omega0=1.0, inv_beta=0.1, tail_tol=1.0, grid=(0.0, 0.5, 2), n_fock=2)
    # the exact P_e where g^2 underflows (its limit t^2 past the float range),
    # at g = 0, and at a grid reaching 1e308
    @example(command="pe-series --with-oracle", l=1, n_max=40, alpha=2.0, g=1e-170,
             omega=1.0, omega0=1.0, inv_beta=0.1, tail_tol=1.0, grid=(0.0, 2.5e199, 4),
             n_fock=30)
    @example(command="pe-series --with-oracle", l=2, n_max=40, alpha=1.5, g=0.0, omega=1.0,
             omega0=2.0, inv_beta=0.1, tail_tol=1.0, grid=(0.0, 0.5, 9), n_fock=30)
    @example(command="pe-series --with-oracle", l=1, n_max=40, alpha=2.0, g=1.0, omega=1.0,
             omega0=1.0, inv_beta=0.1, tail_tol=1.0, grid=(0.0, 1e307, 9), n_fock=30)
    # a squeeze angle of about 235, whose alpha e^theta = 1e25 overflowed the
    # displacement's expm before the squeezed vacuum's leak was refused
    @example(command="pe-series --with-oracle", l=1, n_max=1, alpha=1e-77, g=0.0,
             omega=1e-109, omega0=1.0, inv_beta=1e95, tail_tol=0.0, grid=(0.0, 1.0, 0),
             n_fock=2)
    def test_exit_0_means_every_number_is_finite_at_any_time(
            self, command, l, n_max, alpha, g, omega, omega0, inv_beta, tail_tol, grid, n_fock):
        doc = {
            "schema": 1,
            "model": {"l": l, "g": g, "omega0": omega0, "omega": omega, "alpha": alpha},
            "thermal": {"inv_beta": inv_beta},
            "truncation": {"n_max": n_max, "tail_tol": tail_tol},
        }
        if command.endswith("--with-oracle"):
            doc["oracle"] = {"n_fock": n_fock}
        if grid is not None and command != "period-sweep":
            t_start, dt, k = grid
            doc["grid"] = {"t_start": t_start, "t_stop": t_start + k * dt, "dt": dt}
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), doc)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", thermaljcm.perturbation.TruncationWarning)
                rc, out = run_cli([*command.split(), "--config", path])
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_NO_REVIVAL)
        if rc != EXIT_CONFIG:
            assert finite_table(command, out), out

    @settings(max_examples=30, deadline=None)
    @given(**PAST_ALPHA_3, cycles=st.none() | st.floats(-2.5, -1.0).map(lambda e: 10.0**e))
    # the fig3a sweep's parameters at a fine dt, and the fig3d ones at a
    # coarse one
    @example(l=1, n_max=250, alpha=(12.0, 0.0), real=True, g=1.0, omega=1.0, omega0=1.0,
             inv_beta=0.16, tail_tol=1.0, cycles=0.01)
    @example(l=4, n_max=250, alpha=(12.0, 0.0), real=True, g=1.0, omega=1.0, omega0=4.0,
             inv_beta=0.08, tail_tol=1.0, cycles=0.06)
    def test_period_sweep_past_alpha_3_exits_0_only_with_finite_numbers(self, cycles, **model):
        doc = past_alpha_3_doc(**model)
        if cycles is not None:
            # a step of that many fast cycles, pi / (g |alpha|^l), where it is a float
            size, l, g = model["alpha"][0], model["l"], model["g"]
            with np.errstate(all="ignore"):
                dt = float(cycles * np.pi / (np.float64(g) * np.float64(size) ** l))
            doc["grid"] = {"dt": dt if 0.0 < dt < math.inf else cycles}
        assert_capped_table("period-sweep", doc, (EXIT_OK, EXIT_CONFIG, EXIT_NO_REVIVAL))

    @settings(max_examples=30, deadline=None)
    @given(**PAST_ALPHA_3,
           command=st.sampled_from(["pe-series", "coherence-map", "approx-check"]))
    # the paper's largest amplitude at its fig1 and fig4 parameters
    @example(command="pe-series", l=1, n_max=250, alpha=(12.0, 0.0), real=True, g=1.0,
             omega=1.0, omega0=1.0, inv_beta=0.16, tail_tol=1.0)
    @example(command="coherence-map", l=2, n_max=250, alpha=(12.0, 1.0), real=False, g=1.0,
             omega=1.0, omega0=None, inv_beta=0.08, tail_tol=1.0)
    @example(command="approx-check", l=1, n_max=250, alpha=(12.0, 4.0), real=True, g=1.0,
             omega=1.0, omega0=1.0, inv_beta=0.16, tail_tol=1.0)
    def test_no_grid_past_alpha_3_exits_0_only_with_finite_numbers(self, command, **model):
        assert_capped_table(command, past_alpha_3_doc(**model), (EXIT_OK, EXIT_CONFIG))


class TestOutFile:
    """``--out`` keeps an earlier result unless the command returns."""

    EARLIER = "earlier result 1\n"  # 17 bytes

    @pytest.fixture
    def out(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text(self.EARLIER)
        return path

    def test_leaking_oracle_cutoff_keeps_the_file(self, tmp_path, capsys, out):
        doc = small_config(oracle={"with_oracle": True, "n_fock": 8})
        argv = ["pe-series", "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "oracle.n_fock" in capsys.readouterr().err
        assert out.read_text() == self.EARLIER

    def test_sweep_row_past_the_sample_limit_keeps_the_file(self, capsys, out):
        argv = ["period-sweep", "--preset", "fig3a", "--dt", "1e-7", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "grid.dt" in capsys.readouterr().err
        assert out.read_text() == self.EARLIER

    def test_traceback_keeps_the_file(self, monkeypatch, tmp_path, out):
        def fail(config):
            raise RuntimeError("failed inside the handler")

        _, help_text, flags = cli.COMMANDS["pe-series"]
        monkeypatch.setitem(cli.COMMANDS, "pe-series", (fail, help_text, flags))
        argv = ["pe-series", "--config", write_config(tmp_path, small_config()),
                "--out", str(out)]
        with pytest.raises(RuntimeError, match="inside the handler"):
            main(argv)
        assert out.read_text() == self.EARLIER

    def test_block_that_raises_leaves_the_blocks_before_it(self, monkeypatch, tmp_path, out):
        # coherence-map makes each temperature's rows as main writes them: a
        # failure in the second leaves the header and the first, as a failed
        # write leaves what it wrote
        made = []

        def fail_second(p00, z, coherence_values=cli.coherence_values):
            made.append(p00.size)
            if len(made) == 2:
                raise RuntimeError("failed in the second block")
            return coherence_values(p00, z)

        monkeypatch.setattr(cli, "coherence_values", fail_second)
        doc = small_config(thermal={"inv_beta_grid": [0.0, 0.1]})
        argv = ["coherence-map", "--config", write_config(tmp_path, doc), "--out", str(out)]
        with pytest.raises(RuntimeError, match="second block"):
            main(argv)
        lines = out.read_text().splitlines()
        assert made == [41, 41] and len(lines) == 1 + 41
        assert lines[0].startswith("t,inv_beta,") and {r.split(",")[1] for r in lines[1:]} == {"0"}

    @pytest.mark.parametrize("target, reason", [
        ("", "Is a directory"),
        ("missing/out.csv", "No such file or directory"),
    ])
    def test_unwritable_path_exits_2(self, tmp_path, capsys, target, reason):
        path = tmp_path / target
        assert main(["approx-check", "--preset", "fig1a", "--out", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: --out: cannot write {path}: {reason}\n"
        assert captured.out == ""
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("earlier", ["", "x" * 100_000])
    def test_returned_output_replaces_the_file(self, tmp_path, capsys, out, earlier):
        out.write_text(earlier)
        path = write_config(tmp_path, small_config())
        assert main(["pe-series", "--config", path]) == EXIT_OK
        expected = capsys.readouterr().out
        assert main(["pe-series", "--config", path, "--out", str(out)]) == EXIT_OK
        assert out.read_text() == expected

    def test_writing_the_file_holds_no_copy_of_the_text(self, monkeypatch, tmp_path, out):
        # 50 000 samples, a 3.6 MB table: the run to --out peaks where the run
        # to stdout does, so neither holds the text
        doc = small_config(grid={"t_start": 0.0, "t_stop": 2000.0, "dt": 0.04})
        argv = ["pe-series", "--config", write_config(tmp_path, doc)]

        def peak(*extra):
            tracemalloc.start()
            try:
                assert main([*argv, *extra]) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(sys, "stdout", _Sink())
        assert main(argv) == EXIT_OK  # warm: one-time allocations are in neither peak
        to_stdout, to_file = peak(), peak("--out", str(out))
        assert out.stat().st_size > 3_000_000
        assert to_file <= to_stdout + (1 << 20)


class _Sink:
    """A text stream that keeps nothing."""

    def write(self, text):
        pass

    def writelines(self, lines):
        for _ in lines:
            pass


class TestCsvWriter:
    def test_blocks_give_the_bytes_of_one_block(self, monkeypatch):
        t = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 1 / 3, 2.5e12, 7.0, -1.25])
        names = ["t", "scaled", "flag", "index", "label"]
        cols = [t, -3.0 * t, t > 0.5, np.arange(10), ["ok", "unstable"] * 5]

        def write(blocks, out_format="csv"):
            out = io.StringIO()
            cli._write_table(out, names, blocks, out_format)
            return out.getvalue()

        def split(*cuts):  # the rows of cols in blocks that end at the cuts
            edges = [0, *cuts, 10]
            return [[c[lo:hi] for c in cols] for lo, hi in zip(edges, edges[1:])]

        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 10)
        whole = write([cols])
        assert whole.count("\n") == 11
        assert "-0,0," in whole and "nan,nan,0," in whole and "inf,-inf,1," in whole
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 3)
        assert write([cols]) == whole
        assert write(split(1, 5, 9)) == whole
        assert write(iter(split(4, 7))) == whole  # blocks asked for one at a time
        as_json = write([cols], "json")
        assert json.loads(as_json)["rows"][2][:3] == [None, None, 0]
        assert write(split(1, 5, 9), "json") == as_json
        assert write(iter(split(4, 7)), "json") == as_json

    def test_memory_does_not_grow_with_the_rows(self):
        def peak(rows):
            cols = [np.linspace(0.0, 1.0, rows), np.arange(rows) % 2 == 0]
            tracemalloc.start()
            try:
                cli._write_table(_Sink(), ["t", "flag"], [cols], "csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1 << 18) <= 2 * peak(1 << 16)


def series_builds(params, trunc):
    """The P_e-only and the full build on a two-sample grid, or the
    ValueError each raises."""
    builds = []
    for coherence in (False, True):
        try:
            builds.append(series_tables([0.0, 0.5], params, trunc, coherence=coherence))
        except ValueError as exc:
            builds.append(exc)
    return builds


class TestLimitsAgree:
    """The series layer's limits agree with its builds: every build that
    :func:`series_tables` admits is finite, and every one it refuses raises a
    :class:`LimitError` before it allocates."""

    @settings(max_examples=300, deadline=None)
    @given(l=st.integers(1, 200), n_max=st.integers(1, 300), g=log_uniform(1e200),
           alpha=SIGNED | st.lists(SIGNED, min_size=2, max_size=2))
    @example(l=1, n_max=40, g=1.0, alpha=1e150)
    @example(l=1, n_max=40, g=1e150, alpha=1e9)
    @example(l=4, n_max=40, g=1.0, alpha=1e40)
    @example(l=200, n_max=20, g=1.0, alpha=2.0)
    @example(l=1, n_max=10, g=3.5e153, alpha=2.0)
    @example(l=1, n_max=40, g=1e12, alpha=2.0)  # a phase of 3.3e12 at t = 0.5
    def test_every_admitted_build_is_finite(self, l, n_max, g, alpha):
        model = {**small_config()["model"], "l": l, "g": g,
                 "alpha": complex(*np.atleast_1d(alpha))}
        try:
            params = ModelParams(**model)
        except ValueError:  # |alpha|^2 past the float range: nothing to build
            return
        for tables in series_builds(params, TruncationPolicy(n_max, tail_tol=1.0)):
            if isinstance(tables, ValueError):
                assert isinstance(tables, LimitError), tables
                if tables.param == "t_max":
                    assert "largest phase" in str(tables), tables
                continue
            assert all(np.isfinite(term).all() for terms in tables.pe_terms for term in terms)
            for inv_beta in (0.0, 0.16):
                thermal = thermal_from_inv_beta(inv_beta, params)
                assert np.isfinite(tables.pe(thermal)).all()
                if tables.tilde is not None:
                    assert np.isfinite(tables.rho01(thermal)).all()

    def test_library_calls_refuse_before_they_allocate(self):
        params = ModelParams(l=1, g=1.0, omega0=1.0, omega=1.0, alpha=1e150)
        for exc in series_builds(params, TruncationPolicy(40, tail_tol=1.0)):
            assert isinstance(exc, ValueError) and "series prefactors" in str(exc)
        # 200! alone is past the float range; the (m, l) product tables of
        # 10^5 rows would take 160 MB
        params = ModelParams(l=200, g=1.0, omega0=1.0, omega=1.0, alpha=2.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="l = 200: the Rabi eigenvalues"):
                EigenvalueTable(params, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
