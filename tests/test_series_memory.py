"""The series engine's workspace: bounded by a cell budget per worker.

A build allocates each worker's (t, n) tables once, float and complex, with
at most ``_TILE_CELLS`` float cells over all of that worker's tables, and
allocates nothing else of the (t, n) size, so its traced peak does not grow
with the length of the time grid beyond the per-time outputs.  Its photon
axis is bounded by a byte budget, checked before anything is allocated.
"""

import dataclasses
import io
import json
import math
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from thermaljcm import model, perturbation
from thermaljcm.analysis import SAMPLES_PER_CYCLE, SPAN_FACTOR, approx_cos_sum, default_dt
from thermaljcm.cli import PRESETS, _grid_samples, build_preset, main, parse_config
from thermaljcm.model import (
    LimitError,
    ModelParams,
    rabi_period,
    t0_prime_period,
    thermal_from_inv_beta,
)
from thermaljcm.oracle import FockTruncation
from thermaljcm.perturbation import TruncationPolicy, series_tables

#: traced peak of the fig3a sweep build: ~3.7 MiB on one worker and ~6.4 MiB
#: on two; 2048 workspace rows of 253 columns, the sizing before the cell
#: budget, peaked at ~25 MiB
PEAK_LIMIT_MIB = 12

#: traced peak of a full build on 5 000 samples at the fig4d columns: ~3.1 MiB
#: on one worker and ~4.9 MiB on two; with a fresh complex (t, n) table for
#: each amplitude product of each chunk it was 8.8 and 16.5 MiB
FULL_PEAK_LIMIT_MIB = 6


def preset_samples(name, config):
    """Time samples of the largest grid a preset's command builds at the
    ``config`` made from it: the longest row of a period sweep (fig3a-d),
    else the time grid."""
    if not name.startswith("fig3"):
        return _grid_samples(config)[2]
    dt = config.dt if config.dt is not None else default_dt(config.params)
    return max(math.ceil(SPAN_FACTOR * t0_prime_period(config.params,
                                                       thermal_from_inv_beta(ib, config.params))
                         / dt) + 1 for ib in config.inv_betas)


def fig3a_sweep_grid():
    """Parameters, truncation and longest-row grid of the fig3a period sweep
    (alpha 12, l 1, n_max 250, 22 270 samples)."""
    config = parse_config(build_preset("fig3a"))
    dt = rabi_period(config.params) / SAMPLES_PER_CYCLE
    return config.params, config.trunc, dt * np.arange(preset_samples("fig3a", config))


def traced_peak(cpus, *args, **kwargs):
    """tracemalloc peak of one ``series_tables`` build on ``cpus`` workers."""
    with mock.patch.object(model, "_usable_cpus", lambda: cpus):
        tracemalloc.start()
        try:
            series_tables(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("cpus", [1, 2])
def test_pe_only_sweep_build_peak_is_bounded(cpus):
    params, trunc, t = fig3a_sweep_grid()
    assert t.size > 20_000
    peak = traced_peak(cpus, t, params, trunc, coherence=False)
    assert peak <= PEAK_LIMIT_MIB * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("cpus", [1, 2])
def test_full_build_peak_is_bounded(cpus):
    config = parse_config(build_preset("fig4d"))
    assert config.trunc.top_row(config.params.l) + 1 == 257
    peak = traced_peak(cpus, np.linspace(0.0, 5.0, 5000), config.params, config.trunc)
    assert peak <= FULL_PEAK_LIMIT_MIB * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def workspace_shapes(t, params, trunc, cpus, coherence, zero_temperature=False):
    """Shapes and dtypes of the (t, n) workspaces one build allocates, each
    (workers, ..., rows, columns): trig (w, 2, rows, n) and prod (w, rows, n),
    and on a full build the S-sum pair (w, 2, rows, n) and the complex ab2
    and amplitude tables (w, rows, n); at zero temperature the one-sin
    kernel's sin and product tables (w, rows, n_max + 1).  The per-time
    outputs (3, nt) and (2, 6, nt) are told apart by their last axis."""
    shapes = []
    empty = np.empty

    def spy(shape, *args, **kwargs):
        out = empty(shape, *args, **kwargs)
        shapes.append((out.shape, out.dtype))
        return out

    with mock.patch.object(model, "_usable_cpus", lambda: cpus), \
            mock.patch.object(perturbation.np, "empty", spy):
        series_tables(t, params, trunc, coherence=coherence, zero_temperature=zero_temperature)
    # a full build's trig and amplitude tables carry l structural columns in front
    widths = ((trunc.n_max + 1,) if zero_temperature
              else (trunc.n_max + 3, trunc.top_row(params.l) + 1 + params.l))
    return [(s, dtype) for s, dtype in shapes if len(s) >= 3 and s[-1] in widths]


def worker_cells(shape, dtype):
    """float64 cells one worker holds of a workspace table, a complex cell two."""
    return math.prod(shape[1:]) * (2 if dtype == complex else 1)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("l, n_max, n, coherence, zero_temperature", [
    (1, 250, 22_270, False, False),  # the fig3a sweep: 253 columns, 259-row tiles
    (1, 250, 22_270, False, True),  # its zero-temperature row
    (4, 250, 5_000, True, False),  # the fig4d map's columns: 85-row tiles
    (2, 80, 300, True, False),  # one worker: a 257-row tile, then a 43-row chunk
    (1, 70_000, 5, False, False),  # the columns alone exceed the budget: one row
    (1, 70_000, 5, False, True),
])
def test_each_worker_workspace_stays_within_the_cell_budget(cpus, l, n_max, n, coherence,
                                                            zero_temperature):
    params = ModelParams(l=l, g=1.0, omega0=1.0, omega=1.0, alpha=3.0)
    trunc = TruncationPolicy(n_max)
    shapes = workspace_shapes(np.linspace(0.0, 5.0, n), params, trunc, cpus, coherence,
                              zero_temperature)
    # float trig, prod and S-sum pair; complex ab2 and amplitudes.  The P_e
    # path squares in its trig pair and holds no complex table
    dtypes = [dtype for _, dtype in shapes]
    assert dtypes == ([float] * 3 + [complex] * 2 if coherence else [float] * 2)
    # zero temperature holds no cos table: a sin table and a product table
    assert [len(s) for s, _ in shapes[:2]] == ([3, 3] if zero_temperature else [4, 3])
    columns = n_max + (l + 3 if coherence else 1 if zero_temperature else 3)
    # a full build's trig table carries s = l structural columns in front
    width = shapes[0][0][-1]
    assert width == columns + (l if coherence else 0)
    rows = shapes[0][0][-2]
    workers = shapes[0][0][0]
    assert all(s[0] == workers and s[-2] == rows for s, _ in shapes)
    assert all(s[-1] in (width, n_max + 3) for s, _ in shapes)
    # 2 float cells a column at zero temperature, 3 on the P_e path, at most
    # 9 on a full build
    per_row = (9 if coherence else 2 if zero_temperature else 3) * columns
    cells = sum(worker_cells(s, dtype) for s, dtype in shapes)
    assert cells <= rows * per_row
    budget = model._TILE_CELLS
    assert cells <= budget or rows == 1
    if n >= workers * (rows + 1):
        # a grid long enough for more rows fills the tile: one more row would
        # pass the budget
        assert (rows + 1) * per_row > budget


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("coherence", [False, True])
def test_build_bytes_bound_the_traced_peak(cpus, coherence):
    # past _TILE_CELLS cells a row, a chunk is one row, where a worker's
    # workspace is largest for its columns
    n_max, l = 70_000, 4
    params = ModelParams(l=l, g=1.0, omega0=1.0, omega=1.0, alpha=3.0)
    columns = n_max + (l + 3 if coherence else 3)
    shared, per_worker = perturbation._build_bytes(columns, l, coherence, 64)
    peak = traced_peak(cpus, np.linspace(0.0, 1.0, 64), params, TruncationPolicy(n_max, 1.0),
                       coherence=coherence)
    assert peak <= shared + cpus * per_worker


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("coherence", [False, True])
def test_build_bytes_bound_what_a_build_holds_per_sample(cpus, coherence):
    # a long grid on few columns: the per-time outputs and the cached order
    # terms are the peak, not the photon axis
    n, l = 1 << 17, 2
    params = ModelParams(l=l, g=1.0, omega0=1.0, omega=1.0, alpha=2.0)
    trunc = TruncationPolicy(10, 1.0)
    columns = trunc.n_max + (l + 3 if coherence else 3)
    shared, per_worker = perturbation._build_bytes(columns, l, coherence, n)
    with mock.patch.object(model, "_usable_cpus", lambda: cpus):
        tracemalloc.start()
        try:
            tables = series_tables(np.linspace(0.0, 5.0, n), params, trunc,
                                   coherence=coherence)
            tables.pe_terms
            if coherence:
                tables._rho01_arrays
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= shared + cpus * per_worker
    # and tight: one float a sample less would not bound the peak
    per_sample = shared - perturbation._build_bytes(columns, l, coherence, 0)[0]
    assert peak > per_sample - 8 * n


def test_build_past_the_byte_budget_is_refused_before_it_allocates():
    params = ModelParams(l=1, g=1.0, omega0=1.0, omega=1.0, alpha=3.0)
    tracemalloc.start()
    try:
        with pytest.raises(LimitError, match="more than the limit of 1024 MiB") as exc:
            series_tables([0.0, 0.5], params, TruncationPolicy(10_000_000, 1.0),
                          coherence=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.param == "n_max"
    assert peak < 1 << 20



def test_budget_caps_the_workers(monkeypatch):
    # a build that fits on two workers but not on 64 runs on two
    params = ModelParams(l=1, g=1.0, omega0=1.0, omega=1.0, alpha=3.0)
    shared, per_worker = perturbation._build_bytes(200_003, 1, False, 64)
    monkeypatch.setattr(model, "_BUILD_BYTES_LIMIT", shared + 2 * per_worker)
    shapes = workspace_shapes(np.linspace(0.0, 1.0, 64), params,
                              TruncationPolicy(200_000, 1.0), 64, False)
    assert [shape[0] for shape, _ in shapes] == [2, 2]
    # one row a chunk: each worker holds its three float cells a column
    assert sum(worker_cells(s, dtype) for s, dtype in shapes) == 3 * 200_003


def test_every_preset_fits_the_budget_on_64_workers():
    # no preset grid at its default density has more samples than the fig3a
    # sweep's longest row
    samples = fig3a_sweep_grid()[2].size
    for name in PRESETS:
        config = parse_config(build_preset(name))
        l = config.params.l
        columns = config.trunc.top_row(l) + 1
        shared, per_worker = perturbation._build_bytes(columns, l, True, samples)
        assert shared + 64 * per_worker <= model._BUILD_BYTES_LIMIT
        # a full build on its own grid, at its default density and at the
        # paper's dt of a fortieth of the fast cycle (38 593 samples x 254
        # columns at fig4a), passes the byte budget and the work limit
        for dt in (config.dt, rabi_period(config.params) / SAMPLES_PER_CYCLE):
            own = preset_samples(name, dataclasses.replace(config, dt=dt))
            if dt == config.dt:
                assert own <= samples
            shared, per_worker = perturbation._build_bytes(columns, l, True, own)
            assert shared + 64 * per_worker <= model._BUILD_BYTES_LIMIT
            config.trunc.check(config.params, np.zeros(own), coherence=True)


@pytest.mark.parametrize("cpus, n", [(1, 1), (2, 1), (2, 5)])
@pytest.mark.parametrize("alpha", [400.0, 1000.0])
def test_approx_photon_axis_rule_counts_what_it_holds(cpus, n, alpha):
    # past a tile a row, approx-check holds its weights and phase rates, and
    # each worker a table row and a product row: the rule counts one worker,
    # four float arrays of n_max + 1, and the budget caps the workers
    row = 8 * (perturbation._poisson_cut(alpha) + 1)
    assert row > 8 * model._TILE_CELLS // 2
    with mock.patch.object(model, "_usable_cpus", lambda: cpus):
        tracemalloc.start()
        try:
            approx_cos_sum(alpha, 1, 1.0, np.linspace(0.0, 1e-3, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # beside the arrays: the per-sample outputs, and the thread pool's first
    # import where two workers run
    workers = min(cpus, n)
    assert (2 + 2 * workers) * row < peak <= (2 + 2 * workers) * row + (1 << 18)


@pytest.mark.parametrize("limit", [model._WORK_CELLS_LIMIT, 1 << 20])
def test_work_limit_is_samples_times_columns(monkeypatch, limit):
    # one limit, model's, on time samples x photon columns of every (t, n)
    # table: patched, its edge moves for all three.  1024 columns on the P_e
    # path at n_max 1021, 1025 on a full build at l = 1; 1021 Fock levels;
    # 42 photon numbers of approx-check at alpha 2
    monkeypatch.setattr(model, "_WORK_CELLS_LIMIT", limit)
    params = ModelParams(l=1, g=1.0, omega0=1.0, omega=1.0, alpha=3.0)
    trunc = TruncationPolicy(1021, 1.0)
    for coherence, columns in ((False, 1024), (True, 1025)):
        edge = limit // columns
        trunc.check(params, np.zeros(edge), coherence)
        with pytest.raises(LimitError, match=f"x {columns} photon columns has "
                                             f"{(edge + 1) * columns} \\(t, n\\) cells") as exc:
            trunc.check(params, np.zeros(edge + 1), coherence)
        assert exc.value.param == "t"
    edge = limit // 1021
    FockTruncation(1021).check(params, np.zeros(edge))
    with pytest.raises(LimitError, match=f"x 1021 Fock levels has {(edge + 1) * 1021} ") as exc:
        FockTruncation(1021).check(params, np.zeros(edge + 1))
    assert exc.value.param == "t"
    edge = limit // 42
    if limit < model._WORK_CELLS_LIMIT:  # 6.4 million samples at the limit itself
        assert approx_cos_sum(2.0, 1, 1.0, np.zeros(edge))[0].size == edge
    with pytest.raises(LimitError, match=f"x 42 photon numbers has {(edge + 1) * 42} ") as exc:
        approx_cos_sum(2.0, 1, 1.0, np.zeros(edge + 1))
    assert exc.value.param == "t"


#: (workers, rows a chunk) of each (t, n) table of each benchmark operation
#: on two CPUs, in the order of its builds: what the runner planned while it
#: capped the workers and rows by the first 2048 samples, so the benchmark
#: figures keep their plans
BENCHMARK_PLANS = {
    "fig4a": [(2, 86)], **{f"fig4{m}": [(2, 85)] for m in "bcd"},
    **{f"fig3{m}_ib{ib}": [(2, 391 if ib == "0.00" else 259)]
       for m in "abcd" for ib in ("0.00", "0.08", "0.16")},
    **{f"fig1a_oracle_t{w}": [(1, 383)] * 2 for w in ("0-5", "5-10", "10-15", "15-20")},
    **{f"fig1b_oracle_t{w}": [(1, 313)] * 2 for w in ("0-0.5", "0.5-1")},
    "oracle_validate": [(1, 3), (1, 100), (1, 3), (1, 100), (1, 1)],
}


def test_benchmark_builds_keep_their_plans(monkeypatch):
    root = Path(__file__).resolve().parent.parent
    workloads = json.loads((root / "perfbench" / "workloads.json").read_text())["workloads"]
    ops = [op for workload in workloads.values() for op in workload["ops"]]
    assert sorted(op["name"] for op in ops) == sorted(BENCHMARK_PLANS)
    plans = []
    plan = model._plan

    def spy(*args):
        plans.append(plan(*args))
        return plans[-1]

    monkeypatch.chdir(root)  # the operations name their documents from the root
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    for module in (model, perturbation):  # perturbation imports the name
        monkeypatch.setattr(module, "_plan", spy)
    for op in ops:
        plans.clear()
        with redirect_stdout(io.StringIO()):
            assert main(op["argv"]) == op["exit_code"]
        assert plans == BENCHMARK_PLANS[op["name"]], op["name"]
