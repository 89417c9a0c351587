"""The series engine's workspace: bounded by a cell budget per worker.

A build allocates each worker's (t, n) tables once, with at most
``_TILE_CELLS`` cells a table, so its traced peak does not grow with the
length of the time grid beyond the per-time outputs.  Its photon axis is
bounded by a byte budget, checked before anything is allocated.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from thermaljcm import perturbation
from thermaljcm.analysis import SAMPLES_PER_CYCLE, SPAN_FACTOR
from thermaljcm.cli import PRESETS, build_preset, parse_config
from thermaljcm.model import (
    LimitError,
    ModelParams,
    rabi_period,
    t0_prime_period,
    thermal_from_inv_beta,
)
from thermaljcm.perturbation import TruncationPolicy, series_tables

#: traced peak of the fig3a sweep build: ~3.7 MiB on one worker and ~6.4 MiB
#: on two; 2048 workspace rows of 253 columns, the sizing before the cell
#: budget, peaked at ~25 MiB
PEAK_LIMIT_MIB = 12


def fig3a_sweep_grid():
    """Parameters, truncation and longest-row grid of the fig3a period sweep
    (alpha 12, l 1, n_max 250, 22 270 samples)."""
    config = parse_config(build_preset("fig3a"))
    dt = rabi_period(config.params) / SAMPLES_PER_CYCLE
    n = max(math.ceil(SPAN_FACTOR * t0_prime_period(config.params,
                                                    thermal_from_inv_beta(ib, config.params))
                      / dt) + 1 for ib in config.inv_betas)
    return config.params, config.trunc, dt * np.arange(n)


@pytest.mark.parametrize("cpus", [1, 2])
def test_pe_only_sweep_build_peak_is_bounded(cpus):
    params, trunc, t = fig3a_sweep_grid()
    assert t.size > 20_000
    with mock.patch.object(perturbation, "_usable_cpus", lambda: cpus):
        tracemalloc.start()
        try:
            series_tables(t, params, trunc, coherence=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= PEAK_LIMIT_MIB * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def workspace_shapes(t, params, trunc, cpus, coherence):
    """Shapes of the float (t, n) workspaces one build allocates: trig
    (w, 2, rows, n), sq (w, 2, rows, n) and prod (w, rows, n); the per-time
    outputs are 2-d or complex."""
    shapes = []
    empty = np.empty

    def spy(shape, *args, **kwargs):
        out = empty(shape, *args, **kwargs)
        shapes.append((out.shape, out.dtype))
        return out

    with mock.patch.object(perturbation, "_usable_cpus", lambda: cpus), \
            mock.patch.object(perturbation.np, "empty", spy):
        series_tables(t, params, trunc, coherence=coherence)
    return [s for s, dtype in shapes if len(s) >= 3 and dtype == float]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("l, n_max, n, coherence", [
    (1, 250, 22_270, False),  # the fig3a sweep: 253 columns, 259-row tiles
    (4, 250, 5_000, True),  # the fig4d map's columns
    (2, 80, 300, True),  # fewer rows than a tile holds
    (1, 70_000, 5, False),  # the columns alone exceed the budget: one row
])
def test_each_worker_workspace_stays_within_the_cell_budget(cpus, l, n_max, n, coherence):
    params = ModelParams(l=l, g=1.0, omega0=1.0, omega=1.0, alpha=3.0)
    trunc = TruncationPolicy(n_max)
    shapes = workspace_shapes(np.linspace(0.0, 5.0, n), params, trunc, cpus, coherence)
    assert len(shapes) == 3
    columns = shapes[0][-1]
    assert columns == n_max + (l + 3 if coherence else 3)
    rows = shapes[0][-2]
    budget = perturbation._TILE_CELLS
    for shape in shapes:
        assert shape[-2] == rows
        assert shape[-2] * shape[-1] <= budget or shape[-2] == 1
    if n >= perturbation._T_CHUNK:
        # a long grid fills the tile: one more row would pass the budget
        assert (rows + 1) * columns > budget


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("coherence", [False, True])
def test_build_bytes_bound_the_traced_peak(cpus, coherence):
    # past _TILE_CELLS columns a chunk is one row, where a worker's workspace
    # is largest for its columns
    n_max, l = 70_000, 4
    params = ModelParams(l=l, g=1.0, omega0=1.0, omega=1.0, alpha=3.0)
    columns = n_max + (l + 3 if coherence else 3)
    shared, per_worker = perturbation._build_bytes(columns, l, coherence, 64)
    with mock.patch.object(perturbation, "_usable_cpus", lambda: cpus):
        tracemalloc.start()
        try:
            series_tables(np.linspace(0.0, 1.0, 64), params, TruncationPolicy(n_max, 1.0),
                          coherence=coherence)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
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
    with mock.patch.object(perturbation, "_usable_cpus", lambda: cpus):
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
    monkeypatch.setattr(perturbation, "_BUILD_BYTES_LIMIT", shared + 2 * per_worker)
    shapes = workspace_shapes(np.linspace(0.0, 1.0, 64), params,
                              TruncationPolicy(200_000, 1.0), 64, False)
    assert [shape[0] for shape in shapes] == [2, 2, 2]


def test_every_preset_fits_the_budget_on_64_workers():
    # no preset grid has more samples than the fig3a sweep's longest row
    samples = fig3a_sweep_grid()[2].size
    for name in PRESETS:
        config = parse_config(build_preset(name))
        columns = config.trunc.top_row(config.params.l) + 1
        shared, per_worker = perturbation._build_bytes(columns, config.params.l, True,
                                                       samples)
        assert shared + 64 * per_worker <= perturbation._BUILD_BYTES_LIMIT
