"""The series engine: one table build, evaluated at many temperatures.

Every value must be bitwise independent of how the tables were built: of the
batching of the time grid, of the chunk size, of the number of worker
threads, of whether the coherence tables were built alongside P_e, and of
how many temperatures one build serves.
"""

import inspect
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from thermaljcm import model, perturbation
from thermaljcm.analysis import period_vs_temperature_sweep
from thermaljcm.cli import PRESETS, build_preset
from thermaljcm.model import EigenvalueTable, ModelParams, thermal_from_inv_beta
from thermaljcm.perturbation import TruncationPolicy, TruncationWarning, series_tables
from thermaljcm.validation import THETA_GRID, run_validation_suite, theta_for_angle
from reference import direct_d_prime, make_params, osc_pair

INV_BETAS = (0.0, 0.04, 0.08, 0.12, 0.16)


# resonant presets plus a detuned, complex-amplitude case (delta != 0 keeps
# the D' columns n < l away from zero)
CASES = [
    (make_params(l=1, alpha=3.0), TruncationPolicy(60)),
    (make_params(l=2, alpha=2.5), TruncationPolicy(50)),
    (make_params(l=3, g=0.8, omega0=2.5, alpha=1.2 + 0.5j), TruncationPolicy(40)),
]

#: CASES plus g = 0 at resonance, where every D_m is 0 and the engine takes
#: its limit values t^2 and (1, t) on every column
TILE_CASES = CASES + [(make_params(l=2, g=0.0, omega0=2.0, alpha=1.5), TruncationPolicy(30))]

#: the default cell budget of a chunk, which the explicit examples below keep
DEFAULT_TILE = model._TILE_CELLS


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_tables_bitwise(a, b):
    """The S sums and coherence series themselves: at g = 0, P_e and rho01
    read S2 and the coherence series only through a factor g."""
    assert_bitwise(a.S1, b.S1)
    assert_bitwise(a.S2, b.S2)
    assert (a.tilde is None) == (b.tilde is None)
    if a.tilde is not None:
        assert_bitwise(a.tilde, b.tilde)


def poisson_weights(n_max, alpha):
    """e^(-|alpha|^2) |alpha|^(2n) / n! on n = 0..n_max, from scipy's gammaln
    (1 at n = 0 and 0 elsewhere at alpha = 0)."""
    n = np.arange(n_max + 1, dtype=float)
    aa = abs(alpha) ** 2
    if aa == 0.0:
        return (n == 0).astype(float)
    return np.exp(n * math.log(aa) - gammaln(n + 1.0) - aa)


def direct_tilde(params, trunc, t):
    """The twelve coherence series with A', B' evaluated directly on the D'
    table (no index shift), full-width products: the reference for the
    engine's shared trig tables."""
    n_max, l = trunc.n_max, params.l
    table = EigenvalueTable(params, n_max + l + 2)
    w = poisson_weights(n_max, params.alpha)
    m = np.arange(n_max + 1, dtype=float)
    cw = (w, w * (m + l), w, w * ((m + l - 1) * (m + l)), w, w * (m + l + 1))
    a, b = osc_pair(table.sqrt_d[None, :], table.d, t[:, None], params.delta / 2.0)
    d_prime, sqrt_d_prime = direct_d_prime(params, n_max + l + 2)
    ap, bp = osc_pair(sqrt_d_prime[None, :], d_prime, t[:, None], params.delta / 2.0)
    ab1, ab2 = a * bp, b * ap
    out = np.empty((2, 6, t.size), dtype=complex)
    ac = np.conj(params.alpha)
    for k, off in enumerate((0, 0, 1, 0, 2, 1)):
        out[0, k] = np.add.reduce(ab1[:, l + off : l + off + n_max + 1] * cw[k], axis=-1)
        out[1, k] = np.add.reduce(ab2[:, off : off + n_max + 1] * cw[k], axis=-1)
        p = l + (0, -1, 1, -2, 2, 0)[k]
        pref = (1.0 if p == 0 else 0.0) if params.alpha == 0 else ac**p
        for j, c in enumerate((-1j * params.g * pref, 1j * params.g * pref)):
            # the engine's real-arithmetic complex product
            re, im = out[j, k].real.copy(), out[j, k].imag.copy()
            out[j, k].real = re * c.real - im * c.imag
            out[j, k].imag = re * c.imag + im * c.real
    return out


def direct_s_sums(params, trunc, t):
    """S1 and S2 from plain whole-grid trig of t sqrt(D), each shifted window
    weighted and reduced on its own: the reference for the engine's chunked,
    in-place S sums."""
    n_max = trunc.n_max
    table = EigenvalueTable(params, n_max + 2)
    arg = t[:, None] * table.sqrt_d[None, :]
    sin, cos = np.sin(arg), np.cos(arg)
    zero = table.d == 0.0
    s2d = np.where(zero, (t * t)[:, None], sin * sin / np.where(zero, 1.0, table.d))
    s1 = cos * cos + (params.delta / 2.0) ** 2 * s2d
    w = perturbation._poisson_weights(n_max, params.alpha)
    return tuple(np.stack([np.add.reduce(x[:, k : k + n_max + 1] * w, axis=-1)
                           for k in range(3)]) for x in (s1, s2d))


#: TILE_CASES, the l > n_max + 2 case, and the paper's alpha 12 at n_max 250
S_SUM_CASES = TILE_CASES + [
    (make_params(l=5, omega0=5.0, alpha=0.3), TruncationPolicy(1, tail_tol=1e-2)),
    (make_params(l=1, alpha=12.0), TruncationPolicy(250)),
    (make_params(l=4, omega0=4.0, alpha=12.0), TruncationPolicy(250)),
]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("params, trunc", S_SUM_CASES)
def test_s_sums_match_direct_evaluation(params, trunc, cpus):
    t = np.linspace(0.0, 5.0, 2500)
    S1, S2 = direct_s_sums(params, trunc, t)
    with mock.patch.object(model, "_usable_cpus", lambda: cpus), \
            mock.patch.object(model, "_MIN_WORKER_CELLS", 1):
        for coherence in (False, True):
            tables = series_tables(t, params, trunc, coherence=coherence)
            assert_bitwise(tables.S1, S1)
            assert_bitwise(tables.S2, S2)
        cold = series_tables(t, params, trunc, coherence=False, zero_temperature=True)
    assert_bitwise(cold.S2, S2[:1])


@pytest.mark.parametrize("params, trunc", CASES + [
    (make_params(l=2, g=0.0, omega0=2.0, alpha=1.5), TruncationPolicy(30)),  # D = 0
    (make_params(l=5, omega0=5.0, alpha=0.3), TruncationPolicy(1, tail_tol=1e-2)),  # l > n_max + 2
])
def test_shared_tables_match_direct_primed_evaluation(params, trunc):
    t = np.linspace(0.0, 5.0, 400)
    assert_bitwise(series_tables(t, params, trunc).tilde, direct_tilde(params, trunc, t))


class TestGridSplit:
    @pytest.mark.parametrize("params, trunc", CASES)
    def test_rho01_split_across_chunk_boundary(self, params, trunc):
        thermal = thermal_from_inv_beta(0.12, params)
        t = np.linspace(0.0, 6.0, 2500)  # many chunks of the default tile
        whole = series_tables(t, params, trunc).rho01(thermal)
        parts = np.concatenate([series_tables(t[a:b], params, trunc).rho01(thermal)
                                for a, b in ((0, 1000), (1000, 2100), (2100, None))])
        assert_bitwise(whole, parts)

    @settings(max_examples=25, deadline=None)
    @given(case=st.sampled_from(range(len(TILE_CASES))),
           n=st.integers(1, 120),
           cuts=st.lists(st.integers(1, 119), max_size=4),
           tile=st.integers(1, 4096))
    # one-row tiles (fewer cells than columns); tiles crossing the grid end;
    # the D = 0 columns
    @example(case=2, n=120, cuts=[], tile=1)
    @example(case=0, n=97, cuts=[], tile=2000)
    @example(case=3, n=45, cuts=[7], tile=200)
    def test_any_split_and_chunking_is_bitwise_equal(self, case, n, cuts, tile):
        params, trunc = TILE_CASES[case]
        thermal = thermal_from_inv_beta(0.16, params)
        t = np.linspace(0.0, 5.0, n)
        whole = series_tables(t, params, trunc)
        bounds = [0, *sorted({c for c in cuts if c < n}), n]
        with mock.patch.object(model, "_TILE_CELLS", tile):
            pieces = [series_tables(t[a:b], params, trunc) for a, b in zip(bounds, bounds[1:])]
        assert_bitwise(whole.pe(thermal), np.concatenate([p.pe(thermal) for p in pieces]))
        assert_bitwise(whole.rho01(thermal),
                       np.concatenate([p.rho01(thermal) for p in pieces]))
        for name in ("S1", "S2", "tilde"):
            assert_bitwise(getattr(whole, name),
                           np.concatenate([getattr(p, name) for p in pieces], axis=-1))


    @pytest.mark.parametrize("params, trunc", CASES + [
        (make_params(l=3, alpha=1.2 + 0.5j), TruncationPolicy(40)),
        (make_params(l=2, alpha=-0.8 - 1.3j), TruncationPolicy(40))])
    def test_every_single_sample_build_equals_its_grid_column(self, params, trunc):
        # at complex alpha the conj(alpha)^p prefactor must not take another
        # arithmetic path for a one-element grid than for a long one
        thermal = thermal_from_inv_beta(0.1, params)
        t = np.linspace(0.0, 5.0, 50)
        grid = series_tables(t, params, trunc)
        ones = [series_tables(t[i : i + 1], params, trunc) for i in range(t.size)]
        assert_bitwise(grid.pe(thermal), np.concatenate([o.pe(thermal) for o in ones]))
        assert_bitwise(grid.rho01(thermal), np.concatenate([o.rho01(thermal) for o in ones]))


class TestWorkerThreads:
    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(range(len(TILE_CASES))),
           workers=st.sampled_from([1, 2, 3, 7]),
           n=st.integers(1, 60),
           coherence=st.booleans(),
           tile=st.integers(1, 4096))
    # one sample; fewer samples than workers; chunks crossing the grid end
    @example(case=2, workers=7, n=1, coherence=True, tile=DEFAULT_TILE)
    @example(case=0, workers=7, n=3, coherence=False, tile=DEFAULT_TILE)
    @example(case=2, workers=3, n=47, coherence=True, tile=DEFAULT_TILE)
    @example(case=1, workers=2, n=41, coherence=False, tile=DEFAULT_TILE)
    # one-row tiles; tiles of a few rows crossing the grid end; D = 0
    @example(case=2, workers=3, n=60, coherence=True, tile=1)
    @example(case=0, workers=2, n=59, coherence=False, tile=200)
    @example(case=1, workers=7, n=53, coherence=True, tile=150)
    @example(case=3, workers=2, n=29, coherence=True, tile=100)
    @example(case=3, workers=3, n=40, coherence=False, tile=1)
    def test_worker_count_changes_no_bit(self, case, workers, n, coherence, tile):
        # TILE_CASES holds real and complex alpha; 7 workers is more threads
        # than cores, and a short switch interval interleaves them finely
        params, trunc = TILE_CASES[case]
        thermal = thermal_from_inv_beta(0.16, params)
        t = np.linspace(0.0, 5.0, n)
        with mock.patch.object(model, "_usable_cpus", lambda: 1):
            serial = series_tables(t, params, trunc, coherence=coherence)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(model, "_usable_cpus", lambda: workers), \
                    mock.patch.object(model, "_MIN_WORKER_CELLS", 1), \
                    mock.patch.object(model, "_TILE_CELLS", tile):
                threaded = series_tables(t, params, trunc, coherence=coherence)
        finally:
            sys.setswitchinterval(interval)
        assert_bitwise(threaded.pe(thermal), serial.pe(thermal))
        if coherence:
            assert_bitwise(threaded.rho01(thermal), serial.rho01(thermal))
        assert_tables_bitwise(threaded, serial)

    @pytest.mark.parametrize("cpus, tile, n, min_cells, workers", [
        (2, DEFAULT_TILE, 5000, 1, 2), (3, DEFAULT_TILE, 5000, 1, 3), (7, 4140, 95, 1, 7),
        (7, 4140, 4, 1, 4), (3, 6624, 1, 1, 1),  # tiles of 10 and 16 rows
        # 49 trig columns (46 and s = 3 structural ones; workers are sized
        # on the 46): a 2000-row grid holds two workers' 2^15 cells, a
        # 500-row grid not even one
        (7, DEFAULT_TILE, 2000, 1 << 15, 2), (2, DEFAULT_TILE, 500, 1 << 15, 1)])
    def test_workspace_rows_summed_over_workers_stay_within_the_grid(
            self, cpus, tile, n, min_cells, workers):
        params, trunc = CASES[2]
        shapes = []
        empty = np.empty

        def spy(shape, *args, **kwargs):
            out = empty(shape, *args, **kwargs)
            shapes.append((out.shape, out.dtype))
            return out

        with mock.patch.object(model, "_usable_cpus", lambda: cpus), \
                mock.patch.object(model, "_MIN_WORKER_CELLS", min_cells), \
                mock.patch.object(model, "_TILE_CELLS", tile), \
                mock.patch.object(perturbation.np, "empty", spy):
            series_tables(np.linspace(0.0, 5.0, n), params, trunc)
        # trig (w, 2, rows, n), sq (w, 2, rows, n), prod (w, rows, n); the
        # per-time output arrays are 2-d or complex
        workspaces = [s for s, dtype in shapes if len(s) >= 3 and dtype == float]
        assert len(workspaces) == 3
        assert workspaces[0][-1] == 49
        # 9 float cells a row of the 46 columns: 414 a row of the tile
        for shape in workspaces:
            assert shape[0] == workers
            assert shape[0] * shape[-2] <= n
            assert shape[-2] == max(1, min(n // workers, tile // 414))


class TestOneBuildManyTemperatures:
    @pytest.mark.parametrize("params, trunc", CASES)
    def test_grid_build_matches_fresh_build_per_temperature(self, params, trunc):
        t = np.linspace(0.0, 4.0, 150)
        tables = series_tables(t, params, trunc)
        for inv_beta in INV_BETAS:
            thermal = thermal_from_inv_beta(inv_beta, params)
            fresh = series_tables(t, params, trunc)
            assert_bitwise(tables.pe(thermal), fresh.pe(thermal))
            assert_bitwise(tables.rho01(thermal), fresh.rho01(thermal))
            assert_bitwise(tables.pe(thermal),
                           series_tables(t, params, trunc, coherence=False).pe(thermal))

    @pytest.mark.parametrize("params, trunc", CASES)
    def test_single_sample_build_matches_fresh_build_per_theta(self, params, trunc):
        tables = series_tables([0.7], params, trunc)
        for th in THETA_GRID:
            thermal = theta_for_angle(float(th), params.omega, params.omega0)
            fresh = series_tables([0.7], params, trunc)
            assert_bitwise(tables.pe(thermal), fresh.pe(thermal))
            assert_bitwise(tables.rho01(thermal), fresh.rho01(thermal))

    @pytest.mark.parametrize("params, trunc", CASES[:2] + [
        (make_params(l=l), TruncationPolicy.adaptive(make_params(l=l))) for l in (1, 2)])
    def test_validation_grid_columns_match_single_sample_builds(self, params, trunc):
        # the validation suite reads t = 0 and its check times off one build
        # where it used to build once per time (real alpha; its complex-alpha
        # case keeps a one-sample build)
        grid = series_tables([0.0, 0.5, 1.0], params, trunc)
        for col, t in enumerate((0.0, 0.5, 1.0)):
            one = series_tables([t], params, trunc)
            assert_bitwise(grid.tilde[:, :, col], one.tilde[:, :, 0])
            for th in THETA_GRID:
                thermal = theta_for_angle(float(th), params.omega, params.omega0)
                assert_bitwise(grid.pe(thermal)[col], one.pe(thermal)[0])
                assert_bitwise(grid.rho01(thermal)[col], one.rho01(thermal)[0])


class TestPeOnlyBuild:
    @pytest.mark.parametrize("params, trunc", CASES)
    def test_pe_equals_full_build(self, params, trunc):
        t = np.linspace(0.0, 6.0, 2300)
        full = series_tables(t, params, trunc)
        pe_only = series_tables(t, params, trunc, coherence=False)
        assert pe_only.tilde is None
        assert_bitwise(pe_only.S1, full.S1)
        assert_bitwise(pe_only.S2, full.S2)
        for inv_beta in INV_BETAS:
            thermal = thermal_from_inv_beta(inv_beta, params)
            assert_bitwise(pe_only.pe(thermal), full.pe(thermal))

    def test_coherence_needs_a_full_build(self):
        params, trunc = CASES[0]
        tables = series_tables([1.0], params, trunc, coherence=False)
        assert tables.tilde is None
        with pytest.raises(ValueError):
            tables.rho01(thermal_from_inv_beta(0.1, params))


def as_int64(values):
    """The bits of a float array, signed zeros and nan payloads included."""
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


class TestZeroTemperatureBuild:
    @settings(max_examples=60, deadline=None)
    @given(l=st.integers(1, 6),
           alpha=st.sampled_from([0.0, 0.4, 1.5, 3.0, -2.2, 1.2 + 0.5j, -0.3 - 1.1j, 2.5j]),
           g=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
           omega0=st.sampled_from([1.0, 2.5]),  # detuned where omega0 != l
           n_max=st.integers(1, 40),
           n=st.integers(1, 90),
           t_stop=st.sampled_from([0.0, 0.7, 5.0, 40.0]),
           cpus=st.integers(1, 3),
           tile=st.integers(1, 4096))
    # resonance at g = 0: every D_m is 0; one-row tiles; a t = 0 grid
    @example(l=2, alpha=1.5, g=0.0, omega0=2.0, n_max=30, n=45, t_stop=5.0, cpus=2, tile=200)
    @example(l=1, alpha=3.0, g=1.0, omega0=1.0, n_max=40, n=90, t_stop=40.0, cpus=3, tile=1)
    @example(l=4, alpha=0.0, g=1.0, omega0=1.0, n_max=5, n=3, t_stop=0.0, cpus=1, tile=1)
    def test_pe_is_bitwise_the_full_build(self, l, alpha, g, omega0, n_max, n, t_stop, cpus,
                                          tile):
        params = make_params(l=l, g=g, omega0=omega0, alpha=alpha)
        trunc = TruncationPolicy(n_max, tail_tol=1.0)
        cold = thermal_from_inv_beta(0.0, params)
        t = np.linspace(0.0, t_stop, n)
        full = series_tables(t, params, trunc).pe(cold)
        with mock.patch.object(model, "_usable_cpus", lambda: cpus), \
                mock.patch.object(model, "_MIN_WORKER_CELLS", 1), \
                mock.patch.object(model, "_TILE_CELLS", tile):
            tables = series_tables(t, params, trunc, coherence=False, zero_temperature=True)
        assert tables.S1 is None and tables.S2.shape == (1, n)
        for inv_beta in (0.0, 1e-320):
            assert_bitwise(as_int64(tables.pe(thermal_from_inv_beta(inv_beta, params))),
                           as_int64(full))

    @pytest.mark.parametrize("l, alpha, n_max", [(1, 3.0, 50), (2, 4.0, 60), (3, 2.5 + 1.0j, 50),
                                                 (4, 2.0, 50)])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_sweep_rows_are_those_of_the_pe_only_build(self, monkeypatch, l, alpha, n_max,
                                                       cpus):
        params = make_params(l=l, alpha=alpha)
        trunc = TruncationPolicy(n_max)
        monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
        kinds = []
        build = perturbation.series_tables
        monkeypatch.setattr(perturbation, "series_tables", lambda *a, **k: kinds.append(
            k["zero_temperature"]) or build(*a, **k))
        cold = period_vs_temperature_sweep(params, [0.0, 1e-320], trunc)
        monkeypatch.setattr(perturbation, "series_tables", lambda *a, **k: build(
            *a, **{**k, "zero_temperature": False}))
        assert period_vs_temperature_sweep(params, [0.0, 1e-320], trunc) == cold
        assert kinds == [True]
        assert cold[0].period is not None and cold[0].physical

    def test_a_sweep_with_a_temperature_builds_every_sum(self, monkeypatch):
        params, trunc = CASES[0]
        kinds = []
        build = perturbation.series_tables
        monkeypatch.setattr(perturbation, "series_tables", lambda *a, **k: kinds.append(
            k["zero_temperature"]) or build(*a, **k))
        period_vs_temperature_sweep(params, [0.0, 0.08], trunc)
        assert kinds == [False]

    def test_tables_refuse_every_other_use(self):
        params, trunc = CASES[2]
        tables = series_tables([0.0, 0.5], params, trunc, coherence=False,
                               zero_temperature=True)
        assert tables.S1 is None and tables.tilde is None
        with pytest.raises(ValueError, match="zero temperature"):
            tables.pe(thermal_from_inv_beta(0.1, params))
        with pytest.raises(ValueError, match="zero temperature"):
            tables.pe_terms
        with pytest.raises(ValueError, match="coherence"):
            tables.rho01(thermal_from_inv_beta(0.0, params))
        with pytest.raises(ValueError, match="coherence=False"):
            series_tables([0.5], params, trunc, zero_temperature=True)


class TestPrimedIndexShift:
    @pytest.mark.parametrize("name", PRESETS)
    def test_d_prime_is_d_shifted_by_l_at_every_preset(self, name):
        doc = build_preset(name)
        params = ModelParams(**doc["model"])
        n_max = doc["truncation"]["n_max"]
        l = params.l
        table = EigenvalueTable(params, n_max + l + 2)
        d_prime, sqrt_d_prime = direct_d_prime(params, n_max + l + 2)
        assert_bitwise(d_prime[l:], table.d[:-l])
        assert_bitwise(sqrt_d_prime[l:], table.sqrt_d[:-l])
        # the joined columns both engines read are D'_0 .. D'_(l-1), then D
        assert_bitwise(table.joined_d, np.concatenate([d_prime[:l], table.d]))
        assert_bitwise(table.joined_sqrt_d, np.concatenate([sqrt_d_prime[:l], table.sqrt_d]))
        # the products the shift relies on are exact integers
        assert (n_max + l + 2) ** l < 2**53

    def test_detuned_shift(self):
        params = make_params(l=3, g=0.8, omega0=2.5)
        table = EigenvalueTable(params, 60)
        assert params.delta != 0
        d_prime = direct_d_prime(params, 60)[0]
        assert_bitwise(d_prime[3:], table.d[:-3])
        assert np.all(d_prime[:3] == (params.delta / 2.0) ** 2)


def test_zero_time_identities_at_every_temperature():
    params, trunc = CASES[1]
    tables = series_tables([0.0], params, trunc)
    for inv_beta in INV_BETAS:
        thermal = thermal_from_inv_beta(inv_beta, params)
        assert tables.pe(thermal)[0] == pytest.approx(thermal.sin_atom**2, abs=1e-12)
        assert abs(tables.rho01(thermal)[0]) < 1e-12


def test_validation_suite_builds_at_most_five_tables(monkeypatch):
    # one build per parameter set, plus the P_e-only zero-temperature grids
    builds = []
    build = perturbation.series_tables
    monkeypatch.setattr(perturbation, "series_tables",
                        lambda *a, **k: builds.append(a[0]) or build(*a, **k))
    assert run_validation_suite()["passed"]
    assert len(builds) <= 5


@pytest.mark.parametrize("coherence", [True, False])
def test_truncation_warning_names_the_calling_line(coherence):
    with pytest.warns(TruncationWarning) as record:
        line = inspect.currentframe().f_lineno + 1
        series_tables([1.0], make_params(alpha=3.0), TruncationPolicy(5), coherence=coherence)
    assert [(w.filename, w.lineno) for w in record] == [(__file__, line)]


@pytest.mark.parametrize("t", [0.7, np.zeros((2, 3))])
def test_time_must_be_a_1d_grid(t):
    params, trunc = CASES[0]
    with pytest.raises(ValueError, match="1-d"):
        series_tables(t, params, trunc)


@pytest.mark.parametrize("coherence", [True, False])
def test_zero_eigenvalues_take_their_small_coupling_limit(coherence):
    # g = 0 at resonance: every D_m is 0, sin^2(sqrt(D) t)/D -> t^2 and
    # cos^2(sqrt(D) t) -> 1 in every summand
    params, trunc = TILE_CASES[3]
    t = np.linspace(0.0, 5.0, 11)
    tables = series_tables(t, params, trunc, coherence=coherence)
    mass = poisson_weights(trunc.n_max, params.alpha).sum()
    np.testing.assert_allclose(tables.S1, np.full((3, t.size), mass), rtol=1e-14)
    np.testing.assert_allclose(tables.S2, np.tile(t * t * mass, (3, 1)), rtol=1e-14)
