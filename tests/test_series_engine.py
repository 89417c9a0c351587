"""The series engine: one table build, evaluated at many temperatures.

Every value must be bitwise independent of how the tables were built: of the
batching of the time grid, of the chunk size, of whether the coherence
tables were built alongside P_e, and of how many temperatures one build
serves.
"""

import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermaljcm import perturbation
from thermaljcm.cli import PRESETS, build_preset
from thermaljcm.model import EigenvalueTable, ModelParams, _osc_pair, thermal_from_inv_beta
from thermaljcm.perturbation import TruncationPolicy, TruncationWarning, series_tables
from thermaljcm.validation import THETA_GRID, run_validation_suite, theta_for_angle

INV_BETAS = (0.0, 0.04, 0.08, 0.12, 0.16)


def make_params(l=1, g=1.0, omega0=1.0, omega=1.0, alpha=2.0):
    return ModelParams(l=l, g=g, omega0=omega0, omega=omega, alpha=alpha)


# resonant presets plus a detuned, complex-amplitude case (delta != 0 keeps
# the D' columns n < l away from zero)
CASES = [
    (make_params(l=1, alpha=3.0), TruncationPolicy(60)),
    (make_params(l=2, alpha=2.5), TruncationPolicy(50)),
    (make_params(l=3, g=0.8, omega0=2.5, alpha=1.2 + 0.5j), TruncationPolicy(40)),
]


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def direct_tilde(params, trunc, t):
    """The twelve coherence series with A', B' evaluated directly on the D'
    table (no index shift), full-width products: the reference for the
    engine's shared trig tables."""
    n_max, l = trunc.n_max, params.l
    table = EigenvalueTable(params, n_max + l + 2)
    w = np.exp(perturbation.poisson_log_weight(np.arange(n_max + 1), params.alpha))
    m = np.arange(n_max + 1, dtype=float)
    cw = (w, w * (m + l), w, w * ((m + l - 1) * (m + l)), w, w * (m + l + 1))
    a, b = _osc_pair(table.sqrt_d[None, :], table.d, t[:, None], params.delta / 2.0)
    ap, bp = _osc_pair(table.sqrt_d_prime[None, :], table.d_prime, t[:, None],
                       params.delta / 2.0)
    ab1, ab2 = a * bp, b * ap
    out = np.empty((2, 6, t.size), dtype=complex)
    ac = np.conj(params.alpha)
    for k, off in enumerate((0, 0, 1, 0, 2, 1)):
        out[0, k] = np.add.reduce(ab1[:, l + off : l + off + n_max + 1] * cw[k], axis=-1)
        out[1, k] = np.add.reduce(ab2[:, off : off + n_max + 1] * cw[k], axis=-1)
        p = l + (0, -1, 1, -2, 2, 0)[k]
        pref = (1.0 if p == 0 else 0.0) if params.alpha == 0 else ac**p
        out[0, k] *= -1j * params.g * pref
        out[1, k] *= 1j * params.g * pref
    return out


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
        t = np.linspace(0.0, 6.0, 2500)  # two chunks of the default 2048
        whole = series_tables(t, params, trunc).rho01(thermal)
        parts = np.concatenate([series_tables(t[a:b], params, trunc).rho01(thermal)
                                for a, b in ((0, 1000), (1000, 2100), (2100, None))])
        assert_bitwise(whole, parts)

    @settings(max_examples=25, deadline=None)
    @given(case=st.sampled_from(range(len(CASES))),
           n=st.integers(1, 120),
           cuts=st.lists(st.integers(1, 119), max_size=4),
           chunk=st.integers(1, 64))
    def test_any_split_and_chunking_is_bitwise_equal(self, case, n, cuts, chunk):
        params, trunc = CASES[case]
        thermal = thermal_from_inv_beta(0.16, params)
        t = np.linspace(0.0, 5.0, n)
        whole = series_tables(t, params, trunc)
        bounds = [0, *sorted({c for c in cuts if c < n}), n]
        with mock.patch.object(perturbation, "_T_CHUNK", chunk):
            pieces = [series_tables(t[a:b], params, trunc) for a, b in zip(bounds, bounds[1:])]
        assert_bitwise(whole.pe(thermal), np.concatenate([p.pe(thermal) for p in pieces]))
        assert_bitwise(whole.rho01(thermal),
                       np.concatenate([p.rho01(thermal) for p in pieces]))


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


class TestPrimedIndexShift:
    @pytest.mark.parametrize("name", PRESETS)
    def test_d_prime_is_d_shifted_by_l_at_every_preset(self, name):
        doc = build_preset(name)
        params = ModelParams(**doc["model"])
        n_max = doc["truncation"]["n_max"]
        l = params.l
        table = EigenvalueTable(params, n_max + l + 2)
        assert_bitwise(table.d_prime[l:], table.d[:-l])
        assert_bitwise(table.sqrt_d_prime[l:], table.sqrt_d[:-l])
        # the products the shift relies on are exact integers
        assert (n_max + l + 2) ** l < 2**53

    def test_detuned_shift(self):
        params = make_params(l=3, g=0.8, omega0=2.5)
        table = EigenvalueTable(params, 60)
        assert params.delta != 0
        assert_bitwise(table.d_prime[3:], table.d[:-3])
        assert np.all(table.d_prime[:3] == (params.delta / 2.0) ** 2)


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
