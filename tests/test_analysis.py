"""Approximations, envelope detection, period extraction, sweeps."""

import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thermaljcm import model
from thermaljcm.analysis import (
    NoRevivalError,
    TimeSeries,
    approx_cos_sum,
    envelope,
    extract_revival_period,
    period_vs_temperature_sweep,
    revival_envelope,
)
from thermaljcm.model import (
    LimitError,
    ModelParams,
    bogoliubov_angles,
    rabi_period,
    t0_period,
    tau1,
    thermal_from_inv_beta,
)
from thermaljcm.perturbation import TruncationPolicy, series_tables

COLD = bogoliubov_angles(math.inf, 1.0, 1.0)


def make_params(l=1, g=1.0, omega0=1.0, omega=1.0, alpha=6.0):
    return ModelParams(l=l, g=g, omega0=omega0, omega=omega, alpha=alpha)


def synthetic_revival(t, revival_time, half_cycles):
    """Collapse/revival shape 1/2 - 1/2 e^(cos(2 pi t/T) - 1) cos(w t).

    With an odd number of carrier half-cycles per revival period the signal
    has an exact maximum at t = T, and |values - 1/2| peaks at every multiple
    of T/half_cycles, including each k T.
    """
    assert half_cycles % 2 == 1
    carrier = half_cycles * math.pi / revival_time
    return 0.5 - 0.5 * np.exp(np.cos(2 * np.pi * t / revival_time) - 1.0) * np.cos(
        carrier * t)


class TestApproxCosSum:
    def test_normalized_to_one_at_t_zero(self):
        lhs, rhs = approx_cos_sum(6.0, 1, 1.0, 0.0)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == 1.0

    def test_improves_with_amplitude(self):
        # max deviation over g t in [0, 1/(2 |alpha|)] shrinks as alpha grows
        devs = []
        for alpha in (4.0, 8.0, 16.0):
            t = np.linspace(0.0, 1.0 / (2 * alpha), 300)
            lhs, rhs = approx_cos_sum(alpha, 1, 1.0, t)
            devs.append(np.max(np.abs(lhs - rhs)))
        assert devs[0] > devs[1] > devs[2]

    def test_two_photon_envelope_period(self):
        # the envelope factor is exactly pi/g periodic at l = 2
        t = np.linspace(0.0, 2.0, 50)
        a = revival_envelope(7.0, 2, 1.0, t)
        b = revival_envelope(7.0, 2, 1.0, t + math.pi)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rejects_vacuum(self):
        with pytest.raises(ValueError):
            approx_cos_sum(0.0, 1, 1.0, 0.5)

    def test_vacuum_is_refused_as_an_amplitude(self):
        with pytest.raises(LimitError) as exc:
            approx_cos_sum(0.0, 2, 1.0, np.linspace(0.0, 1.0, 5))
        assert exc.value.param == "alpha"

    def test_scalar_time_gives_the_grid_sample(self):
        t = np.linspace(0.0, 2.0, 9)
        grid_lhs, grid_rhs = approx_cos_sum(7.0, 2, 1.0, t)
        grid_env = revival_envelope(7.0, 2, 1.0, t)
        for i in (0, 4, 8):
            lhs, rhs = approx_cos_sum(7.0, 2, 1.0, float(t[i]))
            env = revival_envelope(7.0, 2, 1.0, float(t[i]))
            assert np.ndim(lhs) == np.ndim(rhs) == np.ndim(env) == 0
            assert (lhs, rhs, env) == (grid_lhs[i], grid_rhs[i], grid_env[i])

    @settings(max_examples=30, deadline=None)
    @given(l=st.integers(1, 4), alpha=st.sampled_from([0.5, 2.0, 4.5 + 1.0j, 7.0]),
           workers=st.integers(1, 3), n=st.integers(0, 80), tile=st.integers(1, 2048))
    # one-row tiles; one sample; more workers than samples; tiles crossing the grid end
    @example(l=1, alpha=7.0, workers=3, n=80, tile=1)
    @example(l=2, alpha=2.0, workers=2, n=1, tile=2048)
    @example(l=3, alpha=4.5 + 1.0j, workers=3, n=2, tile=300)
    @example(l=1, alpha=2.0, workers=2, n=41, tile=200)
    def test_worker_count_changes_no_bit(self, l, alpha, workers, n, tile):
        # the lhs runs on the model's (t, n) runner: each sample is reduced on
        # its own, whichever chunk or thread holds it
        t = np.linspace(0.0, 3.0, n)
        with mock.patch.object(model, "_usable_cpus", lambda: 1):
            serial, rhs = approx_cos_sum(alpha, l, 1.0, t)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(model, "_usable_cpus", lambda: workers), \
                    mock.patch.object(model, "_MIN_WORKER_CELLS", 1), \
                    mock.patch.object(model, "_TILE_CELLS", tile):
                threaded, threaded_rhs = approx_cos_sum(alpha, l, 1.0, t)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.shape == t.shape and threaded.tobytes() == serial.tobytes()
        assert threaded_rhs.tobytes() == rhs.tobytes()


def pe_collapse_revival_approx(t, params: ModelParams):
    """Resonant large-amplitude approximation of the excitation probability,
    1/2 - 1/2 sum_m w_m cos(2 g m^(l/2) t).  Derived at zero detuning; a
    warning is issued when used off resonance."""
    if params.delta != 0:
        warnings.warn("collapse/revival approximation is derived at zero detuning",
                      UserWarning, stacklevel=2)
    lhs, _ = approx_cos_sum(params.alpha, params.l, params.g, t)
    return 0.5 - 0.5 * lhs


class TestCollapseRevivalApprox:
    def test_zero_at_t_zero(self):
        p = make_params(l=1, alpha=6.0)
        assert abs(pe_collapse_revival_approx(0.0, p)) < 1e-12

    def test_long_time_average_is_half(self):
        p = make_params(l=1, alpha=6.0)
        t = np.linspace(5.0, 30.0, 4000)  # many Rabi periods, between revivals
        mean = float(np.mean(pe_collapse_revival_approx(t, p)))
        assert 0.45 < mean < 0.55

    def test_warns_off_resonance(self):
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=6.0)
        with pytest.warns(UserWarning, match="zero detuning"):
            pe_collapse_revival_approx(0.3, p)

    def test_revival_center_matches_exact_series(self):
        # envelope maxima of the approximation and of the exact series sit
        # within two Rabi periods of each other around the revival
        p = make_params(l=1, alpha=6.0)
        trunc = TruncationPolicy.adaptive(p)
        T0 = t0_period(p)
        dt = tau1(p) / 40
        t = np.arange(0.6 * T0, 1.4 * T0, dt)
        approx = pe_collapse_revival_approx(t, p)
        exact = series_tables(t, p, trunc, coherence=False).pe(COLD)
        t_approx = t[np.argmax(np.abs(approx - 0.5))]
        t_exact = t[np.argmax(np.abs(exact - 0.5))]
        assert abs(t_approx - t_exact) <= 2 * tau1(p)


class TestEnvelope:
    def test_constant_series(self):
        series = TimeSeries(0.0, 0.1, np.full(50, 0.8))
        env = envelope(series, 1.0)
        np.testing.assert_allclose(env.values, 0.3, atol=1e-15)

    def test_pure_sinusoid_flattens(self):
        tau = 2.0
        t = np.arange(0.0, 40.0, 0.01)
        series = TimeSeries(0.0, 0.01, 0.5 + 0.5 * np.sin(2 * np.pi * t / tau))
        env = envelope(series, tau)
        interior = env.values[300:-300]
        np.testing.assert_allclose(interior, 0.5, atol=1e-3)

    def test_synthetic_revival_maxima(self):
        T = 10.0
        dt = 0.01
        t = np.arange(0.0, 35.0, dt)
        series = TimeSeries(0.0, dt, synthetic_revival(t, T, half_cycles=81))
        env = envelope(series, 0.5)
        for k in (1, 2, 3):
            lo = int((k * T - 1.0) / dt)
            hi = int((k * T + 1.0) / dt)
            peak = t[lo + np.argmax(np.abs(series.values[lo:hi] - 0.5))]
            assert abs(peak - k * T) <= dt + 1e-12
            assert env.values[int(k * T / dt)] == pytest.approx(0.5, abs=1e-2)

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(2)
        values = 0.5 + 0.4 * rng.standard_normal(500)
        series = TimeSeries(0.0, 0.05, values)
        scaled = TimeSeries(0.0, 0.05, 0.5 + 3.0 * (values - 0.5))
        np.testing.assert_allclose(envelope(scaled, 0.6).values,
                                   3.0 * envelope(series, 0.6).values, rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 8, 61])
    def test_matches_scipy_maximum_filter(self, n):
        # scipy is the reference implementation of a centred 'nearest'-mode
        # maximum filter; max is exact, so the agreement is bitwise
        from scipy.ndimage import maximum_filter1d

        values = 0.5 + np.random.default_rng(n).standard_normal(n)
        series = TimeSeries(0.0, 0.1, values)
        for size in range(2, n + 6):
            env = envelope(series, size * 0.1)
            ref = maximum_filter1d(np.abs(values - 0.5), size=size, mode="nearest")
            assert env.values.tobytes() == ref.tobytes(), size

    def test_rejects_short_window(self):
        series = TimeSeries(0.0, 0.1, np.zeros(30))
        with pytest.raises(ValueError):
            envelope(series, 0.15)

    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0, "values": np.zeros(5)},
        {"dt": 0.1, "values": np.zeros(1)},
        {"dt": 0.1, "values": np.array([0.0, np.nan])},
        {"dt": 0.1, "values": np.zeros((2, 2))},
    ])
    def test_time_series_validation(self, kwargs):
        with pytest.raises(ValueError):
            TimeSeries(t0=0.0, **kwargs)


class TestExtractRevivalPeriod:
    def test_synthetic_known_period(self):
        p = make_params(l=1, alpha=6.0)
        T = t0_period(p)  # prior matches construction at zero temperature
        dt = tau1(p) / 40
        t = np.arange(0.0, 2.0 * T, dt)
        series = TimeSeries(0.0, dt, synthetic_revival(t, T, half_cycles=143))
        assert abs(extract_revival_period(series, p, COLD) - T) <= dt

    @pytest.mark.parametrize("l, alpha", [(1, 6.0), (2, 7.0), (3, 7.0), (4, 8.0)])
    def test_zero_temperature_figure_periods(self, l, alpha):
        # extraction on the zero-temperature curve lands on T0(l) within 2 tau1;
        # n_max 110 leaves a ~1e-7 tail at alpha = 8, harmless at this tolerance
        p = make_params(l=l, alpha=alpha)
        trunc = TruncationPolicy(110, tail_tol=1e-6)
        dt = rabi_period(p) / 40
        n = int(math.ceil(1.85 * t0_period(p) / dt)) + 1
        t = dt * np.arange(n)
        series = TimeSeries(0.0, dt, series_tables(t, p, trunc, coherence=False).pe(COLD))
        period = extract_revival_period(series, p, COLD)
        assert abs(period - t0_period(p)) <= 2 * tau1(p)

    def test_two_photon_figure_parameters(self):
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=7.0)
        thermal = thermal_from_inv_beta(0.1, p)
        dt = rabi_period(p) / 40
        t = np.arange(0.0, 6.0, dt)
        pe = series_tables(t, p, TruncationPolicy(110), coherence=False).pe(thermal)
        period = extract_revival_period(TimeSeries(0.0, dt, pe), p, thermal)
        assert abs(period - 3.142) <= tau1(p)

    def test_small_amplitude_has_no_revival(self):
        p = make_params(l=1, alpha=0.2)
        thermal = thermal_from_inv_beta(0.1, p)
        dt = 0.02
        t = np.arange(0.0, 100.0, dt)
        pe = series_tables(t, p, TruncationPolicy(80), coherence=False).pe(thermal)
        with pytest.raises(NoRevivalError):
            extract_revival_period(TimeSeries(0.0, dt, pe), p, thermal)

    def test_rejects_coarse_grid(self):
        p = make_params(l=1, alpha=6.0)
        series = TimeSeries(0.0, tau1(p), np.zeros(1000))
        with pytest.raises(ValueError, match="coarse"):
            extract_revival_period(series, p, COLD)

    def test_rejects_short_series(self):
        p = make_params(l=1, alpha=6.0)
        series = TimeSeries(0.0, tau1(p) / 40, np.zeros(100))
        with pytest.raises(ValueError, match="span"):
            extract_revival_period(series, p, COLD)


class TestPeriodSweep:
    def test_zero_temperature_row_matches_cold_extraction(self):
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=7.0)
        trunc = TruncationPolicy(110)
        rows = period_vs_temperature_sweep(p, [0.0], trunc)
        dt = rabi_period(p) / 40
        n = int(math.ceil(1.85 * t0_period(p) / dt)) + 1
        t = dt * np.arange(n)
        series = TimeSeries(0.0, dt, series_tables(t, p, trunc, coherence=False).pe(COLD))
        period = extract_revival_period(series, p, COLD)
        assert rows[0].period == period
        assert rows[0].t0_prime == t0_period(p)
        assert not rows[0].no_revival

    def test_no_revival_row_is_marked_not_fatal(self):
        p = make_params(l=1, alpha=0.2)
        rows = period_vs_temperature_sweep(p, [0.1], TruncationPolicy(80), dt=0.02)
        assert rows[0].no_revival
        assert rows[0].period is None

    def test_one_build_serves_every_row(self, monkeypatch):
        # rows of different spans slice one build on the longest grid; each
        # row equals a fresh series on its own grid, bitwise
        from thermaljcm import perturbation

        p = make_params(l=1, alpha=3.0)
        trunc = TruncationPolicy(50)
        inv_betas = [0.3, 0.0, 0.1]
        builds = []
        build = perturbation.series_tables
        monkeypatch.setattr(perturbation, "series_tables",
                            lambda *a, **k: builds.append(a[0].size) or build(*a, **k))
        rows = period_vs_temperature_sweep(p, inv_betas, trunc)
        monkeypatch.undo()
        dt = rabi_period(p) / 40
        spans = []
        for row, inv_beta in zip(rows, inv_betas):
            thermal = thermal_from_inv_beta(inv_beta, p)
            spans.append(int(math.ceil(1.85 * row.t0_prime / dt)) + 1)
            pe = build(dt * np.arange(spans[-1]), p, trunc, coherence=False).pe(thermal)
            period = extract_revival_period(TimeSeries(0.0, dt, pe), p, thermal)
            assert row.period == period
        assert len(set(spans)) == 3
        assert builds == [max(spans)]
        # the longest row is held to the sample limit before the build
        from thermaljcm import analysis

        monkeypatch.setattr(analysis, "SAMPLE_LIMIT", max(spans))
        monkeypatch.setattr(perturbation, "series_tables",
                            lambda *a, **k: builds.append(a[0].size) or build(*a, **k))
        with pytest.raises(LimitError, match="^the longest sweep row at ") as exc:
            period_vs_temperature_sweep(p, inv_betas, trunc)
        assert exc.value.param == "dt"
        assert builds == [max(spans)]

    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("dt", [None, 0.001])
    @pytest.mark.parametrize("model, param", [({"alpha": 0.0}, "alpha"), ({"g": 0.0}, "g"),
                                              ({"alpha": 0.0, "g": 0.0}, "g")])
    def test_undefined_period_is_refused_before_the_build(self, monkeypatch, l, dt, model,
                                                          param):
        # g = 0 and alpha = 0 leave the fast cycle or the prior undefined: the
        # model's period formulas refuse them, with nothing built
        from thermaljcm import perturbation

        def refuse(*args, **kwargs):
            raise AssertionError("built the series tables")

        monkeypatch.setattr(perturbation, "series_tables", refuse)
        with pytest.raises(LimitError) as exc:
            period_vs_temperature_sweep(make_params(l=l, **model), [0.0, 0.1],
                                        TruncationPolicy(50), dt=dt)
        assert exc.value.param == param

    def test_empty_grid_returns_no_rows(self):
        assert period_vs_temperature_sweep(make_params(), [], TruncationPolicy(50)) == []

    @pytest.mark.parametrize("alpha", [5.0, 7.0, 12.0])
    def test_two_photon_period_independent_of_amplitude(self, alpha):
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=alpha)
        rows = period_vs_temperature_sweep(p, [0.1], TruncationPolicy(250))
        assert abs(rows[0].period - math.pi) <= tau1(p)


class TestCouplingRescaling:
    @pytest.mark.parametrize("c", [0.1, 10.0])
    def test_samples_identical_under_rescaling(self, c):
        # g -> c g with all frequencies and the temperature co-scaled is an
        # exact change of time units
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=7.0)
        beta = 10.0
        thermal = bogoliubov_angles(beta, p.omega, p.omega0)
        t = np.linspace(0.0, 5.0, 400)
        base = series_tables(t, p, TruncationPolicy(110), coherence=False).pe(thermal)
        scaled_params = ModelParams(l=2, g=c * p.g, omega0=c * p.omega0,
                                    omega=c * p.omega, alpha=7.0)
        scaled_thermal = bogoliubov_angles(beta / c, scaled_params.omega,
                                           scaled_params.omega0)
        scaled = series_tables(t / c, scaled_params, TruncationPolicy(110),
                               coherence=False).pe(scaled_thermal)
        assert np.max(np.abs(base - scaled)) < 1e-12

    def test_extracted_period_scales_inversely(self):
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=7.0)
        rows = period_vs_temperature_sweep(p, [0.0], TruncationPolicy(110))
        c = 4.0
        scaled_params = ModelParams(l=2, g=c, omega0=c, omega=c, alpha=7.0)
        scaled_rows = period_vs_temperature_sweep(scaled_params, [0.0],
                                                  TruncationPolicy(110))
        dt = rabi_period(p) / 40
        assert abs(scaled_rows[0].period - rows[0].period / c) <= dt
