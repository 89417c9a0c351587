"""Findings about the paper's claims at its own parameters, each bounded at
its measured value.

The spectrum: with g = omega = 1, D_n = (delta/2)^2 + (n+1)...(n+l) is a
perfect square at l 2, |delta| = g (the figures' detuning), and at l 4,
|delta| = 2g, so every Rabi frequency is a half-odd or a whole multiple of g
and the reduced state repeats after 2 pi / g: the exact P_e, and (rho00,
|rho01|, C) through the doubled-space reference.  At the figures' l 4
detuning, |delta| = 3g, the frequencies are only near integers, and it does
not.

The series against the exact solver on the fig3 rows (alpha 12, l 1-4): at
1/beta 0.16 P_e is off by up to 0.11, yet the extracted periods agree to
about 1e-4.  On the fig4 maps' windows at the same temperature |rho01| is
off by up to 0.10 and the coherence by up to 0.14: the series that the
abstract's decay (l 1, 3, 4) and non-decay (l 2) claims rest on.
"""

import math

import numpy as np
import pytest

from thermaljcm import analysis, perturbation
from thermaljcm.cli import build_preset, parse_config
from thermaljcm.coherence import coherence_values, project_values
from thermaljcm.model import EigenvalueTable, ModelParams, t0_prime_period, thermal_from_inv_beta
from thermaljcm.oracle import FockTruncation, build_initial_state, pe_curve, propagate, reduce_atom


def spectrum_params(l, omega0, alpha=12.0):
    """g = omega = 1, so delta = l - omega0."""
    return ModelParams(l=l, g=1.0, omega0=omega0, omega=1.0, alpha=alpha)


class TestPerfectSquareSpectrum:
    def test_l2_at_the_figures_detuning(self):
        # (n+1)(n+2) + 1/4 = (n + 3/2)^2, every term exact in floats
        table = EigenvalueTable(spectrum_params(2, 1.0), 399)
        n = np.arange(400, dtype=float)
        assert table.sqrt_d.tobytes() == (n + 1.5).tobytes()

    def test_l4_at_twice_the_coupling(self):
        # (n+1)(n+2)(n+3)(n+4) + 1 = (n^2 + 5n + 5)^2, below 2^53 to n = 399
        table = EigenvalueTable(spectrum_params(4, 2.0), 399)
        n = np.arange(400, dtype=float)
        assert table.sqrt_d.tobytes() == (n * n + 5 * n + 5).tobytes()

    # max |P_e(t + 2 pi k) - P_e(t)| on 301 samples of [0, 3] at alpha 12,
    # 1/beta 0.16, measured: 3.4e-14 (k 1) and 2.7e-12 (k 100) at l 2;
    # 5.1e-12 and 4.2e-10 at l 4, |delta| = 2g.  What is left is the rounding
    # of the phases sqrt(D_n) t, which grows with t; each bound is about
    # three times its measured value
    @pytest.mark.parametrize("l, omega0, k, bound", [
        (2, 1.0, 1, 1e-13), (2, 1.0, 100, 1e-11),
        (4, 2.0, 1, 2e-11), (4, 2.0, 100, 2e-9),
    ])
    def test_exact_pe_repeats_after_2pi(self, l, omega0, k, bound):
        p = spectrum_params(l, omega0)
        thermal = thermal_from_inv_beta(0.16, p)
        trunc = FockTruncation.auto(p, thermal)
        t = np.linspace(0.0, 3.0, 301)
        shifted = pe_curve(p, thermal, t + 2.0 * math.pi * k, trunc)
        assert np.max(np.abs(shifted - pe_curve(p, thermal, t, trunc))) <= bound

    def test_l4_at_the_figures_detuning_does_not_repeat(self):
        # |delta| = 3g: sqrt(D_n) is within 0.625/(n^2 + 5n + 5) of that
        # integer, not on it; measured 4.2e-5 at k 1
        p = spectrum_params(4, 1.0)
        thermal = thermal_from_inv_beta(0.16, p)
        trunc = FockTruncation.auto(p, thermal)
        t = np.linspace(0.0, 3.0, 301)
        shifted = pe_curve(p, thermal, t + 2.0 * math.pi, trunc)
        assert np.max(np.abs(shifted - pe_curve(p, thermal, t, trunc))) >= 1e-5


def reference_state(params, times):
    """(rho00, |rho01|, C) at ``times`` through the doubled-space reference,
    at 1/beta 0.16 and the automatic cutoff."""
    thermal = thermal_from_inv_beta(0.16, params)
    init = build_initial_state(params, thermal, FockTruncation.auto(params, thermal))
    rho00, rho01 = zip(*(reduce_atom(propagate(init, float(t), params)) for t in times))
    rho00, abs_rho01 = np.array(rho00), np.abs(rho01)
    return rho00, abs_rho01, coherence_values(rho00, abs_rho01)


class TestReducedStateRepeats:
    # max |x(t + 2 pi k) - x(t)| of (rho00, |rho01|, C) on 7 samples of
    # [0, 3] at alpha 3, measured: at l 2, |delta| = g (44 levels) 7.8e-16 /
    # 2.5e-15 / 6.7e-16 (k 1), 9.1e-14 / 4.8e-14 / 8.8e-14 (k 100) and
    # 1.3e-11 / 1.3e-11 / 4.5e-12 (k 10^4); at l 4, |delta| = 2g (46 levels)
    # 2.4e-14 / 1.9e-14 / 3.1e-15, 8.3e-13 / 2.1e-12 / 2.7e-13 and 7.7e-11 /
    # 2.3e-10 / 4.1e-11.  As for P_e, what is left is the phases' rounding;
    # each bound is about three times its measured value
    @pytest.mark.parametrize("l, omega0, k, bounds", [
        (2, 1.0, 1, (2.5e-15, 7.5e-15, 2e-15)),
        (2, 1.0, 100, (3e-13, 1.5e-13, 3e-13)),
        (2, 1.0, 10**4, (4e-11, 4e-11, 1.5e-11)),
        (4, 2.0, 1, (7e-14, 6e-14, 1e-14)),
        (4, 2.0, 100, (2.5e-12, 6e-12, 8e-13)),
        (4, 2.0, 10**4, (2.5e-10, 7e-10, 1.2e-10)),
    ])
    def test_rho00_rho01_and_coherence_repeat_after_2pi(self, l, omega0, k, bounds):
        p = spectrum_params(l, omega0, alpha=3.0)
        t = np.linspace(0.0, 3.0, 7)
        shifted, base = reference_state(p, t + 2.0 * math.pi * k), reference_state(p, t)
        assert all(np.max(np.abs(a - b)) <= bound
                   for a, b, bound in zip(shifted, base, bounds))

    def test_l4_at_the_figures_detuning_does_not_repeat(self):
        # |delta| = 3g: measured 4.3e-2 / 7.6e-2 / 3.0e-2 at k 1
        p = spectrum_params(4, 1.0, alpha=3.0)
        t = np.linspace(0.0, 3.0, 7)
        shifted, base = reference_state(p, t + 2.0 * math.pi), reference_state(p, t)
        assert all(np.max(np.abs(a - b)) >= 1e-2 for a, b in zip(shifted, base))


class TestFig3SeriesAgainstExact:
    # per row: the measured max |series P_e - exact P_e| and relative period
    # difference, each bound just above it; None: both periods are pi
    @pytest.mark.parametrize("preset, inv_beta, pe_bound, period_bound", [
        ("fig3a", 0.08, 9.8e-6, 3e-10),  # 9.70e-6, 2.6e-10
        ("fig3b", 0.08, 9.7e-6, None),  # 9.68e-6
        ("fig3c", 0.08, 9.6e-6, 3.5e-9),  # 9.56e-6, 3.40e-9
        ("fig3d", 0.08, 9.4e-6, 3.4e-9),  # 9.30e-6, 3.31e-9
        ("fig3a", 0.16, 0.111, 4.2e-5),  # 0.1100, 4.16e-5
        ("fig3b", 0.16, 0.111, None),  # 0.1099
        ("fig3c", 0.16, 0.109, 1.13e-4),  # 0.1082, 1.128e-4
        ("fig3d", 0.16, 0.106, 8.8e-5),  # 0.1051, 8.72e-5
    ])
    def test_periods_agree_where_pe_does_not(self, preset, inv_beta, pe_bound, period_bound):
        # the sweep's row: default dt, [0, SPAN_FACTOR x the prior]
        config = parse_config(build_preset(preset))
        p = config.params
        thermal = thermal_from_inv_beta(inv_beta, p)
        dt = analysis.default_dt(p)
        t = dt * np.arange(int(analysis._row_samples(t0_prime_period(p, thermal), dt)))
        series = perturbation.series_tables(t, p, config.trunc, coherence=False).pe(thermal)
        exact = pe_curve(p, thermal, t, FockTruncation.auto(p, thermal))
        assert np.max(np.abs(series - exact)) <= pe_bound
        periods = [analysis.extract_revival_period(analysis.TimeSeries(0.0, dt, pe), p, thermal)
                   for pe in (series, exact)]
        if period_bound is None:
            assert periods == pytest.approx([math.pi, math.pi], rel=1e-15)
        else:
            assert abs(periods[0] - periods[1]) <= period_bound * periods[1]


class TestFig4SeriesAgainstExact:
    # per map: max |series - exact| of the projected P_e, |rho01| and C on
    # 41 evenly spaced times of the preset's window, both sides projected as
    # coherence-map projects them, and of the complex rho01 = <e|rho|g> of
    # both engines, unprojected.  At 1/beta 0.08 every difference measured at
    # most 9.6e-6, bounded by 2e-5.  At 0.16 the measured values are in the
    # comments, and each is bounded between half and 1.5 times itself: that
    # error is a finding about the paper's series, not a tolerance.  At both
    # temperatures the conjugate of the exact rho01 misses the series by 0.85
    # to 0.997, bounded below by 0.5: the orientations are not a convention
    @pytest.mark.parametrize("preset, inv_beta, measured", [
        ("fig4a", 0.08, None),
        ("fig4b", 0.08, None),
        ("fig4c", 0.08, None),
        ("fig4d", 0.08, None),
        ("fig4a", 0.16, (0.0488, 0.0422, 0.0407)),
        ("fig4b", 0.16, (0.0715, 0.0311, 0.0245)),
        ("fig4c", 0.16, (0.0460, 0.0985, 0.144)),
        ("fig4d", 0.16, (0.0456, 0.101, 0.0907)),
    ])
    def test_coherence_against_the_doubled_space_reference(self, preset, inv_beta, measured):
        config = parse_config(build_preset(preset))
        p = config.params
        thermal = thermal_from_inv_beta(inv_beta, p)
        t = np.linspace(config.t_start, config.t_stop, 41)
        init = build_initial_state(p, thermal, FockTruncation.auto(p, thermal))
        rho00, rho01 = zip(*(reduce_atom(propagate(init, float(x), p)) for x in t))
        tables = perturbation.series_tables(t, p, config.trunc)
        rho01, series_rho01 = np.array(rho01), tables.rho01(thermal)
        exact = project_values(np.array(rho00), np.abs(rho01))[:2]
        series = project_values(tables.pe(thermal), np.abs(series_rho01))[:2]
        diffs = [np.max(np.abs(a - b))
                 for a, b in zip((*exact, coherence_values(*exact)),
                                 (*series, coherence_values(*series)))]
        assert np.max(np.abs(series_rho01 - np.conj(rho01))) >= 0.5
        if measured is None:
            assert max(diffs) <= 2e-5
            assert np.max(np.abs(series_rho01 - rho01)) <= 2e-5
        else:
            assert all(0.5 * m <= d <= 1.5 * m for d, m in zip(diffs, measured))
