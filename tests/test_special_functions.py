"""The scipy-free special functions of the series path.

``model._log_gamma`` is a port of the cephes ``lgam`` behind
``scipy.special.gammaln`` and must keep its bits, since the Poisson weights of
every golden output come from it.  ``TruncationPolicy.tail_mass`` replaces
``scipy.special.gammainc`` with a bounded log-domain sum, and
``coherence._x_log_x`` replaces ``scipy.special.xlogy(x, x)``.  scipy is the
reference here only.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammainc, gammaln, xlogy

from thermaljcm.coherence import _x_log_x
from thermaljcm.model import ModelParams, _log_gamma
from thermaljcm.perturbation import TruncationPolicy


class TestLogGamma:
    def test_bitwise_equal_to_gammaln_on_integers(self):
        x = np.arange(1.0, 200_001.0)
        assert np.array_equal(_log_gamma(x), gammaln(x))

    def test_bitwise_equal_to_gammaln_on_random_reals(self):
        # 1 - U lies in (0, 1], so x covers (0, 3000] and every branch of lgam
        x = 3000.0 * (1.0 - np.random.default_rng(20240611).random(200_000))
        assert np.array_equal(_log_gamma(x), gammaln(x))

    @pytest.mark.parametrize("x", [1e-300, 0.5, 2.0, 2.5, 12.999, 13.0, 999.5, 1000.0,
                                   1e8, 1.5e8, 1e300])
    def test_bitwise_equal_at_branch_edges(self, x):
        assert _log_gamma(x) == gammaln(x)

    def test_keeps_shape(self):
        x = np.arange(1.0, 7.0).reshape(2, 3)
        assert _log_gamma(x).shape == (2, 3)
        assert _log_gamma(5.0).shape == ()


#: tail sizes whose relative error is meaningful: below it gammainc's own
#: result is subnormal
NORMAL_TAIL = 1e-300


class TestTailMass:
    @pytest.mark.parametrize("n_max", [1, 2, 3, 5, 8, 13, 21, 50, 100, 250, 400, 700, 1000])
    def test_matches_gammainc(self, n_max):
        trunc = TruncationPolicy(n_max)
        for abs_alpha in np.linspace(0.5, 30.0, 119):
            ref = gammainc(n_max + 1, abs_alpha**2)
            got = trunc.tail_mass(abs_alpha * np.exp(0.3j))
            if ref > NORMAL_TAIL:
                assert abs(got - ref) <= 1e-10 * ref, (n_max, abs_alpha)
            else:
                assert got <= 1e-290, (n_max, abs_alpha)

    def test_vacuum_has_no_tail(self):
        assert TruncationPolicy(1).tail_mass(0.0) == 0.0

    @pytest.mark.parametrize("abs_alpha, n_max, low, high", [
        (1e5, 250, 1.0, 1.0),
        (1e5, 10**10 - 3, 0.499, 0.501),  # just below the mean: about one half
        (1e10, 250, 1.0, 1.0),
        (1e10, 10**6, 1.0, 1.0),
    ])
    def test_huge_amplitude_returns_without_a_large_allocation(self, abs_alpha, n_max,
                                                               low, high):
        tracemalloc.start()
        try:
            mass = TruncationPolicy(n_max).tail_mass(abs_alpha)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert low <= mass <= high
        assert peak < 1 << 20

    def test_adaptive_cut_at_huge_amplitude_is_within_tolerance(self):
        params = ModelParams(l=1, g=1.0, omega0=1.0, omega=1.0, alpha=1e5)
        trunc = TruncationPolicy.adaptive(params)
        tracemalloc.start()
        try:
            mass = trunc.tail_mass(params.alpha)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 12 standard deviations above the mean
        assert 0.0 < mass < trunc.tail_tol
        assert math.isfinite(mass) and peak < 1 << 20


def test_x_log_x_matches_xlogy():
    # +0 at zeros of either sign, as xlogy; elsewhere numpy's log may round
    # an input differently from libm's, by an ulp
    x = np.concatenate([np.random.default_rng(7).random(100_000), [1.0, 5e-324]])
    np.testing.assert_allclose(_x_log_x(x), xlogy(x, x), rtol=1e-15, atol=0.0)
    zeros = _x_log_x(np.array([0.0, -0.0]))
    assert np.array_equal(zeros, [0.0, 0.0]) and not np.signbit(zeros).any()
