"""Low-temperature series: weights, S sums, order terms, coherence series."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from thermaljcm import model, oracle, perturbation
from thermaljcm.coherence import physical_population
from thermaljcm.model import (
    EigenvalueTable,
    bogoliubov_angles,
    thermal_from_inv_beta,
)
from thermaljcm.oracle import FockTruncation, coherent_state_vector
from thermaljcm.perturbation import (
    TruncationPolicy,
    TruncationWarning,
    _poisson_weights,
    series_tables,
)
from thermaljcm.validation import theta_for_angle
from reference import direct_d_prime, exact_channel_jets, make_params, osc_pair

COLD = bogoliubov_angles(math.inf, 1.0, 1.0)


def poisson_log_weight(n, alpha):
    """log of the Poisson weight e^(-|alpha|^2) |alpha|^(2n) / n!, from
    scipy's gammaln; alpha = 0 gives weight 1 at n = 0 and 0 elsewhere."""
    n_arr = np.asarray(n, dtype=float)
    aa = abs(alpha) ** 2
    if aa == 0.0:
        out = np.where(n_arr == 0, 0.0, -np.inf)
    else:
        out = n_arr * math.log(aa) - gammaln(n_arr + 1.0) - aa
    return float(out) if np.ndim(n) == 0 else out


def at(t, params, trunc, **kwargs):
    """Series tables on the one-sample grid [t]."""
    return series_tables([t], params, trunc, **kwargs)


class TestPoissonWeights:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 12.0, 12.0 * cmath.exp(0.5j), 1000.0])
    def test_window_gives_the_bits_of_every_weight(self, alpha):
        # every photon number through the log-gamma; its prefixes are the
        # weights of the smaller n_max
        full = np.exp(poisson_log_weight(np.arange(10**6 + 1), alpha))
        for n_max in (0, 1, 2, 143, 144, 145, 250, 999_999, 10**6):
            assert _poisson_weights(n_max, alpha).tobytes() == full[: n_max + 1].tobytes()

    @pytest.mark.parametrize("n_max", [10**6, 2 * 10**6])
    def test_only_the_window_reaches_the_log_gamma(self, monkeypatch, n_max):
        lgam = perturbation._log_gamma
        sizes = []
        monkeypatch.setattr(perturbation, "_log_gamma",
                            lambda x: sizes.append(np.size(x)) or lgam(x))
        w = _poisson_weights(n_max, 1000.0)
        # the mode (10^6) is inside; about 38 700 numbers on each side of it
        assert sum(sizes) < 10**5
        assert w[10**6] > 0.0 and np.count_nonzero(w) < 10**5

    def test_vacuum_weight(self):
        assert poisson_log_weight(0, 2.0) == -4.0

    def test_mode_weight_against_log_sum_oracle(self):
        # ln(144^144 e^-144 / 144!) via an explicit sum of logs
        expected = 144 * math.log(144.0) - sum(math.log(k) for k in range(1, 145)) - 144.0
        got = poisson_log_weight(144, 12.0)
        assert got == pytest.approx(expected, abs=1e-10)
        assert math.exp(got) == pytest.approx(0.03323, abs=2e-5)

    def test_normalization(self):
        logs = poisson_log_weight(np.arange(251), 12.0)
        assert np.sum(np.exp(logs)) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_amplitude(self):
        assert poisson_log_weight(0, 0.0) == 0.0
        assert poisson_log_weight(3, 0.0) == -math.inf

    def test_no_overflow_at_large_amplitude(self):
        w = np.exp(poisson_log_weight(np.arange(400), 12.0))
        assert np.all(np.isfinite(w))
        assert w.max() < 0.04


class TestTruncationPolicy:
    def test_adaptive_size(self):
        p = make_params(alpha=12.0)
        trunc = TruncationPolicy.adaptive(p)
        assert trunc.n_max == math.ceil(144 + 12 * math.sqrt(145) + 1 + 10)

    def test_tail_warning_fires(self):
        p = make_params(alpha=4.0)
        trunc = TruncationPolicy(n_max=8, tail_tol=1e-6)
        with pytest.warns(TruncationWarning):
            at(1.0, p, trunc, coherence=False)

    @pytest.mark.parametrize("alpha", [0.2, 2.0, 7.0, 12.0])
    def test_adaptive_tail_mass_within_tolerance(self, alpha):
        p = make_params(alpha=alpha)
        trunc = TruncationPolicy.adaptive(p, tail_tol=1e-12)
        assert trunc.tail_mass(p.alpha) < trunc.tail_tol

    def test_rejects_empty_series(self):
        with pytest.raises(ValueError):
            TruncationPolicy(n_max=0)


class TestZeroTemperature:
    def test_zero_at_t_zero(self):
        assert at(0.0, make_params(), TruncationPolicy(50), coherence=False).pe(COLD)[0] == 0.0

    def test_zero_for_vacuum_amplitude(self):
        p = make_params(alpha=0.0)
        t = np.linspace(0, 5, 7)
        pe = series_tables(t, p, TruncationPolicy(10), coherence=False).pe(COLD)
        np.testing.assert_array_equal(pe, np.zeros(7))

    def test_matches_exact_propagation(self):
        p = make_params(l=1, alpha=2.0)
        value = at(0.7, p, TruncationPolicy.adaptive(p), coherence=False).pe(COLD)[0]
        exact = oracle.pe_curve(p, COLD, [0.7], FockTruncation(40))[0]
        assert value == pytest.approx(exact, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(l=st.integers(1, 4), abs_alpha=st.floats(0.0, 3.0), arg=st.floats(0.0, 6.3),
           g=st.floats(0.01, 10.0), delta=st.sampled_from([0.0, 0.3, -1.5]),
           fraction=st.floats(0.0, 1.0))
    # the largest t both tables admit, at the fastest phases
    @example(l=4, abs_alpha=3.0, arg=0.0, g=10.0, delta=0.0, fraction=1.0)
    @example(l=1, abs_alpha=3.0, arg=1.0, g=0.01, delta=-1.5, fraction=1.0)
    @example(l=2, abs_alpha=0.0, arg=0.0, g=1.0, delta=0.3, fraction=0.5)
    def test_both_engines_match_mpmath_below_the_phase_limit(self, l, abs_alpha, arg, g,
                                                             delta, fraction):
        # at zero temperature both engines' P_e is g^2 e^(-|a|^2) |a|^(2l)
        # sum_n |a|^(2n)/n! sin^2(sqrt(D_n) t)/D_n, here in 40 digits at the
        # same float t; below the phase limit each float64 phase rounds by at
        # most model._PHASE_TOL rad
        p = make_params(l=l, g=g, omega0=l - delta, alpha=cmath.rect(abs_alpha, arg))
        ftrunc, trunc = FockTruncation(40), TruncationPolicy(40, tail_tol=1.0)
        rate = math.sqrt(max(EigenvalueTable.check(p, ftrunc.n_fock - 1),
                             EigenvalueTable.check(p, trunc.top_row(l))))
        # less a few ulps, which the bound 2^-52 rate t takes in rounding
        t = fraction * model._PHASE_TOL / (2.0**-52 * rate) * (1.0 - 1e-14)
        exact = oracle.pe_curve(p, COLD, [t], ftrunc)[0]
        series = series_tables([t], p, trunc, coherence=False,
                               zero_temperature=True).pe(COLD)[0]
        with mpmath.workdps(40):
            aa, tt = mpmath.mpf(abs(p.alpha)) ** 2, mpmath.mpf(t)
            total = mpmath.mpf(0)
            for n in range(60):
                prod = mpmath.rf(n + 1, l)  # (n + l)!/n!
                d = (mpmath.mpf(p.delta) / 2) ** 2 + mpmath.mpf(g) ** 2 * prod
                total += aa**n / mpmath.factorial(n) * mpmath.sin(mpmath.sqrt(d) * tt) ** 2 / d
            reference = float(mpmath.mpf(g) ** 2 * mpmath.exp(-aa) * aa**l * total)
        assert abs(exact - reference) <= 2 * model._PHASE_TOL
        assert abs(series - reference) <= 2 * model._PHASE_TOL


def brute_force_series(j, k, t, params, n_terms):
    """Direct oversampled summation with iteratively built Poisson weights."""
    aa = abs(params.alpha) ** 2
    half_delta_sq = (params.delta / 2.0) ** 2
    table = EigenvalueTable(params, n_terms + k)
    w = math.exp(-aa)
    total = 0.0
    for n in range(n_terms + 1):
        d = table.d[n + k]
        s = math.sin(math.sqrt(d) * t) ** 2
        if j == 1:
            term = math.cos(math.sqrt(d) * t) ** 2 + half_delta_sq * s / d
        else:
            term = s / d
        total += w * term
        w *= aa / (n + 1)
    return total


class TestSeriesS:
    def test_t_zero_identities(self):
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=3.0)
        trunc = TruncationPolicy.adaptive(p)
        tables = at(0.0, p, trunc, coherence=False)
        for k in (0, 1, 2):
            assert tables.S1[k, 0] == pytest.approx(1.0, abs=1e-12)
            assert tables.S2[k, 0] == 0.0

    def test_detuning_term_drops_on_resonance(self):
        # at delta = 0, S1 is the plain cos^2 sum
        p = make_params(l=1, omega0=1.0, omega=1.0, alpha=1.5)
        trunc = TruncationPolicy(60)
        table = EigenvalueTable(p, 60)
        w = np.exp(poisson_log_weight(np.arange(61), p.alpha))
        manual = float(np.sum(w * np.cos(np.sqrt(table.d) * 0.9) ** 2))
        assert at(0.9, p, trunc).S1[0, 0] == pytest.approx(manual, abs=1e-14)

    @pytest.mark.parametrize("j, k", [(1, 0), (1, 2), (2, 0), (2, 1)])
    def test_against_oversampled_brute_force(self, j, k):
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=2.0)
        trunc = TruncationPolicy(60)
        tables = at(1.3, p, trunc, coherence=False)
        value = (tables.S1 if j == 1 else tables.S2)[k, 0]
        over = brute_force_series(j, k, 1.3, p, 60 + 500)
        assert value == pytest.approx(over, abs=1e-12)


class TestPeOrderTerms:
    def test_telescoping_at_t_zero(self):
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=2.5)
        p1, p2 = at(0.0, p, TruncationPolicy.adaptive(p), coherence=False).pe_terms
        assert p1[0][0] == pytest.approx(1.0, abs=1e-12)
        assert abs(p1[1][0]) < 1e-12
        assert abs(p1[2][0]) < 1e-10
        assert [x[0] for x in p2] == [0.0, 0.0, 0.0]

    def test_coupling_squared_prefactor(self):
        # g = 0 kills every term of the coupled channel
        p = make_params(l=2, g=0.0, omega0=1.0, omega=3.0, alpha=2.0)
        _, p2 = at(1.7, p, TruncationPolicy(40), coherence=False).pe_terms
        assert [x[0] for x in p2] == [0.0, 0.0, 0.0]

    def test_first_order_matches_oracle_finite_difference(self):
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=2.0)
        trunc = TruncationPolicy.adaptive(p)
        t = 0.9
        eps = 1e-3
        thermal = theta_for_angle(eps, p.omega, p.omega0)
        ftrunc = FockTruncation(45)
        hot = oracle.reduce_atom(oracle.propagate(
            oracle.build_initial_state(p, thermal, ftrunc), t, p))[0]
        cold = oracle.reduce_atom(oracle.propagate(
            oracle.build_initial_state(p, COLD, ftrunc), t, p))[0]
        fd = (hot - cold) / eps
        p1, p2 = at(t, p, trunc, coherence=False).pe_terms
        first = thermal.sin_atom**2 * p1[1][0] + thermal.cos_atom**2 * p2[1][0]
        assert fd == pytest.approx(first, rel=0.02)


class TestPeOrderTermsAgainstThetaJets:
    # order k of each channel equals k! times the theta^k coefficient of the
    # exact channel sum over the thermal coherent state's populations, on 201
    # samples of [0, 3.35 T0]; each difference is bounded at 1e-10 of that
    # order term's largest value (the worst of each case measured 1.0e-12
    # to 1.8e-11)
    @pytest.mark.parametrize("l, alpha", [(1, 12.0), (2, 12.0), (3, 12.0), (4, 12.0),
                                          (1, 6.0), (2, 7.0), (3, 7.0), (4, 8.0)])
    def test_orders_zero_to_two_of_both_channels(self, l, alpha):
        p = make_params(l=l, alpha=alpha)
        trunc = TruncationPolicy(250)
        t = np.linspace(0.0, 3.35 * model.t0_period(p), 201)
        jets = exact_channel_jets(p, t, trunc.n_max + 150)
        terms = series_tables(t, p, trunc, coherence=False).pe_terms
        for channel, exact in zip(terms, jets):
            for k, (term, coef) in enumerate(zip(channel, exact)):
                scale = np.max(np.abs(term))
                assert np.max(np.abs(math.factorial(k) * coef - term)) <= 1e-10 * scale


class TestPeThermal:
    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize("inv_beta", [0.0, 0.1, 0.25])
    def test_initial_value_is_thermal_weight(self, l, inv_beta):
        p = make_params(l=l, alpha=2.5)
        thermal = thermal_from_inv_beta(inv_beta, p)
        value = at(0.0, p, TruncationPolicy.adaptive(p), coherence=False).pe(thermal)[0]
        assert value == pytest.approx(thermal.sin_atom**2, abs=1e-12)

    def test_zero_angles_reduce_to_zero_temperature(self):
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=2.0)
        trunc = TruncationPolicy.adaptive(p)
        t = np.linspace(0.0, 4.0, 200)
        p1, p2 = series_tables(t, p, trunc).pe_terms
        a = series_tables(t, p, trunc, coherence=False).pe(COLD)
        assert np.max(np.abs(a - p2[0])) <= 1e-14
        # the zeroth-order cold channel stays inside [0, 1] up to rounding
        assert np.all((a >= -1e-12) & (a <= 1.0 + 1e-12))

    def test_third_order_residual_bound(self):
        # calibrate the cubic constant at a small angle, then check a larger one
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=2.0)
        trunc = TruncationPolicy.adaptive(p)
        t = 1.0
        ftrunc = FockTruncation(50)

        def residual(theta):
            thermal = theta_for_angle(theta, p.omega, p.omega0)
            exact = oracle.reduce_atom(oracle.propagate(
                oracle.build_initial_state(p, thermal, ftrunc), t, p))[0]
            return abs(at(t, p, trunc, coherence=False).pe(thermal)[0] - exact)

        c_cubic = residual(0.01) / 0.01**3
        for theta in (0.05, 0.1):
            assert residual(theta) < 2.0 * c_cubic * theta**3

    def test_truncation_monotonicity(self):
        # 50 extra terms move nothing beyond the declared tail tolerance
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=12.0)
        thermal = thermal_from_inv_beta(0.1, p)
        t = np.linspace(0.0, 6.0, 50)
        a = series_tables(t, p, TruncationPolicy(250, tail_tol=1e-9)).pe(thermal)
        b = series_tables(t, p, TruncationPolicy(300, tail_tol=1e-9)).pe(thermal)
        assert np.max(np.abs(a - b)) < 1e-9
        ra = at(1.7, p, TruncationPolicy(250)).rho01(thermal)[0]
        rb = at(1.7, p, TruncationPolicy(300)).rho01(thermal)[0]
        assert abs(ra - rb) < 1e-9


def fock_expectation(j, k, t, params, n_fock):
    """Operator-product expectation on |alpha> via explicit truncated matrices."""
    u00, u01, u10, u11 = oracle.atom_block_matrices(t, params, n_fock)
    a = np.diag(np.sqrt(np.arange(1, n_fock, dtype=float)), 1).astype(complex)
    ad = a.conj().T
    x = u00.conj().T @ u10 if j == 1 else u01.conj().T @ u11
    sandwich = {
        0: x, 1: a @ x, 2: x @ ad, 3: a @ a @ x, 4: x @ ad @ ad, 5: a @ x @ ad,
    }[k]
    vec = coherent_state_vector(params.alpha, n_fock)
    return complex(vec.conj() @ (sandwich @ vec))


class TestTildeSeries:
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_all_vanish_at_t_zero(self, l):
        p = make_params(l=l, alpha=1.5)
        assert np.all(at(0.0, p, TruncationPolicy(40)).tilde == 0.0)

    def test_all_vanish_without_coupling(self):
        p = make_params(l=1, g=0.0, omega0=1.0, omega=2.0, alpha=1.5)
        assert np.all(at(0.8, p, TruncationPolicy(40)).tilde == 0.0)

    def test_documented_example_series(self):
        # <alpha| u01^dag u11 |alpha> at l = 1, resonance
        p = make_params(l=1, omega0=1.0, omega=1.0, alpha=1.5)
        value = at(0.8, p, TruncationPolicy.adaptive(p)).tilde[1, 0, 0]
        direct = fock_expectation(2, 0, 0.8, p, 45)
        assert value == pytest.approx(direct, abs=1e-8)

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("k", range(6))
    @pytest.mark.parametrize("l, alpha, t", [
        (1, 1.5, 0.8),          # resonant single photon
        (2, 1.2 + 0.7j, 1.1),   # detuned two photon, complex amplitude
        (3, 1.3, 0.6),          # detuned three photon
        (4, 1.1, 0.4),          # detuned four photon
    ])
    def test_all_twelve_series_against_fock_basis(self, j, k, l, alpha, t):
        p = make_params(l=l, omega0=1.0, omega=1.0, alpha=alpha)
        value = at(t, p, TruncationPolicy.adaptive(p)).tilde[j - 1, k, 0]
        direct = fock_expectation(j, k, t, p, 45)
        assert value == pytest.approx(direct, abs=1e-8)

    def test_degenerate_block_enters_series(self):
        # l = 2 at resonance: the k = 3 series reaches the D' = 0 limit blocks
        p = make_params(l=2, omega0=2.0, omega=1.0, alpha=1.2)
        assert p.delta == 0.0
        value = at(0.9, p, TruncationPolicy.adaptive(p)).tilde[1, 3, 0]
        direct = fock_expectation(2, 3, 0.9, p, 45)
        assert value == pytest.approx(direct, abs=1e-8)

    def test_vacuum_amplitude_limits(self):
        # at alpha = 0 only the series whose conj(alpha) power is zero survive
        trunc = TruncationPolicy(10)
        p1 = make_params(l=1, omega0=1.0, omega=1.0, alpha=0.0)
        table = EigenvalueTable(p1, 1)
        a1 = osc_pair(table.sqrt_d, table.d, 0.7, p1.delta / 2.0)[0][1]
        d_prime, sqrt_d_prime = direct_d_prime(p1, 1)
        bp1 = osc_pair(sqrt_d_prime, d_prime, 0.7, p1.delta / 2.0)[1][1]
        expected = -1j * p1.g * (0 + 1) * a1 * bp1  # m = 0 term of (j, k) = (1, 1)
        tilde = at(0.7, p1, trunc).tilde[:, :, 0]
        assert tilde[0, 1] == pytest.approx(expected, abs=1e-14)
        assert tilde[0, 0] == 0.0
        assert tilde[0, 3] == 0.0
        direct = fock_expectation(1, 1, 0.7, p1, 30)
        assert tilde[0, 1] == pytest.approx(direct, abs=1e-10)


class TestRho01Thermal:
    def test_vanishes_at_t_zero(self):
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=2.0)
        thermal = thermal_from_inv_beta(0.1, p)
        assert at(0.0, p, TruncationPolicy(60)).rho01(thermal)[0] == 0.0

    def test_zeroth_order_structure(self):
        # theta = 0 leaves exactly the channel-weighted zeroth series, whose
        # printed orientation is the conjugate of rho01
        p = make_params(l=1, alpha=1.5)
        trunc = TruncationPolicy.adaptive(p)
        tables = at(0.8, p, trunc)
        for inv_beta in (0.0, 0.3):
            thermal = thermal_from_inv_beta(inv_beta, p)
            cold_angles = bogoliubov_angles(math.inf, 1.0, 1.0)
            mix = (thermal.sin_atom**2 * tables.tilde[0, 0, 0]
                   + thermal.cos_atom**2 * tables.tilde[1, 0, 0])
            frozen = type(thermal)(beta=thermal.beta, theta=0.0, cos_atom=thermal.cos_atom,
                                   sin_atom=thermal.sin_atom)
            assert tables.rho01(frozen)[0] == pytest.approx(np.conj(mix), abs=1e-14)
            assert cold_angles.theta == 0.0

    def test_same_orientation_as_exact_reduced_state(self):
        # both engines return <e|rho|g>: the conjugate does not match
        p = make_params(l=1, alpha=1.5)
        trunc = TruncationPolicy.adaptive(p)
        thermal = thermal_from_inv_beta(0.05, p)
        state = oracle.propagate(
            oracle.build_initial_state(p, thermal, FockTruncation(40)), 0.8, p)
        _, exact = oracle.reduce_atom(state)
        series = at(0.8, p, trunc).rho01(thermal)[0]
        assert abs(series - exact) < 1e-10
        assert abs(series - np.conj(exact)) > 1e-3


class TestAtomState:
    def test_cold_initial_state_is_ground(self):
        p = make_params(l=1, alpha=2.0)
        s = at(0.0, p, TruncationPolicy.adaptive(p))
        assert s.pe(COLD)[0] == 0.0 and s.rho01(COLD)[0] == 0.0
        assert physical_population(s.pe(COLD)[0])

    def test_warm_initial_state(self):
        p = make_params(l=1, alpha=2.0)
        thermal = thermal_from_inv_beta(0.1, p)
        s = at(0.0, p, TruncationPolicy.adaptive(p))
        assert s.pe(thermal)[0] == pytest.approx(thermal.sin_atom**2, abs=1e-12)
        assert s.rho01(thermal)[0] == 0.0

    @pytest.mark.parametrize("l, omega, alpha", [(1, 1.0, 2.0), (2, 0.8, 1.1 - 0.4j),
                                                 (3, 0.7, 1.5)])
    def test_zero_temperature_series_equals_the_grid_propagation(self, l, omega, alpha):
        # at theta = 0 the series is exact: P_e and rho01 equal the
        # doubled-space route over a whole grid
        p = make_params(l=l, omega0=1.0, omega=omega, alpha=alpha)
        t = np.linspace(0.0, 3.0, 60)
        init = oracle.build_initial_state(p, COLD, FockTruncation.auto(p))
        rho00, rho01 = map(np.array, zip(*(oracle.reduce_atom(oracle.propagate(init, x, p))
                                           for x in t)))
        tables = series_tables(t, p, TruncationPolicy.adaptive(p))
        assert np.max(np.abs(tables.pe(COLD) - rho00)) < 1e-9
        assert np.max(np.abs(tables.rho01(COLD) - rho01)) < 1e-9

    def test_trace_distance_to_oracle_is_cubic(self):
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=2.0)
        trunc = TruncationPolicy.adaptive(p)
        t = 1.0
        ftrunc = FockTruncation(50)
        tables = at(t, p, trunc)

        def trace_distance(theta):
            thermal = theta_for_angle(theta, p.omega, p.omega0)
            rho00, rho01 = oracle.reduce_atom(oracle.propagate(
                oracle.build_initial_state(p, thermal, ftrunc), t, p))
            dp = tables.pe(thermal)[0] - rho00
            dz = tables.rho01(thermal)[0] - rho01
            return math.sqrt(dp * dp + abs(dz) ** 2)

        c_cubic = trace_distance(0.01) / 0.01**3
        theta = thermal_from_inv_beta(0.1, p).theta
        assert trace_distance(theta) < 2.0 * c_cubic * theta**3


class TestDeterminism:
    def test_single_sample_equals_grid_column(self):
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=7.0)
        thermal = thermal_from_inv_beta(0.1, p)
        trunc = TruncationPolicy(110)
        t = np.linspace(0.0, 4.0, 2500)  # crosses the internal chunk boundary
        tables = series_tables(t, p, trunc)
        grid, rho_grid = tables.pe(thermal), tables.rho01(thermal)
        for i in (0, 1, 1234, 2048, 2100, 2499):
            one = at(float(t[i]), p, trunc)
            assert one.pe(thermal)[0] == grid[i]
            assert one.rho01(thermal)[0] == rho_grid[i]

    def test_grid_split_invariance(self):
        p = make_params(l=1, alpha=3.0)
        thermal = thermal_from_inv_beta(0.2, p)
        trunc = TruncationPolicy(60)
        t = np.linspace(0.0, 10.0, 777)
        whole = series_tables(t, p, trunc).pe(thermal)
        parts = np.concatenate([series_tables(t[:300], p, trunc).pe(thermal),
                                series_tables(t[300:], p, trunc).pe(thermal)])
        np.testing.assert_array_equal(whole, parts)
