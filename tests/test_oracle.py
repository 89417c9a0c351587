"""Exact doubled-Fock-space solver: states, propagation, reductions."""

import cmath
import json
import math
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from thermaljcm import model, oracle, perturbation, validation
from thermaljcm.analysis import default_dt
from thermaljcm.cli import EXIT_OK, build_preset, main, parse_config
from thermaljcm.model import (
    EigenvalueTable,
    LimitError,
    ModelParams,
    bogoliubov_angles,
    t0_period,
    t0_prime_period,
    thermal_from_inv_beta,
)
from thermaljcm.oracle import (
    DoubledFockState,
    FockTruncation,
    LeakageError,
    atom_block_matrices,
    build_initial_state,
    coherent_state_vector,
    displacement_matrix,
    pe_curve,
    propagate,
    reduce_atom,
    thermal_coherent_state,
    thermal_coherent_state_via_generator,
    two_mode_squeezed_vacuum,
)
from thermaljcm.coherence import coherence_values
from thermaljcm.perturbation import TruncationPolicy, series_tables
from thermaljcm.validation import run_validation_suite, theta_for_angle
from reference import block_element_pe, make_params, osc_pair

COLD = bogoliubov_angles(math.inf, 1.0, 1.0)


class TestSqueezedVacuum:
    def test_zero_angle_is_vacuum(self):
        # the real amplitudes on |n, n>, not an n_fock x n_fock matrix
        phi = two_mode_squeezed_vacuum(0.0, FockTruncation(20))
        expected = np.zeros(20)
        expected[0] = 1.0
        assert phi.dtype == float
        np.testing.assert_array_equal(phi, expected)

    def test_reduced_distribution_is_geometric(self):
        # Bose-Einstein law: p_n = (1 - r) r^n with r = tanh^2
        theta = 0.5
        trunc = FockTruncation(40)
        dist = two_mode_squeezed_vacuum(theta, trunc) ** 2
        r = math.tanh(theta) ** 2
        for n in range(20):
            assert dist[n] == pytest.approx((1 - r) * r**n, abs=1e-8)

    def test_mean_occupation(self):
        theta = 0.5
        phi = two_mode_squeezed_vacuum(theta, FockTruncation(60))
        nbar = float(np.sum(np.arange(60) * phi**2))
        assert nbar == pytest.approx(math.sinh(theta) ** 2, abs=1e-10)

    def test_leakage_raised_for_tiny_cutoff(self):
        with pytest.raises(LeakageError):
            two_mode_squeezed_vacuum(1.5, FockTruncation(4, leak_tol=1e-10))

    def test_rejects_negative_angle(self):
        with pytest.raises(ValueError):
            two_mode_squeezed_vacuum(-0.1, FockTruncation(10))

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            FockTruncation(1)
        with pytest.raises(ValueError):
            FockTruncation(10, leak_tol=0.0)

    @pytest.mark.parametrize("alpha, thermal", [(1.3e154, theta_for_angle(0.2, 1.0, 1.0)),
                                                (2.0, bogoliubov_angles(1e-308, 1.0, 1.0))])
    def test_automatic_cutoff_past_the_float_range(self, alpha, thermal):
        # |alpha|^2 e^(2 theta) is inf, or e^(2 theta) overflows on its own
        with pytest.raises(ValueError, match="float range"):
            FockTruncation.auto(make_params(alpha=alpha), thermal)


    @pytest.mark.parametrize("make", [
        lambda: FockTruncation(5000),
        lambda: FockTruncation.auto(make_params(), thermal_from_inv_beta(1e308, make_params())),
    ], ids=["past 2048 levels", "past the float range"])
    def test_cutoff_past_a_limit_names_n_fock(self, make):
        with pytest.raises(LimitError) as exc:
            make()
        assert exc.value.param == "n_fock"


class TestDisplacement:
    def test_zero_is_identity(self):
        d = displacement_matrix(0.0, FockTruncation(15))
        np.testing.assert_allclose(d, np.eye(15), atol=1e-14)

    def test_first_column_is_coherent_state(self):
        trunc = FockTruncation(40)
        d = displacement_matrix(1.5, trunc)
        expected = coherent_state_vector(1.5, 40)
        np.testing.assert_allclose(d[:, 0], expected, atol=1e-10)

    def test_group_inverse(self):
        trunc = FockTruncation(40, leak_tol=1e-6)
        d = displacement_matrix(1.5, trunc)
        dinv = displacement_matrix(-1.5, trunc)
        np.testing.assert_allclose(d @ dinv, np.eye(40), atol=1e-9)

    def test_complex_amplitude_column(self):
        gamma = 0.8 - 1.1j
        d = displacement_matrix(gamma, FockTruncation(40))
        np.testing.assert_allclose(d[:, 0], coherent_state_vector(gamma, 40), atol=1e-10)


class TestThermalCoherentState:
    def test_zero_angle_is_product_of_coherent_states(self):
        alpha = 1.2 + 0.4j
        trunc = FockTruncation(30)
        phi = thermal_coherent_state(alpha, 0.0, trunc)
        expected = np.outer(coherent_state_vector(alpha, 30),
                            coherent_state_vector(np.conj(alpha), 30))
        np.testing.assert_allclose(phi, expected, atol=1e-10)

    @pytest.mark.parametrize("alpha, theta", [(2.0, 0.2), (1.0, 0.3), (1.5, 0.05)])
    def test_mean_photon_number(self, alpha, theta):
        trunc = FockTruncation(50)
        phi = thermal_coherent_state(alpha, theta, trunc)
        nbar = float(np.sum(np.arange(50)[:, None] * np.abs(phi) ** 2))
        assert nbar == pytest.approx(abs(alpha) ** 2 * math.exp(2 * theta)
                                     + math.sinh(theta) ** 2, abs=1e-6)

    def test_two_construction_routes_agree(self):
        trunc = FockTruncation(30)
        direct = thermal_coherent_state(1.0, 0.3, trunc)
        via_gen = thermal_coherent_state_via_generator(1.0, 0.3, trunc)
        overlap = abs(np.vdot(via_gen, direct))
        assert overlap > 1.0 - 1e-8


@pytest.fixture
def numpy_openblas():
    """(get, set) of numpy's OpenBLAS thread count, set to 3 for the test
    and restored after it; skips where numpy's BLAS is not OpenBLAS."""
    fns = oracle._numpy_openblas_threads()
    if fns is None:
        pytest.skip("numpy's BLAS is not OpenBLAS: the pin does nothing")
    get_fn, set_fn = fns
    before = get_fn()
    set_fn(3)
    try:
        yield fns
    finally:
        set_fn(before)


class TestNumpyBlasPin:
    """The state constructions run numpy's OpenBLAS on one thread and restore
    the count the caller had."""

    @pytest.mark.parametrize("build", [thermal_coherent_state,
                                       thermal_coherent_state_via_generator])
    def test_constructions_run_on_one_thread(self, monkeypatch, numpy_openblas, build):
        get_fn, _ = numpy_openblas
        seen = []

        def spy(a):
            seen.append(get_fn())
            return expm(a)

        monkeypatch.setattr(oracle, "expm", spy)
        build(1.0, 0.3, FockTruncation(20))
        assert seen == [1]
        assert get_fn() == 3

    def test_count_is_restored_after_a_leak(self, numpy_openblas):
        get_fn, _ = numpy_openblas
        with pytest.raises(LeakageError, match="displaced-vacuum mass"):
            thermal_coherent_state(5.0, 0.1, FockTruncation(10))
        assert get_fn() == 3

    def test_overlapping_blocks_restore_the_count(self, numpy_openblas):
        # more threads than CPUs, switching often: a block entered while
        # another is open must not save the pinned count as the one to restore
        get_fn, _ = numpy_openblas
        inside = []
        barrier = threading.Barrier(8, timeout=30)

        def enter():
            barrier.wait()
            for _ in range(200):
                with oracle._one_numpy_blas_thread():
                    inside.append(get_fn())
                    time.sleep(1e-5)  # let the other threads enter and leave

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=enter) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert inside == [1] * 1600
        assert get_fn() == 3

    def test_construction_without_openblas_is_unpinned(self, monkeypatch):
        # where numpy's extension cannot be opened as a library there is no
        # thread count to pin, and the state is the one the pin builds
        trunc = FockTruncation(20)
        pinned = thermal_coherent_state(1.0, 0.3, trunc)

        def no_library(*args, **kwargs):
            raise OSError("cannot open the library")

        oracle._numpy_openblas_threads.cache_clear()
        try:
            with monkeypatch.context() as m:
                m.setattr(oracle.ctypes, "CDLL", no_library)
                assert oracle._numpy_openblas_threads() is None
                unpinned = thermal_coherent_state(1.0, 0.3, trunc)
        finally:
            oracle._numpy_openblas_threads.cache_clear()
        assert np.max(np.abs(unpinned - pinned)) <= 1e-14

    def test_pin_is_private(self):
        assert not any("blas" in name for name in oracle.__all__)


def two_exponential_state(alpha, theta, trunc):
    """thermal_coherent_state as two displacement exponentials and two dense
    products: the formula the one-exponential construction must equal.  It
    runs under the construction's BLAS pin: some OpenBLAS kernels (Haswell's,
    also picked on AMD Zen) round a product differently on one thread and on
    two."""
    scale = math.exp(theta)
    with oracle._one_numpy_blas_thread():
        d_phys = displacement_matrix(alpha * scale, trunc)
        d_tilde = displacement_matrix(np.conj(alpha) * scale, trunc)
        return d_phys @ np.diag(two_mode_squeezed_vacuum(theta, trunc)) @ d_tilde.T


def complex_generator_state(alpha, theta, n):
    """The generator route with the squeeze generator exponentiated as a
    complex matrix."""
    a = np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1).astype(complex)
    ad = a.T.conj()
    gen = -theta * (np.kron(a, a) - np.kron(ad, ad))
    vec = np.kron(coherent_state_vector(alpha, n), coherent_state_vector(np.conj(alpha), n))
    return (expm(gen) @ vec).reshape(n, n)


AMPLITUDES = [1.3, -1.7, 1.1 + 0.6j, 0.8 - 1.2j, 2.2j]


class TestConstructionIdentities:
    @staticmethod
    def record_expm(monkeypatch):
        dtypes = []
        real = oracle.expm
        monkeypatch.setattr(oracle, "expm", lambda m: dtypes.append(m.dtype) or real(m))
        return dtypes

    @pytest.mark.parametrize("n_fock", [27, 30, 92, 114])
    @pytest.mark.parametrize("gamma", AMPLITUDES)
    def test_conjugate_displacement_is_displacement_of_conjugate(self, n_fock, gamma):
        # the ladder matrix is real, so D(conj gamma) = conj(D(gamma)), and
        # scipy's expm gives exactly that value
        trunc = FockTruncation(n_fock, leak_tol=1e-6)
        assert np.array_equal(np.conj(displacement_matrix(gamma, trunc)),
                              displacement_matrix(np.conj(gamma), trunc))

    @pytest.mark.parametrize("n_fock", [30, 92])
    @pytest.mark.parametrize("theta", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("alpha", AMPLITUDES)
    def test_state_equals_two_exponential_formula(self, n_fock, theta, alpha):
        trunc = FockTruncation(n_fock, leak_tol=1e-6)
        assert np.array_equal(thermal_coherent_state(alpha, theta, trunc),
                              two_exponential_state(alpha, theta, trunc))

    @pytest.mark.parametrize("alpha, theta", [(1.0, 0.3), (0.5 + 0.5j, 0.1), (-0.7j, 0.2)])
    def test_real_generator_matches_complex_generator(self, alpha, theta):
        trunc = FockTruncation(20, leak_tol=1e-6)
        real = thermal_coherent_state_via_generator(alpha, theta, trunc)
        assert np.max(np.abs(real - complex_generator_state(alpha, theta, 20))) <= 1e-15

    def test_state_takes_one_exponential(self, monkeypatch):
        dtypes = self.record_expm(monkeypatch)
        thermal_coherent_state(1.1 + 0.6j, 0.2, FockTruncation(40))
        assert len(dtypes) == 1

    def test_generator_is_exponentiated_in_real_arithmetic(self, monkeypatch):
        dtypes = self.record_expm(monkeypatch)
        thermal_coherent_state_via_generator(1.1 + 0.6j, 0.2, FockTruncation(10, leak_tol=1e-3))
        assert dtypes == [np.float64]

    def test_squeezed_vacuum_tail_is_checked(self):
        # D(0) is the identity, so only the squeezed-vacuum tail can leak
        with pytest.raises(LeakageError, match="squeezed-vacuum tail"):
            thermal_coherent_state(0.0, 1.5, FockTruncation(4, leak_tol=1e-10))


class TestInitialState:
    def test_zero_temperature_structure(self):
        p = make_params(alpha=1.5)
        trunc = FockTruncation(40)
        state = build_initial_state(p, COLD, trunc)
        # all weight on the (ground, tilde-ground) block
        assert np.all(state.amp[1] == 0)
        assert np.all(state.amp[0, 1] == 0)
        np.testing.assert_allclose(
            state.amp[0, 0],
            np.outer(coherent_state_vector(1.5, trunc.n_fock),
                     coherent_state_vector(1.5, trunc.n_fock)),
            atol=1e-10)

    def test_fermi_dirac_weights(self):
        p = make_params(alpha=1.0)
        thermal = thermal_from_inv_beta(0.25, p)
        state = build_initial_state(p, thermal, FockTruncation.auto(p, thermal))
        boltz = math.exp(-thermal.beta * p.omega0)
        assert np.sum(np.abs(state.amp[1]) ** 2) == pytest.approx(
            boltz / (1 + boltz), abs=1e-12)
        assert np.sum(np.abs(state.amp[0]) ** 2) == pytest.approx(
            1 / (1 + boltz), abs=1e-12)

    def test_norm(self):
        p = make_params(alpha=2.0)
        thermal = thermal_from_inv_beta(0.2, p)
        state = build_initial_state(p, thermal, FockTruncation.auto(p, thermal))
        assert state.norm_sq == pytest.approx(1.0, abs=1e-10)

    def test_initial_excitation_is_thermal_weight(self):
        p = make_params(alpha=2.0)
        thermal = thermal_from_inv_beta(0.15, p)
        state = build_initial_state(p, thermal, FockTruncation.auto(p, thermal))
        assert reduce_atom(state)[0] == pytest.approx(thermal.sin_atom**2, abs=1e-12)


class TestPropagation:
    def test_t_zero_is_identity(self):
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=1.5)
        thermal = thermal_from_inv_beta(0.1, p)
        state = build_initial_state(p, thermal, FockTruncation.auto(p, thermal))
        out = propagate(state, 0.0, p)
        np.testing.assert_array_equal(out.amp, state.amp)

    @pytest.mark.parametrize("t", [[0.5], [0.5, 1.0], np.zeros((2, 2)), np.array([])])
    def test_time_must_be_a_scalar(self, t):
        p = make_params(l=1, alpha=1.0)
        init = build_initial_state(p, COLD, FockTruncation.auto(p))
        with pytest.raises(ValueError, match="time must be a scalar"):
            propagate(init, t, p)

    @pytest.mark.parametrize("n_fock", [2, 3, 5, 64, 2048])
    @pytest.mark.parametrize("omega0", [1.0, 2.5])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_shifted_block_elements_equal_direct_evaluation(self, l, omega0, n_fock):
        # A'(m) = A(m - l) for m >= l; omega0 = l is resonant, where the
        # structural columns of D' are zero and take the (1, t) limit
        for w0 in (float(l), omega0):
            p = make_params(l=l, g=0.7, omega0=w0, omega=1.0)
            table = EigenvalueTable(p, n_fock - 1)
            # D'_m = (delta/2)^2 + g^2 prod_{k=0..l-1} (m - k), zero product for m < l
            mm = np.arange(n_fock, dtype=float)
            prod = np.prod(mm[:, None] - np.arange(l)[None, :], axis=1)
            prod[:l] = 0.0
            d_prime = (p.delta / 2.0) ** 2 + p.g * p.g * prod
            nn = np.arange(max(n_fock - l, 0), dtype=float)
            beta = np.sqrt(np.prod(nn[:, None] + np.arange(1, l + 1)[None, :], axis=1))
            for t in (0.0, 0.3, 1.7, 12.5, 400.0):
                diag_e, diag_g, coup = oracle._block_elements(table, t)
                a, b = osc_pair(table.sqrt_d, table.d, t, p.delta / 2.0)
                ap, _ = osc_pair(np.sqrt(d_prime), d_prime, t, p.delta / 2.0)
                np.testing.assert_array_equal(diag_e, np.conj(a))
                np.testing.assert_array_equal(diag_g, ap)
                np.testing.assert_array_equal(coup, -1j * p.g * beta * b[: nn.size])

    def test_one_call_holds_at_most_three_states(self):
        # n_fock 120: a state is 0.9 MB.  A call holds the state after the
        # physical factor, the new state and at most one state of
        # temporaries: a coupling product of under half a state with numpy's
        # 8192-element ufunc buffer, or reduce_atom's conjugate and product,
        # or the abs temporaries.  The input state is the caller's
        p = make_params(l=2, alpha=6.0)
        init = build_initial_state(p, thermal_from_inv_beta(0.1, p), FockTruncation(120))
        tracemalloc.start()
        try:
            reduce_atom(propagate(init, 3.0, p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * init.amp.nbytes

    @pytest.mark.parametrize("inv_beta", [0.0, 0.2])
    @pytest.mark.parametrize("alpha", [1.2, 0.8 - 0.6j])
    @pytest.mark.parametrize("detuning", [0.0, 0.3])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_blocks_are_the_truncated_hamiltonians_exponential(self, l, detuning, alpha,
                                                               inv_beta):
        # H = -(delta/2)(|e><e| - |g><g|) x 1 + g (sigma+ x a^l + sigma- x a^dag^l)
        # on n_fock levels, on the (atom, cavity) index f n_fock + n, and U =
        # expm(-i H t); the tilde factor is conj(U).  omega = 1 and omega0 =
        # l - delta: at 14 levels no case leaks past 1e-2
        p = make_params(l=l, omega0=l - detuning, omega=1.0, alpha=alpha)
        n = 14
        trunc = FockTruncation(n, leak_tol=1e-2)
        init = build_initial_state(p, thermal_from_inv_beta(inv_beta, p), trunc)
        a_l = np.linalg.matrix_power(np.diag(np.sqrt(np.arange(1.0, n)), 1), l)
        h = np.zeros((2 * n, 2 * n), dtype=complex)
        h[:n, :n] = p.delta / 2.0 * np.eye(n)  # |g><g|
        h[n:, n:] = -p.delta / 2.0 * np.eye(n)  # |e><e|
        h[n:, :n] = p.g * a_l  # sigma+ x a^l: |e, m> <g, m + l|
        h[:n, n:] = p.g * a_l.T
        amp = init.amp.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)  # [(f, n), (ft, nt)]
        for t in (0.3, 1.7, 4.0):
            u = expm(-1j * h * t)
            want = (u @ amp @ np.conj(u).T).reshape(2, n, 2, n).transpose(0, 2, 1, 3)
            assert np.max(np.abs(propagate(init, t, p).amp - want)) <= 1e-13

    @pytest.mark.parametrize("inv_beta", [0.0, 0.2])
    @pytest.mark.parametrize("alpha", [1.5, 1.3 + 0.7j])
    @pytest.mark.parametrize("detuning", [0.0, 0.3])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_times_compose(self, l, detuning, alpha, inv_beta):
        # U(t) U(s) = U(s + t): a call at t on the state a call at s returns
        # is a call at s + t, to at most 3.5e-15 over these cases.  omega0 = 1
        # and l omega = 1 + detuning
        p = make_params(l=l, omega0=1.0, omega=(1.0 + detuning) / l, alpha=alpha)
        thermal = thermal_from_inv_beta(inv_beta, p)
        trunc = FockTruncation(FockTruncation.auto(p, thermal).n_fock + 12)
        init = build_initial_state(p, thermal, trunc)
        for s, t in ((0.4, 1.1), (1.7, 2.3)):
            twice = propagate(propagate(init, s, p), t, p)
            assert np.max(np.abs(twice.amp - propagate(init, s + t, p).amp)) <= 1e-14

    @pytest.mark.parametrize("t", [0.5, 5.0, 50.0])
    def test_norm_preserved(self, t):
        p = make_params(l=1, alpha=2.0)
        thermal = thermal_from_inv_beta(0.1, p)
        state = build_initial_state(p, thermal, FockTruncation.auto(p, thermal))
        assert propagate(state, t, p).norm_sq == pytest.approx(1.0, abs=1e-10)

    def test_matches_series_at_zero_temperature(self):
        p = make_params(l=1, alpha=2.0)
        t_grid = np.linspace(0.0, 3.0, 31)
        exact = pe_curve(p, COLD, t_grid, FockTruncation.auto(p))
        series = series_tables(t_grid, p, TruncationPolicy.adaptive(p), coherence=False).pe(COLD)
        np.testing.assert_allclose(exact, series, atol=1e-10)

    # the paper's amplitudes, one of them complex, at each multiplicity and
    # at detunings delta = l omega - omega0 from omega0 = 1, 2 and 4
    @pytest.mark.parametrize("omega0", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha", [6.0, 7.0, 12.0, 12.0 * cmath.exp(0.5j)])
    def test_matches_series_at_zero_temperature_over_the_paper_range(self, alpha, l, omega0):
        p = make_params(l=l, omega0=omega0, alpha=alpha)
        thermal = thermal_from_inv_beta(0.0, p)
        t_grid = np.linspace(0.0, 1.35 * t0_period(p), 201)
        exact = pe_curve(p, thermal, t_grid, FockTruncation.auto(p, thermal))
        series = series_tables(t_grid, p, TruncationPolicy.adaptive(p),
                               coherence=False).pe(thermal)
        assert np.max(np.abs(exact - series)) <= 1e-12

    def test_leakage_error_on_undersized_basis(self):
        p = make_params(l=1, alpha=3.0)
        state = build_initial_state(
            p, COLD, FockTruncation(24, leak_tol=1e-4))
        with pytest.raises(LeakageError):
            propagate(state, 2.0, p)

    def test_phase_past_the_float_precision_is_refused(self):
        # from t = 1e17 the phase sqrt(D) t rounds by 32 rad: both routes
        # would agree on rounding noise
        p = make_params(l=1, alpha=2.0)
        trunc = FockTruncation(40)
        init = build_initial_state(p, COLD, trunc)
        grid = 1e17 + 1e6 * np.arange(11)
        for call in (lambda: propagate(init, grid[-1], p),
                     lambda: pe_curve(p, COLD, grid, trunc),
                     lambda: atom_block_matrices(grid[0], p, 40)):
            with pytest.raises(LimitError, match="its largest phase") as exc:
                call()
            assert exc.value.param == "t_max"

    def test_pe_curve_refuses_a_2d_grid(self):
        with pytest.raises(ValueError, match="1-d array"):
            pe_curve(make_params(l=1, alpha=2.0), COLD, np.zeros((2, 2)), FockTruncation(20))

    @pytest.mark.parametrize("g", [0.0, 1e-170])
    def test_t_squared_past_the_float_range_is_refused(self, g):
        # g^2 underflows, so every D_m rounds to 0 and B takes its limit t,
        # which no longer holds: at t = 1e200 both routes raised LeakageError
        # with edge populations of 1.5e43 and 8.2e103.  At g = 0 the one-sin
        # sum would be 0 x t^2 = 0 x inf = nan
        p = make_params(l=1, g=g, alpha=2.0)
        thermal = thermal_from_inv_beta(0.1, p)
        trunc = FockTruncation(30)
        init = build_initial_state(p, thermal, trunc)
        for call in (lambda: propagate(init, 1e200, p),
                     lambda: pe_curve(p, thermal, [0.0, 1e200], trunc)):
            with pytest.raises(LimitError, match="t = 1e\\+200: sin\\^2") as exc:
                call()
            assert exc.value.param == "t_max"

    def test_rejects_basis_smaller_than_multiplicity(self):
        p = make_params(l=3, omega0=1.0, omega=1.0, alpha=0.1)
        trunc = FockTruncation(3, leak_tol=0.5)
        state = DoubledFockState(amp=np.zeros((2, 2, 3, 3), dtype=complex),
                                 trunc=trunc)
        state.amp[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            propagate(state, 0.5, p)

    def test_large_amplitude_revival_matches_series(self):
        # alpha = 12 (n_fock ~ 250): the exact solver agrees with the series
        # at the two-photon revival time, where the rephasing is near perfect
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=12.0)
        thermal = thermal_from_inv_beta(0.1, p)
        trunc = FockTruncation.auto(p, thermal)
        state = propagate(build_initial_state(p, thermal, trunc), math.pi, p)
        exact = reduce_atom(state)[0]
        series = series_tables([math.pi], p, TruncationPolicy(250), coherence=False).pe(thermal)[0]
        assert exact > 0.99
        assert exact == pytest.approx(series, abs=1e-8)

    def test_revival_visible_for_two_photon_model(self):
        # revival near pi must rise well above the collapsed plateau
        p = make_params(l=2, alpha=7.0)
        thermal = thermal_from_inv_beta(0.1, p)
        trunc = FockTruncation.auto(p, thermal)
        plateau_t = np.linspace(1.0, 1.5, 25)
        revival_t = np.linspace(2.95, 3.35, 25)
        plateau = np.abs(pe_curve(p, thermal, plateau_t, trunc) - 0.5).max()
        revival = np.abs(pe_curve(p, thermal, revival_t, trunc) - 0.5).max()
        assert revival > 1.5 * plateau


def apply_free_phase(state: DoubledFockState, t: float, params: ModelParams) -> DoubledFockState:
    """Multiply in the free-evolution phase omega [l (f - f~) + (n - n~)].

    It commutes with the interaction propagator and only rotates phases.
    """
    n = state.trunc.n_fock
    w = params.omega
    phase_n = np.exp(-1j * w * t * np.arange(n))
    f_phase = np.exp(-1j * w * t * params.l * np.arange(2))
    amp = (state.amp
           * f_phase[:, None, None, None]
           * np.conj(f_phase)[None, :, None, None]
           * phase_n[None, None, :, None]
           * np.conj(phase_n)[None, None, None, :])
    return DoubledFockState(amp=amp, trunc=state.trunc)


class TestReduction:
    def test_initial_coherence_vanishes(self):
        p = make_params(alpha=1.5)
        thermal = thermal_from_inv_beta(0.1, p)
        state = build_initial_state(p, thermal, FockTruncation.auto(p, thermal))
        rho00, rho01 = reduce_atom(state)
        assert rho01 == 0.0
        assert rho00 == pytest.approx(thermal.sin_atom**2, abs=1e-12)

    def test_trace_is_one(self):
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=2.0)
        thermal = thermal_from_inv_beta(0.1, p)
        state = propagate(build_initial_state(p, thermal, FockTruncation.auto(p, thermal)),
                          1.3, p)
        rho00, rho01 = reduce_atom(state)
        # rho11 = 1 - rho00 by construction; rho00 must be a probability and
        # |rho01| must stay inside the positivity bound
        assert 0.0 <= rho00 <= 1.0
        assert abs(rho01) ** 2 <= rho00 * (1.0 - rho00) + 1e-12

    def test_free_phase_leaves_observables_unchanged(self):
        # the free Hamiltonian commutes with the interaction; its phase must
        # not move P_e, |rho01|, or the coherence
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=2.0)
        thermal = thermal_from_inv_beta(0.1, p)
        state = propagate(build_initial_state(p, thermal, FockTruncation.auto(p, thermal)),
                          0.9, p)
        rotated = apply_free_phase(state, 0.9, p)
        (p0, z0), (p1, z1) = reduce_atom(state), reduce_atom(rotated)
        assert abs(p0 - p1) < 1e-12
        assert abs(abs(z0) - abs(z1)) < 1e-12
        assert abs(coherence_values(p0, abs(z0)) - coherence_values(p1, abs(z1))) < 1e-12

    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [2.0, 1.5 - 0.7j])
    def test_excited_population_is_the_excited_weight(self, l, alpha):
        # one formula for rho00: the state's own, reduce_atom's and the
        # Fermi-Dirac weight's sum over the excited level, bit for bit
        p = make_params(l=l, alpha=alpha)
        thermal = thermal_from_inv_beta(0.2, p)
        init = build_initial_state(p, thermal, FockTruncation.auto(p, thermal))
        for state in (init, *(propagate(init, t, p) for t in (1.0, 2.0, 3.0))):
            rho00 = state.excited_population
            assert rho00 == float(np.sum(np.abs(state.amp[1]) ** 2))
            assert rho00 == reduce_atom(state)[0]


class TestAtomBlockMatrices:
    def test_blocks_are_unitary_together(self):
        # U = [[u00, u01], [u10, u11]] restricted to the truncated space is
        # unitary on the subspace whose couplings are fully inside
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=1.0, g=0.8)
        n = 30
        u00, u01, u10, u11 = atom_block_matrices(1.1, p, n)
        u = np.block([[u00, u01], [u10, u11]])
        gram = u.conj().T @ u
        inner = np.ones(2 * n, dtype=bool)
        inner[n - p.l : n] = False  # excited rows with truncated partners
        sub = gram[np.ix_(inner, inner)]
        np.testing.assert_allclose(sub, np.eye(int(inner.sum())), atol=1e-12)

    def test_state_shape_validation(self):
        with pytest.raises(ValueError):
            DoubledFockState(amp=np.zeros((2, 2, 3, 4), dtype=complex),
                             trunc=FockTruncation(4))

    @pytest.mark.parametrize("shape", [
        (1, 2, 2, 4, 4), (3, 2, 2, 4, 4),  # a batch of states, even of one
        (2, 2, 4, 4, 1), (2, 2, 16), (4, 4), (2, 2, 5, 5), (1, 2, 4, 4),
    ])
    def test_state_holds_exactly_one_state(self, shape):
        with pytest.raises(ValueError, match=r"shape \(2, 2, 4, 4\)"):
            DoubledFockState(amp=np.zeros(shape, dtype=complex), trunc=FockTruncation(4))


def doubled_space_pe(p, thermal, times, trunc):
    """P_e sample by sample through the full doubled-space state."""
    init = build_initial_state(p, thermal, trunc)
    return np.array([reduce_atom(propagate(init, float(t), p))[0] for t in times])


def doubled_space_edge(p, thermal, t, n_fock):
    """Population within l levels of either cutoff, as propagate measures it."""
    init = build_initial_state(p, thermal, FockTruncation(n_fock, leak_tol=0.5))
    amp = propagate(init, t, p).amp
    edge = n_fock - p.l
    return float(np.sum(np.abs(amp[:, :, edge:, :]) ** 2)
                 + np.sum(np.abs(amp[:, :, :, edge:]) ** 2))


class TestReducedStatePe:
    @pytest.mark.parametrize("inv_beta", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("alpha", [1.5, 1.3 + 0.7j])
    @pytest.mark.parametrize("detuning", [0.0, 0.3])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_matches_doubled_space(self, l, detuning, alpha, inv_beta):
        # omega0 = 1 and l omega = 1 + detuning
        p = make_params(l=l, omega0=1.0, omega=(1.0 + detuning) / l, alpha=alpha)
        thermal = thermal_from_inv_beta(inv_beta, p)
        # the auto cutoff is sized for angles up to ~0.3; l omega = 1 runs hotter
        trunc = FockTruncation(FockTruncation.auto(p, thermal).n_fock + 20)
        t = np.linspace(0.0, 3.0, 16)
        exact = doubled_space_pe(p, thermal, t, trunc)
        assert np.max(np.abs(pe_curve(p, thermal, t, trunc) - exact)) <= 1e-15

    @pytest.mark.parametrize("l, omega, alpha, inv_beta, n_fock, t", [
        (1, 1.0, 3.0, 0.0, 24, 2.5),
        (2, 1.0, 2.0, 0.1, 20, 1.1),
        (2, 0.7, 2.0, 0.2, 22, 0.3),
        (3, 0.7, 1.3 + 0.7j, 0.3, 16, 2.5),
        (4, 1.0, 1.2, 0.5, 18, 1.1),
    ])
    @pytest.mark.parametrize("margin", [0.99, 1.01])
    def test_leakage_where_propagate_leaks(self, l, omega, alpha, inv_beta, n_fock, t,
                                           margin):
        # budgets just below and just above the doubled-space edge population
        p = make_params(l=l, omega0=1.0, omega=omega, alpha=alpha)
        thermal = thermal_from_inv_beta(inv_beta, p)
        trunc = FockTruncation(n_fock, leak_tol=margin * doubled_space_edge(p, thermal, t,
                                                                            n_fock))
        init = build_initial_state(p, thermal, trunc)
        if margin < 1:
            with pytest.raises(LeakageError, match="Fock cutoff"):
                propagate(init, t, p)
            with pytest.raises(LeakageError, match="Fock cutoff"):
                pe_curve(p, thermal, [t], trunc)
        else:
            propagate(init, t, p)
            pe_curve(p, thermal, [t], trunc)

    @pytest.mark.parametrize("limit", [model._WORK_CELLS_LIMIT, 1 << 16])
    def test_grid_past_the_work_limit_is_refused_before_the_state(self, monkeypatch, limit):
        # samples x n_fock cells, under the model's one limit, which the series
        # build has too: patched, the edge moves with it
        class Built(Exception):
            pass

        def build(*args, **kwargs):
            raise Built

        monkeypatch.setattr(oracle, "thermal_coherent_state", build)
        monkeypatch.setattr(model, "_WORK_CELLS_LIMIT", limit)
        p = make_params(l=1, alpha=2.0)
        n_fock = 2048
        edge = limit // n_fock
        with pytest.raises(Built):
            pe_curve(p, COLD, np.zeros(edge), FockTruncation(n_fock))
        with pytest.raises(LimitError, match=f"on {edge + 1} time samples x 2048 Fock levels "
                                             f"has {(edge + 1) * n_fock} ") as exc:
            pe_curve(p, COLD, np.zeros(edge + 1), FockTruncation(n_fock))
        assert exc.value.param == "t"

    def test_rejects_basis_smaller_than_multiplicity(self):
        p = make_params(l=3, alpha=0.1)
        with pytest.raises(ValueError):
            pe_curve(p, COLD, [0.5], FockTruncation(3, leak_tol=0.5))

    @pytest.mark.parametrize("alpha", [2.0, 1.3 + 0.7j])
    def test_one_sample_equals_grid_column(self, alpha):
        p = make_params(l=3, omega0=1.0, omega=0.5, alpha=alpha)
        thermal = thermal_from_inv_beta(0.1, p)
        trunc = FockTruncation.auto(p, thermal)
        t = np.linspace(0.0, 4.0, 41)
        grid = pe_curve(p, thermal, t, trunc)
        singles = np.array([pe_curve(p, thermal, [x], trunc)[0] for x in t])
        np.testing.assert_array_equal(singles, grid)

    @settings(max_examples=25, deadline=None)
    @given(cuts=st.lists(st.integers(0, 700), max_size=4))
    def test_any_split_of_the_grid_is_bitwise_equal(self, cuts):
        # 700 samples cross the solver's internal time-chunk boundary
        p = make_params(l=2, omega0=1.0, omega=0.8, alpha=1.1 - 0.4j)
        thermal = thermal_from_inv_beta(0.1, p)
        trunc = FockTruncation.auto(p, thermal)
        t = np.linspace(0.0, 7.0, 700)
        full = pe_curve(p, thermal, t, trunc)
        parts = np.split(t, sorted(cuts))
        split = np.concatenate([pe_curve(p, thermal, part, trunc) for part in parts
                                if part.size])
        np.testing.assert_array_equal(split, full)


#: a real and a complex amplitude, a detuned case, and g = 0 at resonance,
#: where every D_n is 0 and the reduction takes its limit t^2
ONE_SIN_CASES = [
    (make_params(l=1, alpha=2.0), 0.16),
    (make_params(l=3, g=0.8, omega0=2.5, alpha=1.2 + 0.5j), 0.1),
    (make_params(l=2, g=0.0, omega0=2.0, alpha=1.5), 0.16),
]


class TestOneSinPe:
    """``pe_curve`` on the series' one-sin reduction: against the block
    elements of the doubled-space propagator, and bitwise independent of the
    worker threads and chunks."""

    # the fig3a-d sweeps' parameters (alpha 12, l 1-4), on their grid's last
    # 400 samples before 1.3 revival periods
    @pytest.mark.parametrize("inv_beta", [0.08, 0.16])
    @pytest.mark.parametrize("preset", ["fig3a", "fig3b", "fig3c", "fig3d"])
    def test_matches_the_block_elements_at_the_paper_amplitudes(self, preset, inv_beta):
        p = parse_config(build_preset(preset)).params
        thermal = thermal_from_inv_beta(inv_beta, p)
        trunc = FockTruncation.auto(p, thermal)
        dt = default_dt(p)
        end = math.floor(1.3 * t0_prime_period(p, thermal) / dt)
        t = dt * np.arange(end - 399, end + 1)
        phi = thermal_coherent_state(p.alpha, thermal.theta, trunc)
        reference = block_element_pe(p, thermal, t, np.sum(np.abs(phi) ** 2, axis=1))
        assert np.max(np.abs(pe_curve(p, thermal, t, trunc) - reference)) <= 1e-15

    @settings(max_examples=25, deadline=None)
    @given(case=st.sampled_from(range(len(ONE_SIN_CASES))),
           workers=st.sampled_from([1, 2, 3]),
           n=st.integers(1, 60),
           tile=st.integers(1, 4096))
    # one sample; one-row tiles; tiles crossing the grid end at D = 0
    @example(case=1, workers=3, n=1, tile=4096)
    @example(case=0, workers=3, n=60, tile=1)
    @example(case=2, workers=2, n=29, tile=100)
    def test_worker_count_changes_no_bit(self, case, workers, n, tile):
        p, inv_beta = ONE_SIN_CASES[case]
        thermal = thermal_from_inv_beta(inv_beta, p)
        trunc = FockTruncation.auto(p, thermal)
        t = np.linspace(0.0, 5.0, n)
        with mock.patch.object(model, "_usable_cpus", lambda: 1):
            serial = pe_curve(p, thermal, t, trunc)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(model, "_usable_cpus", lambda: workers), \
                    mock.patch.object(model, "_MIN_WORKER_CELLS", 1), \
                    mock.patch.object(model, "_TILE_CELLS", tile):
                threaded = pe_curve(p, thermal, t, trunc)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.tobytes() == serial.tobytes()


class TestPropagateCallCount:
    @staticmethod
    def count_propagate(monkeypatch):
        """The time argument of each propagate call."""
        calls = []
        real = oracle.propagate
        monkeypatch.setattr(oracle, "propagate",
                            lambda *a, **k: calls.append(a[1]) or real(*a, **k))
        return calls

    def test_pe_series_with_oracle_makes_none(self, monkeypatch, tmp_path):
        calls = self.count_propagate(monkeypatch)
        doc = {"schema": 1,
               "model": {"l": 2, "g": 1.0, "omega0": 1.0, "omega": 1.0, "alpha": 2.0},
               "thermal": {"inv_beta": 0.1},
               "grid": {"t_start": 0.0, "t_stop": 3.0, "dt": 0.05},
               "truncation": {"n_max": 40}, "oracle": {"with_oracle": True}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        assert main(["pe-series", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines()[0].endswith(",pe_oracle")
        assert calls == []

    def test_validation_suite_makes_231(self, monkeypatch):
        # one call per time: 2 l values x 7 angles x 2 times for the scaling
        # fits, 3 unitarity samples, 2 l values x 100 zero-temperature samples
        calls = self.count_propagate(monkeypatch)
        assert run_validation_suite()["passed"]
        assert len(calls) == 2 * 7 * 2 + 3 + 2 * 100
        assert all(np.ndim(t) == 0 for t in calls)


LEAK_P = make_params(l=1, alpha=3.0)


@pytest.mark.parametrize("call, n_fock, leaked", [
    # the norm check, at a budget below the norm's rounding (1.8e-15)
    (lambda: thermal_coherent_state(1.0, 0.1, FockTruncation(40, leak_tol=1e-17)), 40,
     "thermal coherent state: |norm^2 - 1| = "),
    (lambda: two_mode_squeezed_vacuum(1.5, FockTruncation(4, leak_tol=1e-10)), 4,
     "squeezed-vacuum tail "),
    (lambda: displacement_matrix(5.0, FockTruncation(10)), 10,
     "displaced-vacuum mass at the cutoff "),
    (lambda: propagate(build_initial_state(LEAK_P, COLD, FockTruncation(24, leak_tol=1e-4)),
                       2.0, LEAK_P), 24, "population "),
    (lambda: pe_curve(LEAK_P, COLD, [0.0, 2.0], FockTruncation(24, leak_tol=1e-4)), 24,
     "population "),
], ids=["norm", "squeezed_vacuum", "displacement", "propagate", "pe_curve"])
def test_a_leak_is_the_cutoffs_refusal(call, n_fock, leaked):
    # every site that finds a leak refuses the cutoff as any layer refuses an
    # input, so main names the field that set n_fock with no handler's help
    with pytest.raises(LimitError) as exc:
        call()
    assert isinstance(exc.value, LeakageError) and exc.value.param == "n_fock"
    assert str(exc.value).startswith(f"oracle cutoff n_fock = {n_fock} is too small, {leaked}")


def test_zero_angle_is_zero_temperature():
    thermal = theta_for_angle(0.0, 1.0, 1.0)
    assert thermal == bogoliubov_angles(math.inf, 1.0, 1.0)
    assert thermal.zero_temperature


def test_validation_suite_builds_16_initial_states(monkeypatch):
    # 2 l values x (7 angles + the zero-temperature state); the thermal-state
    # checks reuse the state of the last l at the largest angle
    builds = []
    build = oracle.build_initial_state
    monkeypatch.setattr(oracle, "build_initial_state",
                        lambda *args: builds.append(args) or build(*args))
    assert run_validation_suite()["passed"]
    assert len(builds) == 2 * (7 + 1)


@pytest.mark.parametrize("l", [1, 2])
def test_degeneracy_check_forms_no_rho01(monkeypatch, l):
    # the check reads rho00 only: it returns its record with reduce_atom gone
    cut = validation.SuiteCutoffs.size(make_params(l=l))
    record = validation._check_zero_temperature_degeneracy(cut)

    def refuse(state):
        raise AssertionError("formed rho01")

    monkeypatch.setattr(oracle, "reduce_atom", refuse)
    assert validation._check_zero_temperature_degeneracy(cut) == record
    assert record["passed"]


@pytest.mark.parametrize("params, param", [
    (make_params(l=1, alpha=50.0), "alpha"),  # automatic cutoffs past 2048 levels
    (make_params(l=1, alpha=1.3e154), "alpha"),  # past the float range
    (make_params(l=132), "l"),  # (m + 1)...(m + 132) overflows at the suite's rows
    # cutoffs of 2060 and 2120 levels, past the limit even at alpha = 0
    (make_params(l=2040, alpha=1.0), "l"),
    (make_params(l=2100, alpha=1.0), "l"),
])
def test_validation_suite_refuses_before_it_builds(monkeypatch, params, param):
    def refuse(*args, **kwargs):
        raise AssertionError("built a table or state the suite refuses")

    monkeypatch.setattr(oracle, "build_initial_state", refuse)
    monkeypatch.setattr(perturbation, "series_tables", refuse)
    with pytest.raises(LimitError) as exc:
        run_validation_suite(params)
    assert exc.value.param == param
