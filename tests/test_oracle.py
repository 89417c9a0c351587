"""Exact doubled-Fock-space solver: states, propagation, reductions."""

import math

import numpy as np
import pytest

from thermaljcm.model import ModelParams, bogoliubov_angles, thermal_from_inv_beta
from thermaljcm.oracle import (
    DoubledFockState,
    FockTruncation,
    LeakageError,
    atom_block_matrices,
    build_initial_state,
    coherent_state_vector,
    displacement_matrix,
    observe_pe,
    pe_curve,
    propagate,
    reduce_atom,
    thermal_coherent_state,
    thermal_coherent_state_via_generator,
    two_mode_squeezed_vacuum,
)
from thermaljcm.coherence import coherence_values
from thermaljcm.perturbation import TruncationPolicy, series_tables

COLD = bogoliubov_angles(math.inf, 1.0, 1.0)


def make_params(l=1, g=1.0, omega0=1.0, omega=1.0, alpha=2.0):
    return ModelParams(l=l, g=g, omega0=omega0, omega=omega, alpha=alpha)


class TestSqueezedVacuum:
    def test_zero_angle_is_vacuum(self):
        phi = two_mode_squeezed_vacuum(0.0, FockTruncation(20))
        expected = np.zeros((20, 20))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(phi, expected)

    def test_reduced_distribution_is_geometric(self):
        # Bose-Einstein law: p_n = (1 - r) r^n with r = tanh^2
        theta = 0.5
        trunc = FockTruncation(40)
        phi = two_mode_squeezed_vacuum(theta, trunc)
        dist = np.sum(np.abs(phi) ** 2, axis=1)
        r = math.tanh(theta) ** 2
        for n in range(20):
            assert dist[n] == pytest.approx((1 - r) * r**n, abs=1e-8)

    def test_mean_occupation(self):
        theta = 0.5
        phi = two_mode_squeezed_vacuum(theta, FockTruncation(60))
        nbar = float(np.sum(np.arange(60)[:, None] * np.abs(phi) ** 2))
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
        assert observe_pe(state) == pytest.approx(thermal.sin_atom**2, abs=1e-12)


class TestPropagation:
    def test_t_zero_is_identity(self):
        p = make_params(l=2, omega0=1.0, omega=1.0, alpha=1.5)
        thermal = thermal_from_inv_beta(0.1, p)
        state = build_initial_state(p, thermal, FockTruncation.auto(p, thermal))
        out = propagate(state, 0.0, p)
        np.testing.assert_array_equal(out.amp, state.amp)

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

    def test_leakage_error_on_undersized_basis(self):
        p = make_params(l=1, alpha=3.0)
        state = build_initial_state(
            p, COLD, FockTruncation(24, leak_tol=1e-4))
        with pytest.raises(LeakageError):
            propagate(state, 2.0, p)

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
        exact = observe_pe(state)
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
