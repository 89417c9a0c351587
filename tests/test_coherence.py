"""Physicality projection and relative entropy of coherence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermaljcm.coherence import (
    LN2,
    PHYS_EPS,
    coherence_values,
    physical_population,
    project_values,
)


def entropy_oracle(rho00, rho01):
    """Independent route: eigendecomposition of the explicit 2x2 matrices."""
    rho = np.array([[rho00, rho01], [np.conj(rho01), 1.0 - rho00]])

    def vn(mat):
        lam = np.linalg.eigvalsh(mat)
        lam = lam[lam > 1e-300]
        return float(-np.sum(lam * np.log(lam)))

    return vn(np.diag(np.diag(rho))) - vn(rho)


class TestProjection:
    def test_boundary_state_untouched(self):
        p, z, changed = project_values(0.5, 0.5)
        assert (p, z) == (0.5, 0.5)
        assert not changed

    def test_excess_coherence_rescaled(self):
        p, z, changed = project_values(0.5, 0.6)
        assert z == pytest.approx(0.5)
        assert p == 0.5
        assert changed

    def test_population_clamped(self):
        p, z, changed = project_values(1.0000003, 0.0)
        assert p == 1.0
        assert z == 0.0
        assert changed

    @settings(max_examples=200, deadline=None)
    @given(raw=st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(0.0, 2.0)),
                        min_size=1, max_size=20))
    def test_projection_properties(self, raw):
        p_raw, z_raw = np.asarray(raw).T
        p, z, _ = project_values(p_raw, z_raw)
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert np.all(z <= z_raw)
        assert np.all(z <= np.sqrt(p * (1.0 - p)))
        assert np.all(z * z <= p * (1.0 - p) + 1e-15)  # up to rounding of the root
        p2, z2, changed2 = project_values(p, z)
        np.testing.assert_array_equal(p2, p)
        np.testing.assert_array_equal(z2, z)
        assert not changed2.any()
        c = coherence_values(p, z)
        assert np.all((c >= 0.0) & (c <= LN2))


class TestRelativeEntropy:
    @pytest.mark.parametrize("rho00", [0.0, 0.17, 0.5, 0.93, 1.0])
    def test_diagonal_states_have_no_coherence(self, rho00):
        assert coherence_values(rho00, 0.0) == 0.0

    def test_maximally_coherent(self):
        c = coherence_values(0.5, 0.5)
        assert c == pytest.approx(LN2, abs=1e-12)

    def test_half_coherence_value(self):
        # lambda = {0.75, 0.25}: C = ln 2 - H(0.75) ~= 0.1308
        c = coherence_values(0.5, 0.25)
        assert c == pytest.approx(0.1308, abs=5e-5)
        assert c == pytest.approx(entropy_oracle(0.5, 0.25), abs=1e-12)

    def test_against_eigendecomposition_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = rng.uniform(0.0, 1.0)
            zmax = math.sqrt(p * (1 - p))
            z = rng.uniform(0, zmax) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            c = coherence_values(p, abs(z))
            assert c == pytest.approx(entropy_oracle(p, z), abs=1e-10)
            assert 0.0 <= c <= LN2

    def test_phase_invariance(self):
        # the coherence of the full matrix does not see the phase of rho01
        rng = np.random.default_rng(11)
        base = coherence_values(0.4, 0.3)
        for phi in rng.uniform(0, 2 * math.pi, size=20):
            assert entropy_oracle(0.4, 0.3 * np.exp(1j * phi)) == pytest.approx(base, abs=1e-13)

    def test_eigenvalues_sum_to_one_and_lie_in_range(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.uniform(0, 1)
            z = rng.uniform(0, math.sqrt(p * (1 - p)))
            disc = (1 - 2 * p) ** 2 + 4 * z * z
            lam_p = 0.5 * (1 + math.sqrt(disc))
            lam_m = 1.0 - lam_p
            assert 0.0 <= lam_m <= lam_p <= 1.0
            assert lam_p + lam_m == pytest.approx(1.0, abs=1e-15)

    def test_monotone_in_coherence_magnitude(self):
        p = 0.3
        zs = np.linspace(0.0, math.sqrt(p * (1 - p)), 30)
        cs = coherence_values(np.full_like(zs, p), zs)
        assert np.all(np.diff(cs) > 0)

    def test_projected_input_is_always_accepted(self):
        rng = np.random.default_rng(13)
        p, z, _ = project_values(rng.uniform(-0.2, 1.2, size=50), rng.uniform(0, 1, size=50))
        c = coherence_values(p, z)
        assert np.all((c >= 0.0) & (c <= LN2))

    def test_classification_flag(self):
        flags = physical_population(np.array([0.5, 1.0 + 5e-7, -5e-7, 1.0 + 2 * PHYS_EPS,
                                              -2 * PHYS_EPS]))
        np.testing.assert_array_equal(flags, [True, True, True, False, False])
