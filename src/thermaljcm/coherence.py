"""Relative entropy of coherence of the 2x2 atomic state.

The atomic state is carried as arrays of (rho00, |rho01|): rho11 = 1 - rho00
and rho10 = conj(rho01) are implied, index 0 is the excited level, and the
coherence does not depend on the phase of rho01.  C = S(rho_diag) - S(rho)
in the atomic energy basis, computed from the closed-form qubit eigenvalues
with numpy's ``log`` (0 ln 0 := 0).  On hosts where numpy's SIMD ``log``
rounds some inputs differently from libm's, a coherence far below the two
entropies it is the difference of can move in its last printed digits.
Perturbative inputs can leave the physical set slightly;
:func:`project_values` clamps the population and clips |rho01| to the
positivity boundary, and :func:`physical_population` classifies a raw
population against the tolerance ``PHYS_EPS``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PHYS_EPS",
    "physical_population",
    "coherence_values",
    "project_values",
]

#: tolerance for classifying a raw perturbative state as physical
PHYS_EPS = 1e-6

#: changes smaller than this do not count as a projection
_PROJ_TOL = 1e-12

LN2 = math.log(2.0)


def physical_population(rho00):
    """True where a raw excitation probability lies in [0, 1] within
    ``PHYS_EPS``; vectorized."""
    return (rho00 >= -PHYS_EPS) & (rho00 <= 1.0 + PHYS_EPS)


def _x_log_x(x):
    """x ln x elementwise, 0 where x = 0."""
    zero = x == 0.0
    return np.where(zero, 0.0, x * np.log(np.where(zero, 1.0, x)))


def _binary_entropy(x):
    return -_x_log_x(x) - _x_log_x(1.0 - x)


def coherence_values(rho00, abs_rho01):
    """Relative entropy of coherence from (rho00, |rho01|); vectorized.

    Inputs must already be physical.  The qubit eigenvalues are
    (1 +- sqrt((1 - 2 rho00)^2 + 4 |rho01|^2))/2; 0 ln 0 := 0 by continuity
    and rounding-level negatives are clipped to 0.
    """
    p = np.asarray(rho00, dtype=float)
    z = np.asarray(abs_rho01, dtype=float)
    disc = np.clip((1.0 - 2.0 * p) ** 2 + 4.0 * z * z, 0.0, 1.0)
    lam = 0.5 * (1.0 + np.sqrt(disc))
    out = np.clip(_binary_entropy(p) - _binary_entropy(lam), 0.0, LN2)
    return float(out) if np.ndim(rho00) == 0 and np.ndim(abs_rho01) == 0 else out


def project_values(rho00, abs_rho01):
    """Vectorized projection of (rho00, |rho01|) arrays onto the physical set.

    rho00 is clamped to [0, 1] and |rho01| is clipped to the positivity
    boundary sqrt(rho00 (1 - rho00)), so it never grows.  Returns
    (rho00, |rho01|, projection_applied mask); a change below 1e-12 does not
    count as a projection.
    """
    p_raw = np.asarray(rho00, dtype=float)
    z_raw = np.asarray(abs_rho01, dtype=float)
    p = np.clip(p_raw, 0.0, 1.0)
    bound = np.sqrt(p * (1.0 - p))
    z = np.minimum(z_raw, bound)
    changed = (np.abs(p - p_raw) > _PROJ_TOL) | (np.abs(z - z_raw) > _PROJ_TOL)
    return p, z, changed
