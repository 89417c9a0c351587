"""Direct references shared by the test modules: each is written out from its
formula and shares no code with the engine a test checks."""

import numpy as np

from thermaljcm import oracle
from thermaljcm.model import EigenvalueTable, ModelParams


def make_params(l=1, g=1.0, omega0=1.0, omega=1.0, alpha=2.0):
    return ModelParams(l=l, g=g, omega0=omega0, omega=omega, alpha=alpha)


def direct_d_prime(params, n_max):
    """D'_n = (delta/2)^2 + g^2 prod_{k=0..l-1} (n - k) on n = 0..n_max, the
    product taken as it is written (zero for n < l), and its square root."""
    n = np.arange(n_max + 1, dtype=float)
    prod = np.prod(n[:, None] - np.arange(params.l)[None, :], axis=1)
    prod[: params.l] = 0.0
    d_prime = (params.delta / 2.0) ** 2 + params.g * params.g * prod
    return d_prime, np.sqrt(d_prime)


def osc_pair(sqrt_d, d, t, half_delta):
    """A = cos(sqrt(D) t) - i (delta/2) sin(sqrt(D) t)/sqrt(D) and
    B = sin(sqrt(D) t)/sqrt(D), with the limit (1, t) where D = 0; broadcasts
    over any combination of eigenvalue and time axes."""
    t = np.asarray(t, dtype=float)
    arg = sqrt_d * t
    zero = d == 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(zero, 1.0, np.sin(arg) / np.where(zero, 1.0, sqrt_d))
    b = np.where(zero, np.broadcast_to(t, np.broadcast_shapes(d.shape, t.shape)), sinc)
    a = np.cos(arg) - 1j * half_delta * b
    return a, b


def block_element_pe(params, thermal, t, rho):
    """P_e = sum_n sin^2 |A_n|^2 rho[n] + cos^2 |c_n|^2 rho[n + l] on the 1-d
    grid t, from the doubled-space propagator's block elements
    (``oracle._block_elements``) on the rho.size levels of the photon
    populations rho, with |A_n| = 1 where |g, n + l> is past the cutoff."""
    n, l = rho.size, params.l
    ncpl = n - l
    table = EigenvalueTable(params, n - 1)
    diag_e, _, coup = map(np.array, zip(*(oracle._block_elements(table, x)
                                          for x in np.asarray(t, dtype=float))))
    abs_e = diag_e.real * diag_e.real + diag_e.imag * diag_e.imag
    abs_e[:, ncpl:] = 1.0
    summand = thermal.sin_atom**2 * abs_e * rho
    summand[:, :ncpl] += thermal.cos_atom**2 * (coup.real * coup.real
                                                + coup.imag * coup.imag) * rho[l:]
    return np.add.reduce(summand, axis=-1)
