"""Direct references shared by the test modules: each is written out from its
formula and shares no code with the engine a test checks."""

import numpy as np

from thermaljcm.model import ModelParams


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
