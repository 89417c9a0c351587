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


def jet_mul(a, b):
    """Cauchy product of two Taylor jets (coefficients of theta^0..theta^K),
    truncated after K + 1 coefficients."""
    return np.convolve(a, b)[: len(a)]


def jet_exp(a):
    """The jet of e^a: e_0 = e^(a_0), k e_k = sum_(j=1..k) j a_j e_(k-j)."""
    e = np.zeros(len(a))
    e[0] = np.exp(a[0])
    for k in range(1, len(a)):
        e[k] = sum(j * a[j] * e[k - j] for j in range(1, k + 1)) / k
    return e


def jet_inv(a):
    """The jet of 1/a: r_0 = 1/a_0, r_k = -r_0 sum_(j=1..k) a_j r_(k-j)."""
    r = np.zeros(len(a))
    r[0] = 1.0 / a[0]
    for k in range(1, len(a)):
        r[k] = -r[0] * sum(a[j] * r[k - j] for j in range(1, k + 1))
    return r


def population_jets(alpha, n_top, order=2):
    """Taylor coefficients in theta, orders 0..order (order >= 1), of the photon populations
    rho_n(theta), n = 0..n_top, of the thermal coherent state: the displaced
    thermal state D(gamma) rho_th D(gamma)^dag, gamma = alpha e^theta, of mean
    thermal photon number sinh^2 theta.  Shape (n_top + 1, order + 1).

    The generalized-Laguerre recurrence at l = 0, with q = tanh^2 theta and
    z = |gamma|^2/cosh^4 theta, every scalar carried as a jet:
    g_0 = 1, g_1 = q + z, (n + 1) g_(n+1) = (q (2n + 1) + z) g_n - q^2 n g_(n-1),
    rho_n = e^(-|gamma|^2/cosh^2 theta)/cosh^2 theta g_n.  Every term is
    positive at real theta, so the forward recurrence is stable; at theta = 0
    it is the Poisson law z^n/n! e^(-|alpha|^2).
    """
    theta = np.zeros(order + 1)
    theta[1] = 1.0
    e_plus, e_minus = jet_exp(theta), jet_exp(-theta)
    cosh, sinh = (e_plus + e_minus) / 2.0, (e_plus - e_minus) / 2.0
    sech2 = jet_inv(jet_mul(cosh, cosh))
    q = jet_mul(jet_mul(sinh, sinh), sech2)
    q2 = jet_mul(q, q)
    gamma2 = abs(alpha) ** 2 * jet_exp(2.0 * theta)
    z = jet_mul(gamma2, jet_mul(sech2, sech2))
    g = np.zeros((n_top + 1, order + 1))
    g[0, 0] = 1.0
    g[1] = q + z
    for n in range(1, n_top):
        g[n + 1] = (jet_mul((2 * n + 1) * q + z, g[n]) - n * jet_mul(q2, g[n - 1])) / (n + 1)
    prefactor = jet_mul(jet_exp(-jet_mul(gamma2, sech2)), sech2)
    return np.array([jet_mul(prefactor, row) for row in g])


def exact_channel_jets(params, t, n_top, order=2):
    """Taylor coefficients in theta of the two exact atomic channels on the
    1-d grid t, shape (2, order + 1, t.size): E1 = sum_n |A_n|^2 rho_n (the
    atom starts excited) and E2 = sum_n |c_n|^2 rho_(n+l) (it starts in the
    ground level), n up to n_top, with |A_n|^2 = cos^2 + (delta/2)^2 sin^2/D_n
    and |c_n|^2 = g^2 prod_n sin^2/D_n of sqrt(D_n) t.  Coefficient k times
    k! is the k-th theta-derivative, the series' order-k term."""
    l = params.l
    rho = population_jets(params.alpha, n_top, order)
    table = EigenvalueTable(params, n_top)
    arg = np.asarray(t, dtype=float)[:, None] * table.sqrt_d[None, :]
    sin_sq_d = np.sin(arg) ** 2 / table.d
    abs_a = np.cos(arg) ** 2 + (params.delta / 2.0) ** 2 * sin_sq_d
    abs_c = params.g ** 2 * table.prod * sin_sq_d
    return np.stack([(abs_a @ rho).T, (abs_c[:, : n_top + 1 - l] @ rho[l:]).T])
