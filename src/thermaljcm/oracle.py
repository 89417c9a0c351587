"""Exact solver in the doubled Hilbert space on a truncated Fock basis.

The state lives on (atom) x (tilde atom) x (cavity) x (tilde cavity) with
each boson mode cut at n_fock levels.  The initial state is the fermionic
thermal vacuum tensored with a thermal coherent state (a displaced two-mode
squeezed vacuum), and propagation applies the closed-form blockwise
propagator (the physical factor couples only |e, n> with |g, n+l>, and the
tilde factor is its complex conjugate), so no exponential of the full
Hamiltonian is ever formed.

Building the thermal coherent state takes one single-mode matrix
exponential.  The ladder matrix is real, so the tilde displacement is the
elementwise conjugate of the physical one, and the squeezed vacuum is
diagonal, so it enters as a scaling of columns before the one dense
product.  The doubled-space reference construction exponentiates its
squeeze generator, which is real, in float64.

Two routes share that propagator.  :func:`pe_curve` works on the reduced
state: P_e depends only on the photon populations of the thermal coherent
state, because the atom starts diagonal and the tilde factor drops out of
the partial trace, so a time sample costs O(n_fock) and the time grid is
vectorized.  :func:`propagate` and :class:`DoubledFockState` carry the full
doubled-space state at O(n_fock^2) per sample; they are the reference that
:mod:`thermaljcm.validation` and the tests read exact values from.

This module is the validation oracle for every perturbative series in
:mod:`thermaljcm.perturbation`.  It owns the cutoff rules: a cutoff past 2048
levels or the float range, at or below l, or whose eigenvalues overflow is
refused with a :class:`~thermaljcm.model.LimitError` before any state is
built; a leak found while it runs raises :class:`LeakageError`.  Its matrix
exponentials are scipy's (:func:`expm`), and scipy is imported on the first
one: importing this module, as ``import thermaljcm`` does, loads no scipy
module.

Two BLAS thread pools: scipy's wheel and numpy's wheel each bundle their own
OpenBLAS.  In :func:`expm` the Pade step runs on scipy's and the squaring
products on numpy's, and after each call a pool's helper threads spin for a
while, so with both pools at one thread per CPU they take CPUs from each
other and from the calling thread.  The two dense state constructions,
:func:`thermal_coherent_state` and :func:`thermal_coherent_state_via_generator`,
therefore run with numpy's OpenBLAS on one thread; scipy's keeps its threads
for the Pade step.  The setting is process-wide while a construction runs:
numpy products on other threads in that window run on one thread too.  The
previous count is restored on return and on an exception.  The bytes do not
change: OpenBLAS splits a product over its rows and columns, never over the
summed index.  Where numpy's BLAS is not OpenBLAS the pin does nothing.
"""

from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np

from .model import (
    EigenvalueTable,
    LimitError,
    ModelParams,
    ThermalParams,
    _log_gamma,
    _osc_pair,
    thermal_mean_photon,
)

__all__ = [
    "FockTruncation",
    "DoubledFockState",
    "LeakageError",
    "two_mode_squeezed_vacuum",
    "displacement_matrix",
    "coherent_state_vector",
    "thermal_coherent_state",
    "thermal_coherent_state_via_generator",
    "build_initial_state",
    "propagate",
    "reduce_atom",
    "pe_curve",
    "atom_block_matrices",
]


#: time-axis block size of :func:`pe_curve`; bounds its (t, n) tables
#: without affecting any per-sample value
_T_CHUNK = 512

#: largest accepted cutoff: one n_fock x n_fock complex matrix is then
#: 64 MiB, and the state construction holds a few at once
_N_FOCK_MAX = 2048


class LeakageError(RuntimeError):
    """Truncated-basis population leaked past the tolerated norm budget."""


@dataclass(frozen=True)
class FockTruncation:
    """Single-mode Fock cutoff (levels 0 .. n_fock-1, at most 2048) and the
    norm-leakage budget accepted before raising."""

    n_fock: int
    leak_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.n_fock < 2:
            raise ValueError("n_fock must be >= 2")
        if self.n_fock > _N_FOCK_MAX:
            raise LimitError("n_fock", f"n_fock = {self.n_fock} exceeds the limit {_N_FOCK_MAX}")
        if not 0 < self.leak_tol < 1:
            raise ValueError("leak_tol must be in (0, 1)")

    @classmethod
    def auto(cls, params: ModelParams, thermal: ThermalParams | None = None) -> "FockTruncation":
        """Size the cutoff as mean + 8 standard deviations + l + 5.

        The mean photon number includes the thermal amplification
        |alpha|^2 e^(2 theta) + sinh^2 theta, which keeps both the Poisson
        and thermal tails below ~1e-10 for angles up to ~0.3.  A cutoff
        past the float range raises LimitError, as one past the limit does.
        """
        th = 0.0 if thermal is None else thermal.theta
        try:
            mean = thermal_mean_photon(params, th)
            n = math.ceil(mean + 8.0 * math.sqrt(mean + 1.0) + params.l + 5)
        except OverflowError:
            raise LimitError("n_fock", "the automatic n_fock is past the float range") from None
        return cls(n_fock=int(n))

    def check(self, params: ModelParams) -> None:
        """Raise :class:`~thermaljcm.model.LimitError` unless n_fock exceeds l
        and the Rabi eigenvalues of rows m < n_fock are finite."""
        if self.n_fock <= params.l:
            raise LimitError("n_fock", f"n_fock = {self.n_fock} must exceed l = {params.l}")
        EigenvalueTable.check(params, self.n_fock - 1)


@dataclass
class DoubledFockState:
    """Amplitudes over (atom, tilde atom, cavity, tilde cavity).

    ``amp[f, ft, n, nt]`` with f = 1 the excited atomic level.  The array is
    exclusively owned by its state; propagation returns a fresh state.
    """

    amp: np.ndarray
    trunc: FockTruncation

    def __post_init__(self) -> None:
        n = self.trunc.n_fock
        if self.amp.shape != (2, 2, n, n):
            raise ValueError(f"amplitude array must have shape (2, 2, {n}, {n})")

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amp) ** 2))


def _check_norm(norm_sq: float, leak_tol: float, what: str) -> None:
    if abs(norm_sq - 1.0) > leak_tol:
        raise LeakageError(f"{what}: |norm^2 - 1| = {abs(norm_sq - 1.0):.3e} "
                           f"exceeds leak_tol = {leak_tol:.1e}")


def _squeezed_vacuum_diagonal(theta: float, trunc: FockTruncation) -> np.ndarray:
    """The real amplitudes on |n, n> of :func:`two_mode_squeezed_vacuum`."""
    if theta < 0:
        raise ValueError("squeeze angle must be >= 0")
    n = trunc.n_fock
    tanh = math.tanh(theta)
    tail = tanh ** (2 * n)  # exact mass above the cutoff of the geometric law
    if tail > trunc.leak_tol:
        raise LeakageError(f"squeezed-vacuum tail {tail:.3e} exceeds leak_tol")
    diag = tanh ** np.arange(n) / math.cosh(theta)
    diag /= math.sqrt(np.sum(diag**2))
    return diag


def two_mode_squeezed_vacuum(theta: float, trunc: FockTruncation) -> np.ndarray:
    """Two-mode squeezed vacuum (1/cosh) sum_n tanh^n |n, n>, truncated and
    renormalized; this is the bosonic thermal vacuum of the doubled space."""
    n = trunc.n_fock
    out = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(out, _squeezed_vacuum_diagonal(theta, trunc))
    return out


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential, ``scipy.linalg.expm``; scipy is imported on the
    first call, so importing this module does not load it."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


#: thread-count functions of the OpenBLAS a numpy wheel bundles, then of a
#: system OpenBLAS
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@cache
def _numpy_openblas_threads():
    """(get, set) of the thread count of numpy's OpenBLAS, or None where
    numpy's BLAS is something else.  Looked up once, through numpy's loaded
    extension, which resolves the symbols of the library it links."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for get_name, set_name in _OPENBLAS_THREAD_FUNCTIONS:
        get_fn, set_fn = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get_fn is not None and set_fn is not None:
            get_fn.argtypes, get_fn.restype = [], ctypes.c_int
            set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
            return get_fn, set_fn
    return None


_pin_lock = threading.Lock()
_pin_depth = 0  # constructions inside _one_numpy_blas_thread, over all threads
_pin_saved = 0  # the thread count the first of them found


@contextmanager
def _one_numpy_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread (module docstring).
    The first of overlapping blocks saves the count and the last restores it,
    so concurrent constructions on several threads restore it too."""
    global _pin_depth, _pin_saved
    fns = _numpy_openblas_threads()
    if fns is None:
        yield
        return
    get_fn, set_fn = fns
    with _pin_lock:
        if _pin_depth == 0:
            _pin_saved = get_fn()
            set_fn(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_fn(_pin_saved)


def _ladder(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1)


def displacement_matrix(gamma: complex, trunc: FockTruncation) -> np.ndarray:
    """Matrix exponential of gamma a^dag - conj(gamma) a on the truncated basis.

    The generator is anti-Hermitian, so the result is unitary on the
    truncated space (scipy's scaling-and-squaring expm); column 0 is the
    coherent state |gamma> up to truncation.  Leakage is budgeted as
    probability mass (squared amplitude at the cutoff), like every other
    norm check in this module.
    """
    n = trunc.n_fock
    a = _ladder(n)
    k = gamma * a.T.conj().astype(complex) - np.conj(gamma) * a
    d = expm(k)
    if abs(d[n - 1, 0]) ** 2 > trunc.leak_tol:
        raise LeakageError(
            f"displaced-vacuum mass at the cutoff {abs(d[n-1, 0])**2:.3e} exceeds leak_tol")
    return d


def coherent_state_vector(alpha: complex, n_fock: int) -> np.ndarray:
    """Truncated coherent-state amplitudes e^(-|a|^2/2) a^n / sqrt(n!),
    built in the log domain so large amplitudes never overflow."""
    n = np.arange(n_fock, dtype=float)
    if alpha == 0:
        out = np.zeros(n_fock, dtype=complex)
        out[0] = 1.0
        return out
    log_mag = -abs(alpha) ** 2 / 2.0 + n * math.log(abs(alpha)) - 0.5 * _log_gamma(n + 1.0)
    return np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))


def thermal_coherent_state(alpha: complex, theta: float, trunc: FockTruncation) -> np.ndarray:
    """Thermal coherent state as a (n, tilde n) amplitude matrix.

    Built analytically as D(alpha e^theta) x D(conj(alpha) e^theta) acting on
    the two-mode squeezed vacuum, i.e. the Bogoliubov conjugate of displacing
    a doubled coherent state, which avoids any exponential on the doubled
    space.  It takes one single-mode exponential: the ladder matrix is real,
    so the tilde factor D(conj(gamma)) is the elementwise conjugate of
    D(gamma), and scipy's expm, whose arithmetic is symmetric under
    conjugation, gives exactly that value.  The squeezed vacuum is diagonal,
    so applying it scales the columns of D(gamma), and one dense product
    remains.  The generator route below cross-validates this on small
    cutoffs.
    """
    with _one_numpy_blas_thread():
        d_phys = displacement_matrix(alpha * math.exp(theta), trunc)
        # the tilde leak check would repeat the physical one: |conj(d)| = |d|
        d_tilde = np.conj(d_phys)
        phi = (d_phys * _squeezed_vacuum_diagonal(theta, trunc)) @ d_tilde.T
    _check_norm(float(np.sum(np.abs(phi) ** 2)), trunc.leak_tol, "thermal coherent state")
    return phi


def thermal_coherent_state_via_generator(alpha: complex, theta: float,
                                         trunc: FockTruncation) -> np.ndarray:
    """Reference construction: exponentiate -theta (a a~ - a~^dag a^dag) on the
    doubled space and apply it to |alpha> x |conj(alpha)>.  O(n_fock^6); only
    for small cutoffs in cross-checks.

    The ladder matrix is real, so the generator is real for every theta and
    is exponentiated in float64, which costs about a quarter of the
    arithmetic and half the memory of a complex expm.
    """
    n = trunc.n_fock
    a = _ladder(n)
    # in place: at the validation cutoff each 900 x 900 temporary is 6.5 MB
    gen = np.kron(a, a)
    gen -= np.kron(a.T, a.T)
    gen *= -theta
    vec = np.kron(coherent_state_vector(alpha, n), coherent_state_vector(np.conj(alpha), n))
    with _one_numpy_blas_thread():
        return (expm(gen) @ vec).reshape(n, n)


def build_initial_state(params: ModelParams, thermal: ThermalParams,
                        trunc: FockTruncation) -> DoubledFockState:
    """Fermionic thermal vacuum tensored with the thermal coherent state."""
    n = trunc.n_fock
    phi = thermal_coherent_state(params.alpha, thermal.theta, trunc)
    amp = np.zeros((2, 2, n, n), dtype=complex)
    amp[0, 0] = thermal.cos_atom * phi
    amp[1, 1] = thermal.sin_atom * phi
    state = DoubledFockState(amp=amp, trunc=trunc)
    _check_norm(state.norm_sq, trunc.leak_tol, "initial state")
    return state


def _block_elements(params: ModelParams, t, n_fock: int):
    """Closed-form propagator pieces on the truncated basis.

    Returns (diag_e, diag_g, coup):
      diag_e[n]  = conj(A(n)) acting on |e, n>;
      diag_g[m]  = A'(m) acting on |g, m>;
      coup[n]    = -i g sqrt((n+l)!/n!) B(n), the |e, n> <-> |g, n+l>
                   coupling for n = 0 .. n_fock-1-l, in both directions
                   because B'(n+l) = B(n).
    ``t`` is a scalar or a column of times; a column puts its axis in front
    of the photon axis of every piece.
    """
    l = params.l
    table = EigenvalueTable(params, n_fock - 1)
    half_delta = params.delta / 2.0
    a_n, b_n = _osc_pair(table.sqrt_d, table.d, t, half_delta)
    ap_m, _ = _osc_pair(table.sqrt_d_prime, table.d_prime, t, half_delta)
    nn = np.arange(max(n_fock - l, 0), dtype=float)
    beta = np.sqrt(np.prod(nn[:, None] + np.arange(1, l + 1)[None, :], axis=1))
    coup = -1j * params.g * beta * np.asarray(b_n, dtype=float)[..., : nn.size]
    return np.conj(np.asarray(a_n, dtype=complex)), np.asarray(ap_m, dtype=complex), coup


def propagate(state: DoubledFockState, t: float, params: ModelParams) -> DoubledFockState:
    """Apply the interaction-picture propagator at time t.

    The physical factor uses the closed-form block elements; the tilde factor
    is their elementwise complex conjugate (the tilde Hamiltonian enters with
    the opposite sign of i t).  Raises when population within l levels of
    either cutoff exceeds the leakage budget.
    """
    state.trunc.check(params)
    n = state.trunc.n_fock
    l = params.l
    diag_e, diag_g, coup = _block_elements(params, t, n)
    ncpl = n - l
    # |e, n> whose partner |g, n+l> is past the cutoff takes the bare
    # detuning phase, so the truncated propagator stays exactly unitary
    diag_e[ncpl:] = np.exp(1j * params.delta * t / 2.0)

    old_g, old_e = state.amp[0], state.amp[1]  # (2, n, ntilde)
    new_e = diag_e[None, :, None] * old_e
    new_e[:, :ncpl, :] += coup[None, :, None] * old_g[:, l:, :]
    new_g = diag_g[None, :, None] * old_g
    new_g[:, l:, :] += coup[None, :, None] * old_e[:, :ncpl, :]
    half = np.stack([new_g, new_e])  # [f, ftilde, n, ntilde]

    tg, te = half[:, 0], half[:, 1]  # (2, n, ntilde), indexed [f, n, ntilde]
    cde, cdg, cc = np.conj(diag_e), np.conj(diag_g), np.conj(coup)
    new_te = cde[None, None, :] * te
    new_te[:, :, :ncpl] += cc[None, None, :] * tg[:, :, l:]
    new_tg = cdg[None, None, :] * tg
    new_tg[:, :, l:] += cc[None, None, :] * te[:, :, :ncpl]
    amp = np.stack([new_tg, new_te], axis=1)

    out = DoubledFockState(amp=amp, trunc=state.trunc)
    edge = float(np.sum(np.abs(amp[:, :, n - l :, :]) ** 2)
                 + np.sum(np.abs(amp[:, :, :, n - l :]) ** 2))
    if edge > state.trunc.leak_tol:
        raise LeakageError(f"population {edge:.3e} within {l} levels of the Fock "
                           f"cutoff exceeds leak_tol")
    return out


def reduce_atom(state: DoubledFockState) -> tuple[float, complex]:
    """Partial trace over the tilde atom and both boson modes: (rho00, rho01).

    rho00 is the excitation probability (the total weight on the excited
    physical level) and rho01 the excited-ground matrix element <e| rho |g>;
    rho11 = 1 - rho00 and rho10 = conj(rho01) follow.
    """
    amp = state.amp
    return float(np.sum(np.abs(amp[1]) ** 2)), complex(np.sum(amp[1] * np.conj(amp[0])))


def _abs_sq(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def pe_curve(params: ModelParams, thermal: ThermalParams, times,
             trunc: FockTruncation) -> np.ndarray:
    """Exact excitation probability over a time grid, from the reduced state.

    The atom starts diagonal, (cos|g g~> + sin|e e~>) x phi, and P_e and the
    edge populations are sums of squared moduli, so the tilde factor of the
    propagator drops out and no cross term survives: with rho[n] = sum over
    n~ of |phi[n, n~]|^2,

        P_e(t) = sum_n sin^2 |A_n|^2 rho[n] + cos^2 |c_n|^2 rho[n + l],

    where |A_n| = 1 for the |e, n> whose partner |g, n + l> is past the
    cutoff.  Each sample costs O(n_fock), and a sample's value does not
    depend on the grid around it.  The checks are those of the doubled
    space: the state-construction norms, and a LeakageError when the
    population within l levels of either cutoff (physical: rho; tilde: the
    other axis of |phi|^2) exceeds ``trunc.leak_tol``.
    """
    trunc.check(params)
    n = trunc.n_fock
    l = params.l
    t_arr = np.atleast_1d(np.asarray(times, dtype=float))
    if t_arr.ndim != 1:
        raise ValueError("time must be a 1-d array")
    pop = np.abs(thermal_coherent_state(params.alpha, thermal.theta, trunc)) ** 2
    s2, c2 = thermal.sin_atom**2, thermal.cos_atom**2
    _check_norm((c2 + s2) * float(np.sum(pop)), trunc.leak_tol, "initial state")
    rho = np.sum(pop, axis=1)
    axes = np.stack([rho, np.sum(pop, axis=0)])  # physical and tilde populations
    ncpl = n - l
    lo_x = max(ncpl - l, 0)  # |e, m - l> feeding an edge level |g, m>, m >= l

    out = np.empty(t_arr.size)
    for lo in range(0, t_arr.size, _T_CHUNK):
        tc = t_arr[lo : lo + _T_CHUNK, None]
        diag_e, diag_g, coup = _block_elements(params, tc, n)
        ae = _abs_sq(diag_e)
        ae[:, ncpl:] = 1.0  # the bare detuning phase of propagate
        cc = _abs_sq(coup)
        summand = s2 * ae * rho
        summand[:, :ncpl] += c2 * cc * rho[l:]
        out[lo : lo + tc.shape[0]] = np.add.reduce(summand, axis=-1)

        ag = _abs_sq(diag_g[:, ncpl:])
        edge = np.sum((s2 + c2 * ag) * axes[:, None, ncpl:], axis=(0, 2))
        edge += s2 * np.sum(cc[:, lo_x:] * axes[:, None, lo_x:ncpl], axis=(0, 2))
        bad = np.flatnonzero(edge > trunc.leak_tol)
        if bad.size:
            raise LeakageError(f"population {edge[bad[0]]:.3e} within {l} levels of the Fock "
                               f"cutoff exceeds leak_tol at t = {tc[bad[0], 0]:g}")
    return out


def atom_block_matrices(t: float, params: ModelParams, n_fock: int):
    """The four single-mode operator blocks (u00, u01, u10, u11) of the
    physical propagator as truncated matrices.

    Used to evaluate coherence-series operator expectations directly in the
    Fock basis, independently of the series code.
    """
    diag_e, diag_g, coup = _block_elements(params, t, n_fock)
    rows = np.arange(coup.size)
    u01 = np.zeros((n_fock, n_fock), dtype=complex)
    u10 = np.zeros((n_fock, n_fock), dtype=complex)
    u01[rows, rows + params.l] = coup
    u10[rows + params.l, rows] = coup
    return np.diag(diag_e), u01, u10, np.diag(diag_g)
