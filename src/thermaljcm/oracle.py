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
state: as the atom starts diagonal, P_e depends only on the photon
populations, and as each Rabi block is unitary it is a constant plus the
series' zero-temperature one-sin reduction (``model._weighted_sums`` on
``model._sin_sq_fill``; threads: the model's module docstring) with two weight
rows, P_e's and the cutoff edge population's: O(n_fock) a sample.
:func:`propagate` and :class:`DoubledFockState` carry the full doubled-space
state at O(n_fock^2) per sample; they are the independent reference that
:mod:`thermaljcm.validation` and the tests read.  The reference takes one
time and returns one state; a caller that wants a grid loops over it.

Each Rabi phase is evaluated once: D'_m = D_(m-l) for m >= l, so the primed
amplitude A'(m) is A(m - l), and only the l structurally zero columns m < l
of D' are evaluated besides D, by the model's Rabi-block kernel on the joined
columns of :class:`EigenvalueTable`: the series engine's kernel and layout
too.  The shift equals a direct evaluation of D'_m bitwise while the
photon-number products are exact integers, i.e. (n_fock + l)^l < 2^53.
Every cutoff the package sizes is far below that (at most 2048 levels,
2052^4 is about 2e13 at l = 4); past it, both are roundings of the same
exact value.

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
numpy products on other threads in that window run on one thread too.  One
lock is held from saving the count to restoring it, on return or on an
exception: constructions on other threads wait.  Where numpy's BLAS is not
OpenBLAS the pin does nothing.

The size of either pool can move the last bits of a dense state: the
generator construction at alpha 1, theta 0.2 and 30 levels differs bitwise
between scipy's pool at one thread and at two, and between numpy's pool
pinned and left at two threads.  The printed output does not move: the
``oracle-validate`` report, whose ``thermal_state_routes_overlap`` check
prints the overlap of the two constructions (1.0000000000000004), and the
goldens keep their bytes on 1 to 8 BLAS threads and on one CPU.
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
    _check_table,
    _log_gamma,
    _rabi_amplitudes,
    _rabi_trig,
    _sin_sq_fill,
    _weighted_sums,
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

    def check(self, params: ModelParams, t) -> None:
        """Raise :class:`~thermaljcm.model.LimitError` unless n_fock exceeds l, the Rabi
        eigenvalues of rows m < n_fock are finite, and the tables on the time grid
        ``t`` pass ``model._check_table`` at the sqrt(D) of row n_fock - 1 and D_0."""
        n = self.n_fock
        if n <= params.l:
            raise LimitError("n_fock", f"n_fock = {n} must exceed l = {params.l}")
        _check_table("the exact P_e on {} time samples x {} Fock levels", t, n,
                     math.sqrt(EigenvalueTable.check(params, n - 1)),
                     EigenvalueTable.check(params, 0))


@dataclass
class DoubledFockState:
    """One state's amplitudes over (atom, tilde atom, cavity, tilde cavity).

    ``amp[f, ft, n, nt]``, of shape (2, 2, n_fock, n_fock), with f = 1 the
    excited atomic level.  The array is exclusively owned by its state;
    propagation returns a fresh state.
    """

    amp: np.ndarray
    trunc: FockTruncation

    def __post_init__(self) -> None:
        n = self.trunc.n_fock
        if self.amp.shape != (2, 2, n, n):
            raise ValueError(f"amplitude array must have shape (2, 2, {n}, {n})")

    @property
    def norm_sq(self) -> float:
        """Squared norm."""
        return _flat_sum(np.abs(self.amp) ** 2)

    @property
    def excited_population(self) -> float:
        """rho00, the excited level's weight."""
        return _flat_sum(np.abs(self.amp[1]) ** 2)


def _flat_sum(x: np.ndarray):
    """The pairwise sum of all of ``x`` in C order, as a Python number."""
    return np.add.reduce(x.reshape(-1)).item()


def _check_norm(norm_sq: float, leak_tol: float, what: str) -> None:
    if abs(norm_sq - 1.0) > leak_tol:
        raise LeakageError(f"{what}: |norm^2 - 1| = {abs(norm_sq - 1.0):.3e} "
                           f"exceeds leak_tol = {leak_tol:.1e}")


def two_mode_squeezed_vacuum(theta: float, trunc: FockTruncation) -> np.ndarray:
    """Two-mode squeezed vacuum (1/cosh) sum_n tanh^n |n, n>, truncated and
    renormalized; this is the bosonic thermal vacuum of the doubled space.
    Returned as its real amplitudes on |n, n>, n < n_fock: the state is
    diagonal, and no n_fock x n_fock matrix of it is formed."""
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


_pin_lock = threading.RLock()


@contextmanager
def _one_numpy_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, under one lock (module docstring)."""
    fns = _numpy_openblas_threads()
    if fns is None:
        yield
        return
    get_fn, set_fn = fns
    with _pin_lock:
        saved = get_fn()
        set_fn(1)
        try:
            yield
        finally:
            set_fn(saved)


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
    # its leak check first: past it, alpha e^theta can overflow the expm below
    vacuum = two_mode_squeezed_vacuum(theta, trunc)
    with _one_numpy_blas_thread():
        d_phys = displacement_matrix(alpha * math.exp(theta), trunc)
        # the tilde leak check would repeat the physical one: |conj(d)| = |d|
        d_tilde = np.conj(d_phys)
        phi = (d_phys * vacuum) @ d_tilde.T
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


def _block_elements(table: EigenvalueTable, t: float):
    """Closed-form propagator pieces at time ``t`` on the n_fock =
    ``table.n_max + 1`` levels of ``table``.

    Returns (diag_e, diag_g, coup):
      diag_e[n]  = conj(A(n)) acting on |e, n>;
      diag_g[m]  = A'(m) acting on |g, m>;
      coup[n]    = -i g sqrt((n+l)!/n!) B(n), the |e, n> <-> |g, n+l>
                   coupling for n = 0 .. n_fock-1-l, in both directions
                   because B'(n+l) = B(n).
    The model's Rabi-block kernel evaluates the table's joined columns, in
    which A'(m) is column m and A(n) and B(n) are column s + n.
    """
    params = table.params
    s, n_fock = table.shift, table.n_max + 1
    t, sqrt_d = np.asarray(t, dtype=float), table.joined_sqrt_d
    sin_t, cos_t = np.empty((2,) + sqrt_d.shape)
    _rabi_trig(sqrt_d, t, sin_t, cos_t)
    a, b = _rabi_amplitudes(sin_t, cos_t, sqrt_d, t, params.delta / 2.0,
                            np.empty(sin_t.shape, dtype=complex))
    ncpl = max(n_fock - params.l, 0)
    coup = -1j * params.g * np.sqrt(table.prod[:ncpl]) * b[s : s + ncpl]
    return np.conj(a[s:]), a[:n_fock], coup


def _apply_block(src, out, diag_e, diag_g, coup, l: int) -> None:
    """Write into ``out`` the block propagator on ``src``: each is a pair of
    halves (g, e) along its first axis, acted on along axis 1 of a half."""
    (old_g, old_e), (new_g, new_e) = src, out
    ncpl = coup.size
    de, dg, cp = (x[:, None] for x in (diag_e, diag_g, coup))
    np.multiply(de, old_e, out=new_e)
    new_e[:, :ncpl] += cp * old_g[:, l:]
    np.multiply(dg, old_g, out=new_g)
    new_g[:, l:] += cp * old_e[:, :ncpl]


def propagate(state: DoubledFockState, t: float, params: ModelParams) -> DoubledFockState:
    """The state at time ``t``, a scalar, under the interaction-picture propagator.

    The physical factor uses the closed-form block elements; the tilde factor
    is their elementwise complex conjugate (the tilde Hamiltonian enters with
    the opposite sign of i t).  Raises a LeakageError where the population
    within l levels of either cutoff exceeds the leakage budget.
    """
    if np.ndim(t) != 0:
        raise ValueError("time must be a scalar")
    t = float(t)
    trunc = state.trunc
    trunc.check(params, t)
    n, l = trunc.n_fock, params.l
    blocks = _block_elements(EigenvalueTable(params, n - 1), t)
    # |e, n> whose partner |g, n+l> is past the cutoff takes the bare
    # detuning phase, so the truncated propagator stays exactly unitary
    blocks[0][n - l :] = np.exp(1j * params.delta * t / 2.0)

    # U on the cavity axis n of [f, ft, n, nt], then its conjugate on the
    # tilde axis nt of the [ft, f, nt, n] view: U (x) conj(U)
    half = np.empty_like(state.amp)
    _apply_block(state.amp, half, *blocks, l)
    amp = np.empty_like(half)
    _apply_block(half.transpose(1, 0, 3, 2), amp.transpose(1, 0, 3, 2),
                 *map(np.conj, blocks), l)
    del half

    edge = (_flat_sum(np.abs(amp[:, :, n - l :]) ** 2)
            + _flat_sum(np.abs(amp[..., n - l :]) ** 2))
    if edge > trunc.leak_tol:
        raise LeakageError(f"population {edge:.3e} within {l} levels of the "
                           f"Fock cutoff exceeds leak_tol at t = {t:g}")
    return DoubledFockState(amp=amp, trunc=trunc)


def reduce_atom(state: DoubledFockState):
    """Partial trace over the tilde atom and both boson modes: (rho00, rho01).

    rho00 is the excitation probability (the total weight on the excited
    physical level) and rho01 the excited-ground matrix element <e| rho |g>;
    rho11 = 1 - rho00 and rho10 = conj(rho01) follow.  A float and a complex.
    """
    excited, ground = state.amp[1], state.amp[0]
    # not ``excited * np.conj(ground)``: numpy multiplies into a temporary
    # operand in place once it passes 256 KiB, which one state reaches from
    # about 90 levels, and rounds complex products differently there, so a
    # larger state would round otherwise than a smaller one
    return state.excited_population, _flat_sum(np.multiply(excited, np.conj(ground)))


def pe_curve(params: ModelParams, thermal: ThermalParams, times,
             trunc: FockTruncation) -> np.ndarray:
    """Exact excitation probability over a time grid, from the reduced state.

    The atom starts diagonal and P_e is a sum of squared moduli, so the tilde
    factor drops out: with rho[n] = sum over n~ of |phi[n, n~]|^2, P_e =
    sum_n sin^2 |A_n|^2 rho[n] + cos^2 |c_n|^2 rho[n + l] (|A_n| = 1 past the
    N = n_fock - l coupled levels).  The Rabi blocks are unitary, |A_n|^2 =
    1 - |c_n|^2 = 1 - g^2 prod_n sin^2(sqrt(D_n) t)/D_n, so P_e is sin^2
    sum_n rho[n] plus the series' one-sin reduction with the row w_n = g^2
    prod_n (cos^2 rho[n + l] - sin^2 rho[n]).  The row v_k = g^2 prod_k
    (sin^2 a[k] - cos^2 a[k + l]), N - l <= k < N, a = rho plus the tilde
    populations, plus (sin^2 + cos^2) sum_(m>=N) a[m] is the population
    within l levels of either cutoff: a LeakageError at the first sample where
    it exceeds ``trunc.leak_tol``, after ``trunc.check`` and the state norms.
    The bytes do not depend on the grid, chunks or threads; :func:`propagate`
    is the independent reference."""
    t_arr = np.atleast_1d(np.asarray(times, dtype=float))
    trunc.check(params, t_arr)
    if t_arr.ndim != 1:
        raise ValueError("time must be a 1-d array")
    l = params.l
    pop = np.abs(thermal_coherent_state(params.alpha, thermal.theta, trunc)) ** 2
    s2, c2 = thermal.sin_atom**2, thermal.cos_atom**2
    _check_norm((c2 + s2) * float(np.sum(pop)), trunc.leak_tol, "initial state")
    rho = np.sum(pop, axis=1)
    a = rho + np.sum(pop, axis=0)  # physical plus tilde populations
    ncpl = trunc.n_fock - l
    lo = max(ncpl - l, 0)  # |e, k> feeding an edge level |g, k + l>, k + l >= ncpl
    table = EigenvalueTable(params, ncpl - 1)
    coupling = params.g * params.g * table.prod
    weights = np.zeros((2, ncpl))
    weights[0] = coupling * (c2 * rho[l:] - s2 * rho[:ncpl])
    weights[1, lo:] = coupling[lo:] * (s2 * a[lo:ncpl] - c2 * a[lo + l :])
    pe, edge = _weighted_sums(_sin_sq_fill(table.sqrt_d, table.d), t_arr, weights, pop.nbytes)
    pe += s2 * np.add.reduce(rho)
    edge += (s2 + c2) * np.add.reduce(a[ncpl:])
    bad = np.flatnonzero(edge > trunc.leak_tol)
    if bad.size:
        raise LeakageError(f"population {edge[bad[0]]:.3e} within {l} levels of the Fock "
                           f"cutoff exceeds leak_tol at t = {t_arr[bad[0]]:g}")
    return pe


def atom_block_matrices(t: float, params: ModelParams, n_fock: int):
    """The four single-mode operator blocks (u00, u01, u10, u11) of the
    physical propagator as truncated matrices.

    Used to evaluate coherence-series operator expectations directly in the
    Fock basis, independently of the series code.
    """
    FockTruncation(n_fock).check(params, t)
    diag_e, diag_g, coup = _block_elements(EigenvalueTable(params, n_fock - 1), t)
    rows = np.arange(coup.size)
    u01 = np.zeros((n_fock, n_fock), dtype=complex)
    u10 = np.zeros((n_fock, n_fock), dtype=complex)
    u01[rows, rows + params.l] = coup
    u10[rows + params.l, rows] = coup
    return np.diag(diag_e), u01, u10, np.diag(diag_g)
