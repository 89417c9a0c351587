"""Low-temperature perturbation series of the thermal l-photon JCM.

Evaluates the excitation probability and the atomic coherence through second
order in the bosonic Bogoliubov angle.  Every series is a Poisson-weighted
sum over photon number; weights are built in the log domain so that the
alpha = 12, n_max = 250 regime never overflows, and all reductions run in a
fixed ascending-n order (numpy pairwise over the contiguous n axis), so a
value is bitwise independent of how the time grid is batched.

Convention: the S-type sums returned here carry the normalized Poisson
weights, i.e. they equal exp(-|alpha|^2) times the bare sums written with
|alpha|^(2n)/n! coefficients.  The order-term prefactors below already
account for this.

Engine: the temperature enters only the final combination with the
Bogoliubov angles; every table before it depends on (params, trunc, t)
alone.  :func:`series_tables`, the one entry point, builds those tables once
on a 1-d time grid and returns a :class:`SeriesTables`, which evaluates P_e
and rho01 at any number of temperatures.  Per time chunk a build takes one
cos and one sin table of sqrt(D_m) t.  S1 and S2 come from their squares.
The coherence amplitudes A(m) and B(m) come from the same two tables.  The
primed amplitudes reuse them through D'_n = D_(n-l), n >= l; only the l
structurally zero columns n < l use the closed form of ``model._osc_pair``.
The shift equals a direct evaluation of D'_n bitwise while the photon-number
products of :class:`EigenvalueTable` are exact integers, i.e.
(n_max + l + 2)^l < 2^53.  Every preset is far below that (at most 253^4,
about 4e9); past it, both are roundings of the same exact value.

Threads: a build runs its time chunks on one worker thread per CPU in the
process's affinity mask (``os.sched_getaffinity``), but on no more workers
than give each one ``_MIN_WORKER_CELLS`` cells of the first ``_T_CHUNK``
rows of the (t, n) trig table, or than the byte budget below holds; a
smaller build runs in the calling thread alone.  A chunk has at most
``_T_CHUNK`` / workers rows, and no more than fit in ``_TILE_CELLS`` (t, n)
cells, so each worker's workspace of five float tables stays cache-sized
whatever the grid length.  It is allocated once per build; on the P_e path
a chunk allocates nothing of the (t, n) size.  Worker 0 is the calling
thread, and worker i takes chunks i, i + workers, ...; each chunk writes
only its own time columns.  A time sample is reduced on its own
in the same ascending-n order whichever chunk or thread holds it, so the
output bytes do not depend on the number of CPUs or on the chunk size.  The
workers call no public function of any layer (their bodies use numpy and
``model._osc_pair`` only), so a tracer that wraps ``__all__`` sees one call
per build.

This module owns the sizing rules of a build: the table width
(:meth:`TruncationPolicy.top_row`), the prefactor range
(:meth:`SeriesTables.check_prefactors`), the Poisson cut and the byte budget
(``_BUILD_BYTES_LIMIT``, on the photon axis and what a build holds per time
sample).  :meth:`TruncationPolicy.check` applies them; :func:`series_tables`
calls it before it allocates, so a library call past them raises
:class:`~thermaljcm.model.LimitError` instead of returning nan or asking
numpy for more memory than the host has.  A build that needs more workers'
workspaces than the budget holds runs on fewer workers, with the same
bytes; one refused on one worker is refused on every host.

No scipy: the log-factorials of the weights come from ``model._log_gamma``,
which keeps the bits of ``scipy.special.gammaln``, called only where a
weight is not 0.0 (:func:`_poisson_weights`), and the Poisson tail mass
of the truncation warning is a bounded log-domain sum.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    EigenvalueTable,
    LimitError,
    ModelParams,
    ThermalParams,
    _log_gamma,
    _osc_pair,
)

__all__ = [
    "TruncationPolicy",
    "TruncationWarning",
    "SeriesTables",
    "poisson_log_weight",
    "series_tables",
]

DEFAULT_TAIL_TOL = 1e-9

#: Poisson terms per step of :meth:`TruncationPolicy.tail_mass`
_TAIL_CHUNK = 4096

#: time rows of the (t, n) workspaces, summed over the worker threads; with
#: ``_MIN_WORKER_CELLS`` it sets the number of workers, and it bounds the rows
#: of a chunk with ``_TILE_CELLS``.  No per-time-point result depends on it.
_T_CHUNK = 2048

#: (t, n) cells of one worker's chunk: a chunk has the most rows that keep
#: rows x eigenvalue columns within this, and at least one.  At 2^16 cells
#: (259 rows at n_max = 250) each of a worker's five float tables is
#: 512 KiB, 2.5 MiB a worker, against 10 MiB with the 1024 rows that
#: _T_CHUNK alone gives each of two workers.  Measured on the fig3 period
#: sweeps (2 vCPUs): peak RSS about 41, 43 and 50 MiB at 2^15, 2^16 and 2^17
#: cells, 61 MiB at 1024 rows, with wall times within the noise of each
#: other.  2^16 is the smallest size that leaves the two-worker chunks of
#: the benchmark's coherence maps (at most 165 rows of 255 columns) as they
#: were.
_TILE_CELLS = 1 << 16

#: trig-table cells (time rows x eigenvalue columns of one chunk) each worker
#: thread needs to pay for itself.  On smaller tables numpy's calls are too
#: short to keep the GIL released, and thread start-up and GIL hand-offs cost
#: more than the parallel trig saves: on a 2-vCPU host two threads were
#: slower at every size up to 22 600 cells (200 rows x 113 columns).
_MIN_WORKER_CELLS = 1 << 15

#: bytes a build may allocate (:func:`_build_bytes`), held by
#: :meth:`TruncationPolicy.check`.  1 GiB admits about 6.7 million columns to
#: a P_e-only build and 3.5 million to a full one, at l = 1 on one worker; at
#: n_max = 250, about 11.1 and 2.8 million time samples.  No preset has more
#: than 257 columns or 22 270 samples.
_BUILD_BYTES_LIMIT = 1 << 30


def _usable_cpus() -> int:
    """Number of CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _build_bytes(columns: int, l: int, coherence: bool, samples: int) -> tuple[int, int]:
    """Upper bounds on the bytes a build of ``columns`` eigenvalue columns on
    ``samples`` time samples allocates: (shared, each worker).

    Shared, in float64 arrays of the photon axis: l + 7 for the eigenvalue
    table as it is built (its (m, l) products included), 5 for the Poisson
    weights, 2 for the masks, and 7 more for the weighted coherence columns;
    per time sample, 12 for S1, S2 and the cached order terms (traced), 47 for
    a full build, which peaks as it forms the rho01 order terms.  Each worker:
    its five (t, n) tables of at most max(``_TILE_CELLS``, columns) cells, and
    11 more for the complex amplitude products of the coherence series.  The
    traced peaks a column are below these: about 13 and 17 on one and two
    workers for a P_e-only build, 26 and 41 for a full one.
    """
    shared = columns * (l + 14 + (7 if coherence else 0)) + samples * (47 if coherence else 12)
    per_worker = max(_TILE_CELLS, columns) * (16 if coherence else 5)
    return 8 * shared, 8 * per_worker


def _poisson_cut(alpha: complex, extra: int = 0) -> int:
    """Last photon number of a Poisson sum at intensity |alpha|^2: the mean
    plus 12 standard deviations, ``extra`` and 10."""
    aa = abs(alpha) ** 2
    return math.ceil(aa + 12.0 * math.sqrt(aa + 1.0) + extra + 10)


class TruncationWarning(UserWarning):
    """Poisson tail mass beyond n_max exceeds the requested tolerance."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Series truncation: sum photon numbers n = 0 .. n_max.

    The CLI figure presets use n_max = 110, 80 and 250; the adaptive
    constructor sizes the cut from the Poisson mean and spread instead.
    """

    n_max: int = 250
    tail_tol: float | None = None

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    @classmethod
    def adaptive(cls, params: ModelParams,
                 tail_tol: float | None = None) -> "TruncationPolicy":
        """The Poisson cut with l more photons; tail_tol 1e-12 unless given."""
        return cls(n_max=_poisson_cut(params.alpha, params.l),
                   tail_tol=1e-12 if tail_tol is None else tail_tol)

    def top_row(self, l: int) -> int:
        """Last eigenvalue row m of a full build: the S sums reach n_max + 2,
        the coherence products l rows further."""
        return self.n_max + l + 2

    def check(self, params: ModelParams, samples: int = 0, coherence: bool = False) -> None:
        """Raise :class:`~thermaljcm.model.LimitError` where a build on
        ``samples`` time samples is past the byte budget, summed in integers
        (``"n_max"`` for its photon axis alone, else ``"t"``), the eigenvalue
        range, or the prefactor range.  The defaults: the smallest build."""
        l = params.l
        columns = self.top_row(l) + 1 if coherence else self.n_max + 3
        need = sum(_build_bytes(columns, l, coherence, 0))
        if need > _BUILD_BYTES_LIMIT:
            raise LimitError("n_max", f"n_max = {self.n_max} at l = {l}: a series build of "
                                      f"{columns} photon columns needs {need >> 20} MiB, more "
                                      f"than the limit of {_BUILD_BYTES_LIMIT >> 20} MiB")
        need = sum(_build_bytes(columns, l, coherence, samples))
        if need > _BUILD_BYTES_LIMIT:
            raise LimitError("t", f"a series build of {samples} time samples x {columns} photon "
                                  f"columns needs {need >> 20} MiB, more than the limit of "
                                  f"{_BUILD_BYTES_LIMIT >> 20} MiB")
        EigenvalueTable.check(params, self.top_row(l))
        SeriesTables.check_prefactors(params)

    def tail_mass(self, alpha: complex) -> float:
        """Poisson probability mass above n_max for intensity |alpha|^2.

        Summed in the log domain from the cut away from the mean, where the
        terms only fall: upward from n_max + 1 when that is above |alpha|^2,
        else downward from n_max, subtracted from 1.  The sum stops once a
        term is below e^-50 of it, after O(n_max + |alpha|) terms taken
        ``_TAIL_CHUNK`` at a time, so no array grows with |alpha|^2.
        """
        aa = abs(alpha) ** 2
        if aa == 0.0:
            return 0.0
        upward = self.n_max + 1 > aa
        k = self.n_max + 1 if upward else self.n_max
        log_aa = math.log(aa)
        log_first = k * log_aa - aa - float(_log_gamma(k + 1.0))
        rel_sum, log_last = 1.0, 0.0  # sum and last term, both over the first
        while log_last > math.log(rel_sum) - 50.0 and (upward or k > 0):
            if upward:  # term k+1 over term k is aa/(k+1)
                steps = np.arange(k + 1, k + 1 + _TAIL_CHUNK, dtype=float)
                log_ratio = log_aa - np.log(steps)
            else:  # term k-1 over term k is k/aa
                steps = np.arange(k, max(k - _TAIL_CHUNK, 0), -1, dtype=float)
                log_ratio = np.log(steps) - log_aa
            logs = log_last + np.cumsum(log_ratio)
            rel_sum += float(np.sum(np.exp(logs)))
            log_last = float(logs[-1])
            k += steps.size if upward else -steps.size
        mass = math.exp(log_first + math.log(rel_sum))
        return mass if upward else 1.0 - mass

    def warn_if_leaky(self, alpha: complex) -> None:
        tol = self.tail_tol if self.tail_tol is not None else DEFAULT_TAIL_TOL
        tail = self.tail_mass(alpha)
        if tail > tol:
            warnings.warn(
                f"Poisson tail mass {tail:.3e} beyond n_max={self.n_max} exceeds "
                f"tolerance {tol:.1e}; increase n_max",
                TruncationWarning,
                stacklevel=3,  # the line that called series_tables
            )


def poisson_log_weight(n, alpha: complex):
    """log of the Poisson weight e^(-|alpha|^2) |alpha|^(2n) / n!.

    alpha = 0 degenerates to weight 1 at n = 0 and 0 elsewhere.
    """
    n_arr = np.asarray(n, dtype=float)
    aa = abs(alpha) ** 2
    if aa == 0.0:
        out = np.where(n_arr == 0, 0.0, -np.inf)
    else:
        out = _log_weight(n_arr, aa)
    return float(out) if np.ndim(n) == 0 else out


def _log_weight(n, aa: float):
    """:func:`poisson_log_weight` at an intensity aa > 0, over floats n."""
    return n * math.log(aa) - _log_gamma(n + 1.0) - aa


#: a weight whose log is below this is 0.0: e^x underflows to 0 below about
#: -745.13, and the margin covers the rounding of the log
_LOG_WEIGHT_FLOOR = -750.0


def _poisson_weights(n_max: int, alpha: complex) -> np.ndarray:
    """The normalized Poisson weights of photon numbers 0 .. n_max, bitwise
    ``np.exp(poisson_log_weight(np.arange(n_max + 1), alpha))``.

    The log-weight is concave in n with its top at floor(|alpha|^2), so it is
    at least ``_LOG_WEIGHT_FLOOR`` on one window around the top.  The window's
    edges are found by bisection and only the window goes through
    ``_log_gamma``, about 77 |alpha| numbers at a large |alpha|; every weight
    outside it is 0.0, as its exp would be.
    """
    aa = abs(alpha) ** 2
    w = np.zeros(n_max + 1)
    if aa == 0.0:
        w[0] = 1.0
        return w

    def above(n: int) -> bool:
        return _log_weight(float(n), aa) >= _LOG_WEIGHT_FLOOR

    top = min(math.floor(aa), n_max)
    if above(top):
        lo, hi = _last_true(above, top, 0), _last_true(above, top, n_max)
        w[lo : hi + 1] = np.exp(_log_weight(np.arange(lo, hi + 1, dtype=float), aa))
    return w


def _last_true(pred, inside: int, edge: int) -> int:
    """The integer farthest from ``inside`` towards ``edge``, both included,
    where ``pred`` holds, given that it holds at ``inside`` and changes at
    most once on the way; by bisection."""
    if pred(edge):
        return edge
    while abs(edge - inside) > 1:
        mid = (inside + edge) // 2
        if pred(mid):
            inside = mid
        else:
            edge = mid
    return inside


def _reduce_n(prod: np.ndarray) -> np.ndarray:
    """Fixed summation order over the trailing (ascending-n) axis."""
    return np.add.reduce(np.ascontiguousarray(prod), axis=-1)


#: conj(alpha) exponent carried by each of the six series per family
_ALPHA_POWERS = (0, -1, 1, -2, 2, 0)  # offsets relative to l

#: photon-index offset of the oscillator product of each of the six series
_OFFSETS = (0, 0, 1, 0, 2, 1)


@dataclass(frozen=True, eq=False)
class SeriesTables:
    """The temperature-independent series tables of one (params, trunc, t).

    ``S1``/``S2`` are the sums S_j(k), k in {0, 1, 2}, shape (3, nt).  S1
    sums cos^2(sqrt(D_{n+k}) t) + (delta/2)^2 sin^2(...)/D_{n+k}; S2 sums
    sin^2(sqrt(D_{n+k}) t)/D_{n+k}.  They carry the normalized weights (the
    module-level convention), so S1(k) -> 1 and S2(k) -> 0 at t = 0.

    ``tilde`` holds the twelve coherence series exactly as printed, shape
    (2, 6, nt): ``tilde[j - 1, k]`` for j in {1, 2}, k in {0..5}, including
    sign, conj(alpha) power and unit-step shifts.  Family 1 weighs
    A(m+l) B'(m+l) products, family 2 B A' products; summing over the weight
    index m = 0..n_max absorbs the printed unit-step guards.  It is None for
    a P_e-only build.

    The order terms are formed once, on first use; :meth:`pe` and
    :meth:`rho01` then only combine them with the Bogoliubov angles of the
    temperature asked for.  Every value is an array over the time grid.
    """

    params: ModelParams
    S1: np.ndarray
    S2: np.ndarray
    tilde: np.ndarray | None

    @staticmethod
    def check_prefactors(params: ModelParams) -> None:
        """Raise :class:`~thermaljcm.model.LimitError` (``"alpha"``, then
        ``"g"``) where a prefactor is past the float range: at a large
        |alpha| the S sums are 0, which an infinite prefactor turns into nan.
        The largest are formed as :attr:`pe_terms` forms them, and as
        :func:`series_tables` scales the coherence series (g |alpha|^(l + 2)).
        Assumes the finite g^2 that ``EigenvalueTable.check`` leaves."""
        aa, l, g, g2 = params.abs_alpha_sq, params.l, params.g, params.g**2
        abs_alpha = abs(params.alpha)
        try:  # a Python float ** past the float range raises instead of giving inf
            powers = (4.0 * aa * aa, aa**l, abs_alpha ** (l + 2))
        except OverflowError:
            powers = (math.inf,)
        if not all(map(math.isfinite, powers)):
            raise LimitError("alpha", f"alpha = {params.alpha}: the series prefactors are "
                                      f"past the float range at l = {l}")
        coupled = (2.0 * g2 * aa**l, 2.0 * g2 * (1.0 + 2.0 * aa) * aa ** (l - 1),
                   g * abs_alpha ** (l + 2))
        if not all(map(math.isfinite, coupled)):
            raise LimitError("g", f"g = {g}: the series prefactors are past the float "
                                  f"range at alpha = {params.alpha}, l = {l}")

    @cached_property
    def pe_terms(self):
        """Excitation-probability order terms ((p1_0, p1_1, p1_2),
        (p2_0, p2_1, p2_2)): zeroth, first and second order of the two
        atomic-weight channels; channel 1 multiplies sin^2 and channel 2
        cos^2 of the atomic mixing angle.

        At zero temperature only p2_0 survives:
        g^2 |alpha|^(2l) e^(-|alpha|^2) sum_m |alpha|^(2m)/m! sin^2(sqrt(D_m) t)/D_m.
        """
        S1, S2 = self.S1, self.S2
        aa = self.params.abs_alpha_sq
        g2 = self.params.g**2
        l = self.params.l
        p01 = S1[0]
        p02 = g2 * aa**l * S2[0]
        p11 = -2.0 * aa * (S1[0] - S1[1])
        p12 = 2.0 * g2 * aa**l * ((l - aa) * S2[0] + aa * S2[1])
        p21 = 2.0 * (
            -(1.0 + aa - 2.0 * aa * aa) * S1[0]
            + (1.0 - 4.0 * aa * aa) * S1[1]
            + aa * (1.0 + 2.0 * aa) * S1[2]
        )
        p22 = (
            2.0
            * g2
            * (1.0 + 2.0 * aa)
            * aa ** (l - 1)
            * (
                (l * l - (1.0 + 2.0 * l) * aa + aa * aa) * S2[0]
                - aa * (-1.0 - 2.0 * l + 2.0 * aa) * S2[1]
                + aa * aa * S2[2]
            )
        )
        return (p01, p11, p21), (p02, p12, p22)

    @cached_property
    def _rho01_arrays(self):
        if self.tilde is None:
            raise ValueError("these tables were built without the coherence series")
        S = self.tilde
        aa = self.params.abs_alpha_sq
        alpha = self.params.alpha
        ac = np.conj(alpha)
        r0 = S[:, 0]
        r1 = -2.0 * aa * S[:, 0] + ac * S[:, 1] + alpha * S[:, 2]
        r2 = (
            2.0 * (-1.0 - aa + 2.0 * aa * aa) * S[:, 0]
            - (1.0 + 4.0 * aa) * ac * S[:, 1]
            - (1.0 + 4.0 * aa) * alpha * S[:, 2]
            + ac * ac * S[:, 3]
            + alpha * alpha * S[:, 4]
            + 2.0 * (1.0 + aa) * S[:, 5]
        )
        return r0, r1, r2  # each (2, nt)

    def pe(self, thermal: ThermalParams) -> np.ndarray:
        """Excitation probability through second order in the Bogoliubov
        angle, at the temperature of ``thermal``.

        Returned raw: at larger angles the truncated expansion may leave
        [0, 1] slightly; physicality is classified downstream (see the
        coherence module), never clamped here.
        """
        p1, p2 = self.pe_terms
        th = thermal.theta
        pe1 = p1[0] + th * p1[1] + 0.5 * th * th * p1[2]
        pe2 = p2[0] + th * p2[1] + 0.5 * th * th * p2[2]
        return thermal.sin_atom**2 * pe1 + thermal.cos_atom**2 * pe2

    def rho01(self, thermal: ThermalParams) -> np.ndarray:
        """Atomic coherence through second order in the Bogoliubov angle, at
        the temperature of ``thermal``, raw.

        Note on orientation: this is the expansion of the expectation of
        (u00^dag u10, u01^dag u11), which is the conjugate of the
        excited-ground matrix element the exact reduced state yields;
        magnitudes agree, complex comparisons against the oracle must
        conjugate one side (verified in the test suite rather than asserted
        symbolically).
        """
        r0, r1, r2 = self._rho01_arrays
        th = thermal.theta
        ch1 = r0[0] + th * r1[0] + 0.5 * th * th * r2[0]
        ch2 = r0[1] + th * r1[1] + 0.5 * th * th * r2[1]
        return thermal.sin_atom**2 * ch1 + thermal.cos_atom**2 * ch2


def series_tables(t, params: ModelParams, trunc: TruncationPolicy, *,
                  coherence: bool = True) -> SeriesTables:
    """Build the temperature-independent series tables on the 1-d time grid t.

    With ``coherence=False`` the twelve coherence series are skipped and the
    trig tables are sized to the n_max + 3 columns the S sums need, for
    callers that only want P_e.  :meth:`TruncationPolicy.check` runs first,
    on the build's own columns and samples.
    """
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim != 1:
        raise ValueError("time must be a 1-d array")
    n_max = trunc.n_max
    l = params.l
    n_cols = n_max + 1
    n_pe = n_max + 3  # columns n + k, k <= 2, of the S sums and the coherence products
    n_shift = min(l, n_pe)  # structurally zero D' columns
    # the limits first: a cut too large to tabulate fails here at once, before
    # the tail sum spends O(|alpha|) work on it
    trunc.check(params, t_arr.size, coherence)
    columns = trunc.top_row(l) + 1 if coherence else n_pe
    shared, per_worker = _build_bytes(columns, l, coherence, t_arr.size)
    table = EigenvalueTable(params, columns - 1)
    trunc.warn_if_leaky(params.alpha)
    w = _poisson_weights(n_max, params.alpha)
    half_delta = params.delta / 2.0
    half_delta_sq = half_delta**2
    zero = table.d == 0.0  # only at g = 0 and resonance: limits t^2 and (1, t) below
    d_safe = np.where(zero, 1.0, table.d)[None, :n_pe]
    sqrt_d_safe = np.where(zero, 1.0, table.sqrt_d)[None, :]

    S1 = np.empty((3, t_arr.size))
    S2 = np.empty((3, t_arr.size))
    tilde = None
    if coherence:
        tilde = np.empty((2, 6, t_arr.size), dtype=complex)
        m = np.arange(n_max + 1, dtype=float)
        # polynomial coefficients of the six series, folded into the weights
        cw = (w, w * (m + l), w, w * ((m + l - 1) * (m + l)), w, w * (m + l + 1))
        # their prefactors +-i g conj(alpha)^p, applied chunk by chunk
        ac = np.conj(params.alpha)
        c = np.empty((2, 6, 1), dtype=complex)
        for k in range(6):
            p = l + _ALPHA_POWERS[k]
            pref = (1.0 if p == 0 else 0.0) if params.alpha == 0 else ac**p
            c[:, k, 0] = (-1j * params.g * pref, 1j * params.g * pref)

    # workers and chunks as in the module docstring.  The caller allocates
    # every worker's workspace, with rows summing to at most _T_CHUNK and
    # each worker's within _TILE_CELLS cells; each worker reuses its own for
    # all of its chunks: tables allocated afresh per chunk are page-faulted
    # in again each time (3x the faults on a fig3 grid).
    n_rows = min(t_arr.size, _T_CHUNK)
    workers = max(1, min(_usable_cpus(), n_rows, n_rows * columns // _MIN_WORKER_CELLS,
                         (_BUILD_BYTES_LIMIT - shared) // per_worker))
    chunk = max(1, min(n_rows // workers, _TILE_CELLS // table.d.size))
    trig = np.empty((workers, 2, chunk, table.d.size))
    sq = np.empty((workers, 2, chunk, n_pe))
    # read flat, as (rows, n_pe) for (delta/2)^2 s2d and then as (rows, n_cols)
    # for the weighted products: contiguous views of one table
    prod = np.empty((workers, chunk, n_pe))
    any_zero = bool(zero.any())

    def build(worker: int) -> None:
        for lo in range(worker * chunk, t_arr.size, workers * chunk):
            sl = slice(lo, lo + chunk)
            tc = t_arr[sl]
            sin_t, cos_t = trig[worker, :, : tc.size]
            s1, s2d = sq[worker, :, : tc.size]
            flat = prod[worker].reshape(-1)
            s2d_scaled = flat[: tc.size * n_pe].reshape(tc.size, n_pe)
            out = flat[: tc.size * n_cols].reshape(tc.size, n_cols)
            np.multiply(tc[:, None], table.sqrt_d[None, :], out=sin_t)
            np.cos(sin_t, out=cos_t)
            np.sin(sin_t, out=sin_t)

            # S2 summand sin^2/D, S1 summand cos^2 + (delta/2)^2 sin^2/D
            np.multiply(sin_t[:, :n_pe], sin_t[:, :n_pe], out=s2d)
            s2d /= d_safe
            if any_zero:
                s2d[:, zero[:n_pe]] = (tc * tc)[:, None]
            np.multiply(cos_t[:, :n_pe], cos_t[:, :n_pe], out=s1)
            s1 += np.multiply(half_delta_sq, s2d, out=s2d_scaled)
            for k in range(3):
                S1[k, sl] = _reduce_n(np.multiply(s1[:, k : k + n_cols], w, out=out))
                S2[k, sl] = _reduce_n(np.multiply(s2d[:, k : k + n_cols], w, out=out))
            if not coherence:
                continue

            # A(m), B(m) on every column; A'(n) = A(n - l), B'(n) = B(n - l) for n >= l
            b = sin_t
            b /= sqrt_d_safe
            if any_zero:
                b[:, zero] = tc[:, None]
            a = cos_t - 1j * half_delta * b
            ap_struct, _ = _osc_pair(table.sqrt_d_prime[None, :n_shift],
                                     table.d_prime[:n_shift], tc[:, None], half_delta)
            # family 1: A(m + l) B'(m + l) = A(m + l) B(m); family 2: B(m) A'(m)
            ab1 = a[:, l : l + n_pe] * b[:, :n_pe]
            ab2 = np.empty_like(ab1)
            ab2[:, :n_shift] = b[:, :n_shift] * ap_struct
            ab2[:, n_shift:] = b[:, n_shift:n_pe] * a[:, : n_pe - n_shift]
            for k, off in enumerate(_OFFSETS):
                tilde[0, k, sl] = _reduce_n(ab1[:, off : off + n_cols] * cw[k][None, :])
                tilde[1, k, sl] = _reduce_n(ab2[:, off : off + n_cols] * cw[k][None, :])
            # real arithmetic: numpy's complex multiply rounds one element differently
            part = tilde[:, :, sl]
            re, im = part.real.copy(), part.imag
            part.real = re * c.real - im * c.imag
            part.imag = re * c.imag + im * c.real

    if workers == 1:
        build(0)
    else:
        from concurrent.futures import ThreadPoolExecutor  # not paid by `import thermaljcm`

        # worker 0 runs in the calling thread
        with ThreadPoolExecutor(workers - 1) as pool:
            others = [pool.submit(build, i) for i in range(1, workers)]
            build(0)
            for future in others:
                future.result()  # re-raises a worker's exception

    return SeriesTables(params, S1, S2, tilde)

