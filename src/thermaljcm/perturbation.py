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
and rho01 at any number of temperatures.  Per time chunk the model's
Rabi-block kernel, the exact solver's too, writes one sin and one cos table
of sqrt(D) t; S1 and S2 come from their squares, then B and A from the same
tables.  A full build's tables run over the joined columns of
:class:`EigenvalueTable`: the s = l structurally zero columns of D' in
front, so A'(m) is column m and A(n), B(n) are column s + n.  A P_e build
takes D alone.

Zero temperature: there theta = sin_atom = 0.0 and cos_atom = 1.0 exactly,
so P_e is p2_0 = g^2 |alpha|^(2l) S2(0) plus signed zeros, which change no
bit of it.  A zero-temperature build (``zero_temperature=True``, P_e only)
forms S2(0) alone by the model's one-sin reduction (``model._weighted_sums``
on ``model._sin_sq_fill``), with the operations and bits of the P_e kernel's
S2(0), and one weight row, the Poisson weights.  The tables of a
zero-temperature build refuse with ``ValueError`` a temperature with other
angles, the order terms and rho01.

Threads: a build runs on the model's (t, n) runner (its module docstring),
with the workspace :func:`_row_cells` counts.

This module owns the sizing rules of a build: the table width
(:meth:`TruncationPolicy.top_row`), the prefactor range
(:meth:`SeriesTables.check_prefactors`), the Poisson cut and the byte budget
(the model's ``_BUILD_BYTES_LIMIT``, on the photon axis and what a build
holds per time sample).  :meth:`TruncationPolicy.check` applies them and the
model's table rule; :func:`series_tables` calls it on its grid before it
allocates, so a call past them raises :class:`~thermaljcm.model.LimitError`
instead of returning nan or asking numpy for more memory than the host has.
It counts one worker, so one refused on one worker is refused on every host.

No scipy: the log-factorials of the weights come from ``model._log_gamma``,
which keeps the bits of ``scipy.special.gammaln``, called only where a
weight is not 0.0 (:func:`_poisson_weights`), and the Poisson tail mass
of the truncation warning is a bounded log-domain sum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    _BUILD_BYTES_LIMIT,
    EigenvalueTable,
    LimitError,
    ModelParams,
    ThermalParams,
    _check_table,
    _log_gamma,
    _plan,
    _rabi_amplitudes,
    _rabi_sin_sq,
    _rabi_trig,
    _run,
    _sin_sq_fill,
    _weighted_sums,
    _worker_bytes,
)

__all__ = [
    "TruncationPolicy",
    "TruncationWarning",
    "SeriesTables",
    "series_tables",
]

DEFAULT_TAIL_TOL = 1e-9

#: Poisson terms per step of :meth:`TruncationPolicy.tail_mass`
_TAIL_CHUNK = 4096


def _row_cells(columns: int, coherence: bool) -> int:
    """float64 workspace cells a time row of a build of ``columns`` eigenvalue columns:
    3 a column on the P_e path (the trig pair and the product table), 9 on the full one,
    which adds the S-sum pair and two complex tables (its trig and amplitude tables are
    l columns wider, the others l narrower: 9 columns - l)."""
    return (9 if coherence else 3) * columns


def _build_bytes(columns: int, l: int, coherence: bool, samples: int) -> tuple[int, int]:
    """Upper bounds on the bytes a build of ``columns`` eigenvalue columns on
    ``samples`` time samples allocates: (shared, each worker).

    Shared, in float64 arrays of the photon axis: l + 7 for the eigenvalue
    table as it is built (its (m, l) products included), 5 for the Poisson
    weights, 2 for the masks, and 7 more for the weighted coherence columns;
    per time sample, 12 for S1, S2 and the cached order terms (traced), 47 for
    a full build, which peaks as it forms the rho01 order terms.  Each worker:
    its workspace (``model._worker_bytes`` of :func:`_row_cells`), all it
    allocates of the (t, n) size.
    """
    shared = columns * (l + 14 + (7 if coherence else 0)) + samples * (47 if coherence else 12)
    return 8 * shared, _worker_bytes(_row_cells(columns, coherence))


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

    def check(self, params: ModelParams, t, coherence: bool = False) -> None:
        """Raise :class:`~thermaljcm.model.LimitError` where a build on the time
        grid ``t`` (``()``: none) is past the byte budget, summed in integers
        (``"n_max"`` for its photon axis alone, else ``"t"``), the eigenvalue or
        prefactor range, or the table rule at a full build's last sqrt(D) and D_0."""
        l = params.l
        samples = np.size(t)
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
        d_last = EigenvalueTable.check(params, self.top_row(l))
        SeriesTables.check_prefactors(params)
        _check_table("a series build of {} time samples x {} photon columns", t, columns,
                     math.sqrt(d_last), EigenvalueTable.check(params, 0))

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


def _log_weight(n, aa: float):
    """ln of the Poisson weight e^(-aa) aa^n / n! over floats n, at aa > 0."""
    return n * math.log(aa) - _log_gamma(n + 1.0) - aa


#: a weight whose log is below this is 0.0: e^x underflows to 0 below about
#: -745.13, and the margin covers the rounding of the log
_LOG_WEIGHT_FLOOR = -750.0


def _poisson_weights(n_max: int, alpha: complex) -> np.ndarray:
    """The normalized Poisson weights e^(-|alpha|^2) |alpha|^(2n) / n! of
    photon numbers 0 .. n_max: 1 at n = 0 and 0 elsewhere when alpha = 0,
    else bitwise ``np.exp(_log_weight(n, |alpha|^2))`` at every n.

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

    A zero-temperature build holds ``S2[0]`` alone, shape (1, nt), and no
    ``S1``: its :meth:`pe` is the zeroth-order term of channel 2 at a
    temperature whose angles are those of zero temperature
    (``ThermalParams.zero_temperature``) and raises ``ValueError`` at any
    other, as :attr:`pe_terms` and :meth:`rho01` do.
    """

    params: ModelParams
    S1: np.ndarray | None
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
        if self.S1 is None:
            raise ValueError("these tables were built for zero temperature: they hold "
                             "no order term but p2_0")
        S1, S2 = self.S1, self.S2
        aa = self.params.abs_alpha_sq
        g2 = self.params.g**2
        l = self.params.l
        p01 = S1[0]
        p02 = self._p02()
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

    def _p02(self) -> np.ndarray:
        """The zeroth-order term of channel 2, g^2 |alpha|^(2l) S2(0)."""
        return self.params.g**2 * self.params.abs_alpha_sq**self.params.l * self.S2[0]

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
        return tuple(zip(r0, r1, r2))  # per channel, its three orders

    def pe(self, thermal: ThermalParams) -> np.ndarray:
        """Excitation probability through second order in the Bogoliubov
        angle, at the temperature of ``thermal``.

        Returned raw: at larger angles the truncated expansion may leave
        [0, 1] slightly; physicality is classified downstream (see the
        coherence module), never clamped here.

        At zero temperature theta and sin_atom are 0.0 and cos_atom is 1.0,
        so the combination below adds only signed zeros to p2_0 and returns
        its bits; tables built for zero temperature return p2_0 itself.
        """
        if self.S1 is None:
            if not thermal.zero_temperature:
                raise ValueError(f"these tables were built for zero temperature, not for "
                                 f"theta = {thermal.theta}, sin_atom = {thermal.sin_atom}")
            return self._p02()
        return _theta_sum(thermal, *self.pe_terms)

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
        return _theta_sum(thermal, *self._rho01_arrays)


def _theta_sum(thermal: ThermalParams, channel1, channel2) -> np.ndarray:
    """sin^2 (x0 + theta x1 + theta^2 x2 / 2) + cos^2 (y0 + theta y1 + ...):
    the order terms (x0, x1, x2) of channel 1 and (y0, y1, y2) of channel 2
    at the angles of ``thermal``."""
    th = thermal.theta
    ch1, ch2 = (x0 + th * x1 + 0.5 * th * th * x2 for x0, x1, x2 in (channel1, channel2))
    return thermal.sin_atom**2 * ch1 + thermal.cos_atom**2 * ch2


def series_tables(t, params: ModelParams, trunc: TruncationPolicy, *,
                  coherence: bool = True, zero_temperature: bool = False) -> SeriesTables:
    """Build the temperature-independent series tables on the 1-d time grid t.

    With ``coherence=False`` the twelve coherence series are skipped and the
    trig tables are sized to the n_max + 3 columns the S sums need, for
    callers that only want P_e.  With ``zero_temperature=True`` as well, the
    build holds S2(0) alone (module docstring), sized and refused as the
    P_e-only build.  :meth:`TruncationPolicy.check` runs first, on the
    build's own columns and samples.
    """
    if zero_temperature and coherence:
        raise ValueError("a zero-temperature build holds P_e only: pass coherence=False")
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim != 1:
        raise ValueError("time must be a 1-d array")
    n_max = trunc.n_max
    l = params.l
    n_cols = n_max + 1
    n_pe = n_max + 3  # columns n + k, k <= 2, of the S sums and the coherence products
    # the limits first: a cut too large to tabulate fails here at once, before
    # the tail sum spends O(|alpha|) work on it
    trunc.check(params, t_arr, coherence)
    columns = trunc.top_row(l) + 1 if coherence else n_pe
    shared = _build_bytes(columns, l, coherence, t_arr.size)[0]
    table = EigenvalueTable(params, columns - 1)
    trunc.warn_if_leaky(params.alpha)
    w = _poisson_weights(n_max, params.alpha)
    if zero_temperature:
        S2 = _weighted_sums(_sin_sq_fill(table.sqrt_d[:n_cols], table.d[:n_cols]), t_arr,
                            w[None], shared)
        return SeriesTables(params, None, S2, None)
    half_delta = params.delta / 2.0
    # the Rabi phases' columns: a full build takes the table's joined layout,
    # D' of the s structurally zero columns in front, where A'(m) is column m
    # and A(n), B(n) are column s + n; a P_e build takes D alone (s = 0)
    s = table.shift if coherence else 0
    d, sqrt_d = (table.joined_d, table.joined_sqrt_d) if coherence else (table.d, table.sqrt_d)
    pe_cols = slice(s, s + n_pe)  # D_0 .. D_(n_max + 2), the columns of the S sums

    S1, S2 = np.empty((3, t_arr.size)), np.empty((3, t_arr.size))
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

    workers, chunk = _plan(t_arr.size, columns, _row_cells(columns, coherence), shared)
    trig = np.empty((workers, 2, chunk, s + columns))
    # read flat, as (rows, n_pe) for (delta/2)^2 s2d and then as (rows,
    # n_cols) for the weighted summands: contiguous views of one table
    prod = np.empty((workers, chunk, n_pe))
    if coherence:
        sq = np.empty((workers, 2, chunk, n_pe))  # the S sums' pair, then ab1
        ab2_table = np.empty((workers, chunk, n_pe), dtype=complex)
        amp = np.empty((workers, chunk, s + columns), dtype=complex)  # A, then each product

    def lead(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
        """The first rows x cols cells of a worker's table, as one contiguous view."""
        return buf.reshape(-1)[: rows * cols].reshape(rows, cols)

    def build(worker: int, sl: slice) -> None:
        tc = t_arr[sl]
        rows = tc.size
        sin_t, cos_t = trig[worker, :, :rows]
        _rabi_trig(sqrt_d, tc, sin_t, cos_t)

        # S2 summand sin^2/D, S1 summand cos^2 + (delta/2)^2 sin^2/D; the P_e
        # path squares in place: its trig tables are n_pe wide
        s2d = _rabi_sin_sq(sin_t[:, pe_cols], d[pe_cols], tc,
                           sq[worker, 1, :rows] if coherence else sin_t)
        s1 = sq[worker, 0, :rows] if coherence else cos_t
        np.multiply(cos_t[:, pe_cols], cos_t[:, pe_cols], out=s1)
        s1 += np.multiply(half_delta**2, s2d, out=lead(prod[worker], rows, n_pe))
        out = lead(prod[worker], rows, n_cols)
        for S, summand in ((S2, s2d), (S1, s1)):
            for k in range(3):
                S[k, sl] = np.add.reduce(np.multiply(summand[:, k : k + n_cols], w, out=out), -1)
        if not coherence:
            return

        # B over the sin table and A on every column: B(n), A(n) at s + n, A'(m) at m
        a, b = _rabi_amplitudes(sin_t, cos_t, sqrt_d, tc, half_delta, amp[worker, :rows])
        # family 1: A(m + l) B'(m + l) = A(m + l) B(m); family 2: B(m) A'(m)
        ab1 = lead(sq[worker].reshape(-1).view(complex), rows, n_pe)
        np.multiply(a[:, s + l : s + l + n_pe], b[:, pe_cols], out=ab1)
        ab2 = ab2_table[worker, :rows]
        np.multiply(b[:, pe_cols], a[:, :n_pe], out=ab2)
        weighted = lead(amp[worker], rows, n_cols)  # a is spent
        for k, off in enumerate(_OFFSETS):
            np.multiply(ab1[:, off : off + n_cols], cw[k], out=weighted)
            tilde[0, k, sl] = np.add.reduce(weighted, axis=-1)
            np.multiply(ab2[:, off : off + n_cols], cw[k], out=weighted)
            tilde[1, k, sl] = np.add.reduce(weighted, axis=-1)
        # real arithmetic: numpy's complex multiply rounds one element differently
        part = tilde[:, :, sl]
        re, im = part.real.copy(), part.imag
        part.real = re * c.real - im * c.imag
        part.imag = re * c.imag + im * c.real

    _run(t_arr.size, workers, chunk, build)
    return SeriesTables(params, S1, S2, tilde)

