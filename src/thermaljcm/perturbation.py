"""Low-temperature perturbation series of the thermal l-photon JCM.

Evaluates the excitation probability and the atomic coherence through second
order in the bosonic Bogoliubov angle.  Every series is a Poisson-weighted
sum over photon number; weights are built in the log domain so that the
alpha = 12, n_max = 250 regime never overflows, and all reductions run in a
fixed ascending-n order (numpy pairwise over the contiguous n axis), so a
value is bitwise independent of how the time grid is batched.  One known
exception: at complex alpha the coherence series of a one-sample grid can
differ in the last bit, because numpy's in-place complex multiply by the
prefactor takes another path for a one-element array.

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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammainc, gammaln

from .model import EigenvalueTable, ModelParams, ThermalParams, _osc_pair

__all__ = [
    "TruncationPolicy",
    "TruncationWarning",
    "SeriesTables",
    "poisson_log_weight",
    "series_tables",
]

DEFAULT_TAIL_TOL = 1e-9

#: time-axis block size for the grid engines; keeps the (t, n) trig tables
#: under ~50 MB without affecting any per-time-point result
_T_CHUNK = 2048


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
    def adaptive(cls, params: ModelParams, tail_tol: float = 1e-12) -> "TruncationPolicy":
        aa = params.abs_alpha_sq
        n_max = math.ceil(aa + 12.0 * math.sqrt(aa + 1.0) + params.l + 10)
        return cls(n_max=n_max, tail_tol=tail_tol)

    def tail_mass(self, alpha: complex) -> float:
        """Poisson probability mass above n_max for intensity |alpha|^2."""
        return float(gammainc(self.n_max + 1, abs(alpha) ** 2))

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
        out = n_arr * math.log(aa) - gammaln(n_arr + 1.0) - aa
    return float(out) if np.ndim(n) == 0 else out


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
    callers that only want P_e.
    """
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim != 1:
        raise ValueError("time must be a 1-d array")
    trunc.warn_if_leaky(params.alpha)
    n_max = trunc.n_max
    l = params.l
    n_cols = n_max + 1
    n_pe = n_max + 3  # columns n + k, k <= 2, of the S sums and the coherence products
    n_shift = min(l, n_pe)  # structurally zero D' columns
    table = EigenvalueTable(params, n_max + l + 2 if coherence else n_max + 2)
    w = np.exp(poisson_log_weight(np.arange(n_max + 1), params.alpha))
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

    # one workspace reused by every chunk: tables allocated afresh per chunk
    # are page-faulted in again each time (3x the faults on a fig3 grid)
    n_chunk = min(t_arr.size, _T_CHUNK)
    trig = np.empty((2, n_chunk, table.d.size))
    sq = np.empty((2, n_chunk, n_pe))
    prod = np.empty((n_chunk, n_cols))
    for lo in range(0, t_arr.size, _T_CHUNK):
        sl = slice(lo, lo + _T_CHUNK)
        tc = t_arr[sl]
        sin_t, cos_t = trig[:, : tc.size]
        s1, s2d = sq[:, : tc.size]
        np.multiply(tc[:, None], table.sqrt_d[None, :], out=sin_t)
        np.cos(sin_t, out=cos_t)
        np.sin(sin_t, out=sin_t)

        # S2 summand sin^2/D, S1 summand cos^2 + (delta/2)^2 sin^2/D
        np.multiply(sin_t[:, :n_pe], sin_t[:, :n_pe], out=s2d)
        s2d /= d_safe
        s2d[:, zero[:n_pe]] = (tc * tc)[:, None]
        np.multiply(cos_t[:, :n_pe], cos_t[:, :n_pe], out=s1)
        s1 += half_delta_sq * s2d
        for k in range(3):
            S1[k, sl] = _reduce_n(np.multiply(s1[:, k : k + n_cols], w, out=prod[: tc.size]))
            S2[k, sl] = _reduce_n(np.multiply(s2d[:, k : k + n_cols], w, out=prod[: tc.size]))
        if not coherence:
            continue

        # A(m), B(m) on every column; A'(n) = A(n - l), B'(n) = B(n - l) for n >= l
        b = sin_t
        b /= sqrt_d_safe
        b[:, zero] = tc[:, None]
        a = cos_t - 1j * half_delta * b
        ap_struct, _ = _osc_pair(table.sqrt_d_prime[None, :n_shift], table.d_prime[:n_shift],
                                 tc[:, None], half_delta)
        # family 1: A(m + l) B'(m + l) = A(m + l) B(m); family 2: B(m) A'(m)
        ab1 = a[:, l : l + n_pe] * b[:, :n_pe]
        ab2 = np.empty_like(ab1)
        ab2[:, :n_shift] = b[:, :n_shift] * ap_struct
        ab2[:, n_shift:] = b[:, n_shift:n_pe] * a[:, : n_pe - n_shift]
        for k, off in enumerate(_OFFSETS):
            tilde[0, k, sl] = _reduce_n(ab1[:, off : off + n_cols] * cw[k][None, :])
            tilde[1, k, sl] = _reduce_n(ab2[:, off : off + n_cols] * cw[k][None, :])

    if coherence:
        alpha = params.alpha
        ac = np.conj(alpha)
        for k in range(6):
            p = l + _ALPHA_POWERS[k]
            pref = (1.0 if p == 0 else 0.0) if alpha == 0 else ac**p
            tilde[0, k] *= -1j * params.g * pref
            tilde[1, k] *= 1j * params.g * pref
    return SeriesTables(params, S1, S2, tilde)

