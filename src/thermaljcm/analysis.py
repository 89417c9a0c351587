"""Collapse/revival approximations and numerical period extraction.

The revival period is read off a sampled excitation-probability curve by
sliding-maximum envelope detection around the oscillation midline 1/2,
followed by locating the strongest raw peak near the envelope maximum.  The
closed-form thermal period provides the search window prior; the fast
oscillation granularity quantizes the extracted values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import perturbation
from .coherence import physical_population
from .model import (
    ModelParams,
    ThermalParams,
    rabi_period,
    t0_prime_period,
    tau1,
    thermal_from_inv_beta,
)
from .perturbation import TruncationPolicy, poisson_log_weight

__all__ = [
    "TimeSeries",
    "PeriodEstimate",
    "SweepRow",
    "NoRevivalError",
    "approx_cos_sum",
    "revival_envelope",
    "pe_collapse_revival_approx",
    "envelope",
    "extract_revival_period",
    "period_vs_temperature_sweep",
    "NO_REVIVAL_RATIO",
    "SAMPLES_PER_CYCLE",
]

#: revival detection: the envelope maximum in the search window must exceed
#: this multiple of the post-collapse plateau level
NO_REVIVAL_RATIO = 1.3

#: search window for the first revival, in units of the thermal period prior
SEARCH_WINDOW = (0.4, 1.7)

#: post-collapse plateau window used as the detection baseline, same units
PLATEAU_WINDOW = (0.1, 0.4)

#: default sampling density: samples per fast-oscillation cycle
SAMPLES_PER_CYCLE = 40


class NoRevivalError(RuntimeError):
    """No revival stands out of the post-collapse plateau in the search window."""


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real signal, t_k = t0 + k dt."""

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("values must be a 1-d array with at least two samples")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.values.size)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.values.size - 1)


@dataclass(frozen=True)
class PeriodEstimate:
    """Extracted revival period plus its discreteness bookkeeping.

    ``quantum`` is the spacing of the fast-oscillation peaks the estimate can
    snap to; ``quantization_residual`` is the distance of the period from the
    nearest integer multiple of that quantum.
    """

    period: float
    quantum: float
    method: str
    window: tuple
    quantization_residual: float


@dataclass(frozen=True)
class SweepRow:
    """One temperature point of a period sweep."""

    inv_beta: float
    period: float | None
    t0_prime: float
    quantum: float
    physical: bool

    @property
    def no_revival(self) -> bool:
        return self.period is None


def approx_cos_sum(alpha: complex, l: int, g: float, t):
    """Both sides of the stationary-phase closed form for the Poisson cosine sum.

    lhs: sum_m w_m cos(2 g m^(l/2) t) with normalized Poisson weights w_m;
    rhs: exp(|a|^2 [cos(g |a|^(l-2) l t) - 1]) cos(g |a|^l t + |a|^2 sin(g |a|^(l-2) l t)).
    Both sides carry the e^(-|a|^2) normalization, so they equal 1 at t = 0.
    """
    if alpha == 0:
        raise ValueError("approximation requires alpha != 0")
    aa = abs(alpha) ** 2
    n_max = math.ceil(aa + 12.0 * math.sqrt(aa + 1.0) + 10)
    w = np.exp(poisson_log_weight(np.arange(n_max + 1), alpha))
    t = np.asarray(t, dtype=float)
    m_pow = np.arange(n_max + 1, dtype=float) ** (l / 2.0)
    lhs = np.add.reduce(w * np.cos(2.0 * g * m_pow * t[..., None]), axis=-1)
    slow = g * abs(alpha) ** (l - 2) * l * t
    fast = g * abs(alpha) ** l * t
    rhs = np.exp(aa * (np.cos(slow) - 1.0)) * np.cos(fast + aa * np.sin(slow))
    return lhs, rhs


def revival_envelope(alpha: complex, l: int, g: float, t):
    """Normalized envelope factor exp(|a|^2 [cos(g |a|^(l-2) l t) - 1]) whose
    period sets the revival spacing."""
    aa = abs(alpha) ** 2
    t = np.asarray(t, dtype=float)
    return np.exp(aa * (np.cos(g * abs(alpha) ** (l - 2) * l * t) - 1.0))


def pe_collapse_revival_approx(t, params: ModelParams):
    """Resonant large-amplitude approximation of the excitation probability,
    1/2 - 1/2 sum_m w_m cos(2 g m^(l/2) t).  Derived at zero detuning; a
    warning is issued when used off resonance."""
    if params.delta != 0:
        warnings.warn("collapse/revival approximation is derived at zero detuning",
                      UserWarning, stacklevel=2)
    lhs, _ = approx_cos_sum(params.alpha, params.l, params.g, t)
    return 0.5 - 0.5 * lhs


def envelope(series: TimeSeries, window_width: float) -> TimeSeries:
    """Sliding-window maximum of |values - 1/2| on the same grid.

    1/2 is the oscillation midline of the excitation probability in the
    collapse/revival regime; the window should cover one fast cycle.
    """
    if window_width < 2.0 * series.dt:
        raise ValueError("envelope window must span at least two samples")
    size = max(int(round(window_width / series.dt)), 2)
    return TimeSeries(t0=series.t0, dt=series.dt,
                      values=_sliding_max(np.abs(series.values - 0.5), size))


def _sliding_max(x: np.ndarray, size: int) -> np.ndarray:
    """Maximum over the window [i - size//2, i - size//2 + size - 1] of every
    sample i, with the edge values repeated past both ends (a centred
    maximum filter in 'nearest' mode)."""
    padded = np.pad(x, (size // 2, size - 1 - size // 2), mode="edge")
    # doubling: m[i] = max(padded[i : i + span]) with span the largest power
    # of two <= size; two such windows cover [i, i + size)
    m, span = padded, 1
    while 2 * span <= size:
        m = np.maximum(m[:-span], m[span:])
        span *= 2
    return np.maximum(m[: x.size], m[size - span : size - span + x.size])


def _parabolic_offset(y0: float, y1: float, y2: float) -> float:
    """Sub-sample vertex offset of the parabola through three equidistant
    samples with the maximum at the center; in (-1/2, 1/2)."""
    denom = y0 - 2.0 * y1 + y2
    if denom >= 0.0:
        return 0.0
    return max(-0.5, min(0.5, 0.5 * (y0 - y2) / denom))


def extract_revival_period(series: TimeSeries, params: ModelParams,
                           thermal: ThermalParams) -> PeriodEstimate:
    """Locate the first revival of a sampled excitation-probability curve.

    The envelope (window: one fast cycle) is searched over
    [0.4, 1.7] x thermal-period-prior; its argmax seeds a raw-peak search
    within one window, refined by parabolic interpolation.  Raises
    :class:`NoRevivalError` when the envelope never exceeds
    ``NO_REVIVAL_RATIO`` times the post-collapse plateau level, and
    ``ValueError`` when the grid is too coarse or too short.
    """
    window = rabi_period(params)
    if series.dt > window / 20.0:
        raise ValueError(f"dt = {series.dt:.3g} too coarse; need <= {window / 20:.3g} "
                         "(one twentieth of the fast cycle)")
    prior = t0_prime_period(params, thermal)
    if series.t_end < 1.8 * prior:
        raise ValueError(f"series must span at least 1.8 x {prior:.3g}")

    env = envelope(series, max(window, 2.0 * series.dt))
    n = series.values.size

    def clamp_idx(time: float) -> int:
        return min(max(int(round((time - series.t0) / series.dt)), 0), n - 1)

    s_lo, s_hi = (clamp_idx(f * prior) for f in SEARCH_WINDOW)
    p_lo, p_hi = (clamp_idx(f * prior) for f in PLATEAU_WINDOW)
    p_hi = max(p_hi, p_lo)
    search = env.values[s_lo : s_hi + 1]
    plateau_floor = float(env.values[p_lo : p_hi + 1].min())
    if float(search.max()) <= NO_REVIVAL_RATIO * plateau_floor:
        raise NoRevivalError(
            f"envelope max {search.max():.3e} in the search window does not exceed "
            f"{NO_REVIVAL_RATIO} x plateau level {plateau_floor:.3e}")

    coarse = s_lo + int(np.argmax(search))
    half = max(int(round(window / series.dt)), 1)
    r_lo = max(coarse - half, 0)
    r_hi = min(coarse + half, n - 1)
    peak = r_lo + int(np.argmax(series.values[r_lo : r_hi + 1]))
    shift = 0.0
    if 0 < peak < n - 1:
        shift = _parabolic_offset(series.values[peak - 1], series.values[peak],
                                  series.values[peak + 1])
    period = series.t0 + (peak + shift) * series.dt
    quantum = tau1(params)
    residual = abs(period - round(period / quantum) * quantum)
    return PeriodEstimate(
        period=period,
        quantum=quantum,
        method="envelope-argmax",
        window=(SEARCH_WINDOW[0] * prior, SEARCH_WINDOW[1] * prior),
        quantization_residual=residual,
    )


def period_vs_temperature_sweep(params: ModelParams, inv_betas, trunc: TruncationPolicy,
                                *, dt: float | None = None,
                                span_factor: float = 1.85) -> list[SweepRow]:
    """Extract the revival period at each temperature of a 1/beta grid.

    Each row simulates the perturbative excitation probability over
    [0, span_factor x thermal prior] on a shared dt (default: one fortieth of
    the fast cycle), extracts the period, and pairs it with the closed-form
    prior.  A row whose curve leaves [0, 1] beyond the physicality tolerance
    is flagged rather than dropped; rows without a detectable revival carry
    ``period = None``.  The series tables are built once, on the longest
    row's grid; each time sample is reduced on its own, so a row's slice is
    bitwise what a build on its own grid gives.
    """
    if dt is None:
        dt = rabi_period(params) / SAMPLES_PER_CYCLE
    thermals = [thermal_from_inv_beta(inv_beta, params) for inv_beta in inv_betas]
    priors = [t0_prime_period(params, thermal) for thermal in thermals]
    spans = [int(math.ceil(span_factor * prior / dt)) + 1 for prior in priors]
    if not spans:
        return []
    tables = perturbation.series_tables(dt * np.arange(max(spans)), params, trunc,
                                        coherence=False)
    rows: list[SweepRow] = []
    for inv_beta, thermal, prior, n_samples in zip(inv_betas, thermals, priors, spans):
        pe = tables.pe(thermal)[:n_samples]
        physical = bool(np.all(physical_population(pe)))
        series = TimeSeries(t0=0.0, dt=dt, values=pe)
        quantum = tau1(params)
        try:
            est = extract_revival_period(series, params, thermal)
            period: float | None = est.period
        except NoRevivalError:
            period = None
        rows.append(SweepRow(inv_beta=float(inv_beta), period=period,
                             t0_prime=prior, quantum=quantum, physical=physical))
    return rows
