"""Collapse/revival approximations and numerical period extraction.

The revival period is read off a sampled excitation-probability curve by
sliding-maximum envelope detection around the oscillation midline 1/2,
followed by locating the strongest raw peak near the envelope maximum.  The
closed-form thermal period provides the search window prior; the fast
oscillation granularity quantizes the extracted values.  The time step
rules, :func:`default_dt` and :func:`check_dt`, and the ``SAMPLE_LIMIT`` on
a sweep's rows are this module's, the period formulas' domain and the (t, n) table rule
the model's; each raises :class:`~thermaljcm.model.LimitError` before anything is built.
:func:`approx_cos_sum` runs on the model's (t, n) runner (its module docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import perturbation
from .coherence import physical_population
from .model import (
    _BUILD_BYTES_LIMIT,
    LimitError,
    ModelParams,
    ThermalParams,
    _check_table,
    _weighted_sums,
    _worker_bytes,
    rabi_period,
    t0_prime_period,
    tau1,
    thermal_from_inv_beta,
)
from .perturbation import TruncationPolicy, _poisson_cut, _poisson_weights

__all__ = [
    "TimeSeries",
    "SweepRow",
    "NoRevivalError",
    "approx_cos_sum",
    "default_dt",
    "check_dt",
    "revival_envelope",
    "envelope",
    "extract_revival_period",
    "period_vs_temperature_sweep",
    "NO_REVIVAL_RATIO",
    "SAMPLES_PER_CYCLE",
    "MIN_SAMPLES_PER_CYCLE",
    "SAMPLE_LIMIT",
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

#: coarsest grid period extraction accepts, in samples per fast cycle
MIN_SAMPLES_PER_CYCLE = 20

#: the most samples of a time grid: 2^24 samples of 8 bytes are 128 MiB
SAMPLE_LIMIT = 1 << 24

#: sweep rows span this multiple of the thermal period prior; must stay
#: >= 1.8, the span :func:`extract_revival_period` requires
SPAN_FACTOR = 1.85


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
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.values.size - 1)


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


def default_dt(params: ModelParams) -> float:
    """Default time step of a grid: 1/``SAMPLES_PER_CYCLE`` of the fast cycle."""
    return rabi_period(params) / SAMPLES_PER_CYCLE


def check_dt(params: ModelParams, dt: float) -> None:
    """Raise :class:`~thermaljcm.model.LimitError` (``"dt"``) where dt is
    coarser than period extraction accepts."""
    dt_max = rabi_period(params) / MIN_SAMPLES_PER_CYCLE
    if dt > dt_max:
        raise LimitError("dt", f"dt = {dt} too coarse for period extraction; need <= "
                               f"{dt_max:.3g} (1/{MIN_SAMPLES_PER_CYCLE} of the fast cycle)")


def approx_cos_sum(alpha: complex, l: int, g: float, t):
    """Both sides of the stationary-phase closed form for the Poisson cosine sum.

    lhs: sum_m w_m cos(2 g m^(l/2) t) with normalized Poisson weights w_m;
    rhs: exp(|a|^2 [cos(g |a|^(l-2) l t) - 1]) cos(g |a|^l t + |a|^2 sin(g |a|^(l-2) l t)).
    Both sides carry the e^(-|a|^2) normalization, so they equal 1 at t = 0.
    alpha = 0, |a|^(l-2) or |a|^l that underflows to 0 or passes the float
    range, or a photon axis past the model's byte budget raises
    ``LimitError("alpha")``; then the lhs's (t, m) table passes the model's
    table rule at the phase rate 2 g n_max^(l/2) (or the rhs's).
    """
    if alpha == 0:
        raise LimitError("alpha", "approximation requires alpha != 0")
    aa = abs(alpha) ** 2
    n_max = _poisson_cut(alpha)
    t = np.asarray(t, dtype=float)
    try:  # a Python float ** past the float range raises instead of giving inf
        powers = (abs(alpha) ** (l - 2), abs(alpha) ** l)
        # the largest phase rate: the table's, or the rhs's slow one at l = 1
        rate = max(2.0 * g * n_max ** (l / 2.0), g * powers[0] * l)
    except OverflowError:
        powers, rate = (math.inf,), math.inf
    if not all(0.0 < p < math.inf for p in powers):
        raise LimitError("alpha", f"alpha = {alpha}: |alpha|^{l - 2} or |alpha|^{l} is past "
                                  f"the float range")
    # the weights and the rates, and one worker's table row and product row
    columns = n_max + 1
    shared = 8 * 2 * columns
    need = shared + _worker_bytes(2 * columns)
    if need > _BUILD_BYTES_LIMIT:
        raise LimitError("alpha", f"alpha = {alpha}: approx-check's {columns} photon numbers "
                                  f"need {need >> 20} MiB, more than the limit of "
                                  f"{_BUILD_BYTES_LIMIT >> 20} MiB")
    _check_table("approx-check's table of {} time samples x {} photon numbers", t, columns,
                 rate)
    w = _poisson_weights(n_max, alpha)
    rates = 2.0 * g * np.arange(columns, dtype=float) ** (l / 2.0)

    def cos_fill(tc: np.ndarray, out: np.ndarray) -> None:
        np.cos(np.multiply(tc[:, None], rates, out=out), out=out)

    lhs = _weighted_sums(cos_fill, t.reshape(-1), w[None], shared)[0].reshape(t.shape)[()]
    slow = g * abs(alpha) ** (l - 2) * l * t
    fast = g * abs(alpha) ** l * t
    rhs = revival_envelope(alpha, l, g, t) * np.cos(fast + aa * np.sin(slow))
    return lhs, rhs


def revival_envelope(alpha: complex, l: int, g: float, t):
    """Normalized envelope factor exp(|a|^2 [cos(g |a|^(l-2) l t) - 1]) whose
    period sets the revival spacing."""
    aa = abs(alpha) ** 2
    t = np.asarray(t, dtype=float)
    return np.exp(aa * (np.cos(g * abs(alpha) ** (l - 2) * l * t) - 1.0))


def envelope(series: TimeSeries, window_width: float) -> TimeSeries:
    """Sliding-window maximum of |values - 1/2| on the same grid.

    1/2 is the oscillation midline of the excitation probability in the
    collapse/revival regime; the window should cover one fast cycle.
    """
    if window_width < 2.0 * series.dt:
        raise ValueError("envelope window must span at least two samples")
    # a window of 2n + 1 samples or more holds all n from each: the same maxima
    size = min(max(int(round(window_width / series.dt)), 2), 2 * series.values.size + 1)
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
                           thermal: ThermalParams) -> float:
    """Time of the first revival of a sampled excitation-probability curve.

    The envelope (window: one fast cycle) is searched over
    [0.4, 1.7] x thermal-period-prior; its argmax seeds a raw-peak search
    within one window, refined by parabolic interpolation.  Raises
    :class:`NoRevivalError` when the envelope never exceeds
    ``NO_REVIVAL_RATIO`` times the post-collapse plateau level, and
    ``ValueError`` when the grid is too coarse or too short.
    """
    check_dt(params, series.dt)
    window = rabi_period(params)
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
    return series.t0 + (peak + shift) * series.dt


def _row_samples(prior: float, dt: float) -> float:
    """Sample count of a sweep row's grid, ceil(SPAN_FACTOR x prior / dt) + 1,
    formed in floats: exact below 2^53, inf past the float range."""
    return float(np.ceil(SPAN_FACTOR * prior / dt)) + 1.0


def period_vs_temperature_sweep(params: ModelParams, inv_betas, trunc: TruncationPolicy,
                                *, dt: float | None = None) -> list[SweepRow]:
    """Extract the revival period at each temperature of a 1/beta grid.

    Each row simulates the perturbative excitation probability over
    [0, SPAN_FACTOR x thermal prior] on a shared dt (default: one fortieth of
    the fast cycle; checked before any table is built), extracts the period,
    and pairs it with the closed-form prior.  A row whose curve leaves [0, 1]
    beyond the physicality tolerance is flagged rather than dropped; rows
    without a detectable revival carry ``period = None``.  The series
    tables are built once, on the longest row's grid; each time sample is
    reduced on its own, so a row's slice is bitwise what a build on its own
    grid gives.  A sweep whose every temperature has the angles of zero
    temperature (1/beta = 0, or small enough that they round to them) builds
    the zero-temperature tables, one sin table and one photon sum per
    sample, whose P_e has the bits of the P_e-only build's.  g = 0,
    alpha = 0 and a longest row of ``SAMPLE_LIMIT`` samples or more raise
    ``LimitError`` before it.
    """
    if dt is None:
        dt = default_dt(params)
    thermals = [thermal_from_inv_beta(inv_beta, params) for inv_beta in inv_betas]
    priors = [t0_prime_period(params, thermal) for thermal in thermals]
    samples = max((_row_samples(prior, dt) for prior in priors), default=0.0)
    if samples >= SAMPLE_LIMIT:
        raise LimitError("dt", f"the longest sweep row at alpha = {params.alpha}, dt = "
                               f"{dt:.6g} has {samples:.3g} time samples, more than the "
                               f"limit of {SAMPLE_LIMIT}")
    check_dt(params, dt)
    if not priors:
        return []
    spans = [int(_row_samples(prior, dt)) for prior in priors]
    zero_temperature = all(thermal.zero_temperature for thermal in thermals)
    tables = perturbation.series_tables(dt * np.arange(max(spans)), params, trunc,
                                        coherence=False, zero_temperature=zero_temperature)
    quantum = tau1(params)
    rows: list[SweepRow] = []
    for inv_beta, thermal, prior, n_samples in zip(inv_betas, thermals, priors, spans):
        pe = tables.pe(thermal)[:n_samples]
        physical = bool(np.all(physical_population(pe)))
        series = TimeSeries(t0=0.0, dt=dt, values=pe)
        try:
            period: float | None = extract_revival_period(series, params, thermal)
        except NoRevivalError:
            period = None
        rows.append(SweepRow(inv_beta=float(inv_beta), period=period,
                             t0_prime=prior, quantum=quantum, physical=physical))
    return rows
