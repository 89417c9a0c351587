"""Physical parameters and closed-form building blocks of the l-photon JCM.

The rotating-wave Hamiltonian couples the atomic raising operator to the
l-th power of the cavity annihilation operator.  In the interaction picture
the propagator is block diagonal on the pairs {|e,n>, |g,n+l>}; everything
here is expressed through the Rabi eigenvalues of those 2x2 blocks and the
temperature-dependent Bogoliubov angles of the thermal vacuum.

This module owns the float range of the Rabi eigenvalues: the table runs
:meth:`EigenvalueTable.check` before it allocates, so a library call past it
raises :class:`LimitError` instead of returning nan.  It owns the domain of
the period formulas too (g = 0, alpha = 0 or an |alpha|^k that underflows raise
:class:`LimitError` naming ``"g"``, ``"alpha"``), and the (t, n) table rule, :func:`_check_table`.

:func:`_log_gamma` is the package's one log-gamma: a port of the cephes
``lgam`` behind ``scipy.special.gammaln`` (the same coefficients and branch
at 13, with libm's ``log`` through :func:`math.log`), so the Poisson weights
keep scipy's bits without importing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "ThermalParams",
    "EigenvalueTable",
    "LimitError",
    "bogoliubov_angles",
    "thermal_from_inv_beta",
    "thermal_mean_photon",
    "tau1",
    "t0_period",
    "t0_prime_period",
    "rabi_period",
]


class LimitError(ValueError):
    """An input the layer that raises it refuses: past a limit, or outside
    the domain of its formula.  ``param`` is its name: ``"l"``, ``"g"``,
    ``"alpha"``, ``"n_fock"``, ``"n_max"``, ``"dt"``, ``"t"`` (a time
    grid's length, or the cells of its (t, n) table), ``"t_max"`` (its
    largest time, or the rounding of a table's largest phase) or
    ``"inv_beta"`` (a temperature)."""

    def __init__(self, param: str, message: str):
        super().__init__(message)
        self.param = param


@dataclass(frozen=True)
class ModelParams:
    """Constants of the l-photon Jaynes-Cummings model (hbar = 1).

    The detuning is always recomputed from (omega0, omega, l); it is never an
    independent input.
    """

    l: int
    g: float
    omega0: float
    omega: float
    alpha: complex

    def __post_init__(self) -> None:
        if self.l < 1 or self.l != int(self.l):
            raise ValueError("l must be an integer >= 1")
        # g = 0 is admitted so the overall-g**2 structure of the series is
        # testable; the period formulas below still require g > 0.
        if self.g < 0:
            raise ValueError("coupling constant must be >= 0")
        if self.omega0 <= 0 or self.omega <= 0:
            raise ValueError("frequencies must be positive")
        object.__setattr__(self, "l", int(self.l))
        object.__setattr__(self, "alpha", complex(self.alpha))
        try:
            self.abs_alpha_sq
        except OverflowError:
            raise ValueError(f"alpha = {self.alpha}: |alpha|^2 overflows a float") from None
        half_delta = self.delta / 2.0
        if not math.isfinite(half_delta * half_delta):
            name, value = (("omega", self.omega) if self.l * self.omega >= self.omega0
                           else ("omega0", self.omega0))
            raise ValueError(f"{name} = {value}: the detuning l*omega - omega0 = "
                             f"{self.delta} has a square past the float range")

    @property
    def delta(self) -> float:
        return self.l * self.omega - self.omega0

    @property
    def abs_alpha_sq(self) -> float:
        return abs(self.alpha) ** 2


@dataclass(frozen=True)
class ThermalParams:
    """Inverse temperature and the derived Bogoliubov angles (k_B = 1).

    ``theta`` is the bosonic squeeze angle of the cavity thermal vacuum;
    ``cos_atom``/``sin_atom`` are the fermionic mixing angle of the atomic
    thermal vacuum.  ``beta = math.inf`` is the zero-temperature limit and
    gives theta = 0, sin_atom = 0.
    """

    beta: float
    theta: float
    cosh_theta: float
    sinh_theta: float
    cos_atom: float
    sin_atom: float

    @property
    def zero_temperature(self) -> bool:
        """The angles of zero temperature exactly: theta = sin_atom = 0.0 and
        cos_atom = 1.0, at 1/beta = 0 or at a 1/beta so small that they
        round to these values (1e-320, where beta is inf)."""
        return self.theta == 0.0 and self.sin_atom == 0.0 and self.cos_atom == 1.0


def bogoliubov_angles(beta: float, omega: float, omega0: float) -> ThermalParams:
    """Bogoliubov angles of the bosonic and fermionic thermal vacua.

    cosh(theta) = [1 - e^(-beta*omega)]^(-1/2), sinh(theta) = [e^(beta*omega) - 1]^(-1/2)
    for the cavity mode, and cos/sin of the atomic mixing angle carry the
    Fermi factor e^(-beta*omega0).  A beta*omega that underflows to 0
    leaves cosh(theta), about 1/sqrt(beta*omega), past the float range:
    :class:`LimitError` (``"inv_beta"``).
    """
    if omega <= 0 or omega0 <= 0:
        raise ValueError("frequencies must be positive")
    if math.isinf(beta) and beta > 0:
        return ThermalParams(beta=math.inf, theta=0.0, cosh_theta=1.0,
                             sinh_theta=0.0, cos_atom=1.0, sin_atom=0.0)
    if not beta > 0:
        raise ValueError("inverse temperature must be positive (or math.inf)")
    if beta * omega == 0.0:
        raise LimitError("inv_beta", f"1/beta = {1.0 / beta:g} at omega = {omega:g}: "
                                     f"beta*omega underflows to 0, so the Bogoliubov "
                                     f"angle of the cavity is past the float range")
    # 1/sqrt(e^x - 1) written as e^(-x/2)/sqrt(1 - e^(-x)): underflows
    # gracefully at large beta instead of overflowing e^x
    cosh_theta = 1.0 / math.sqrt(-math.expm1(-beta * omega))
    sinh_theta = math.exp(-beta * omega / 2.0) * cosh_theta
    theta = math.asinh(sinh_theta)
    boltz = math.exp(-beta * omega0)
    cos_atom = 1.0 / math.sqrt(1.0 + boltz)
    sin_atom = math.exp(-beta * omega0 / 2.0) * cos_atom
    return ThermalParams(beta=beta, theta=theta, cosh_theta=cosh_theta,
                         sinh_theta=sinh_theta, cos_atom=cos_atom, sin_atom=sin_atom)


def thermal_from_inv_beta(inv_beta: float, params: ModelParams) -> ThermalParams:
    """Bogoliubov angles at temperature 1/beta; 0 means zero temperature."""
    if inv_beta < 0:
        raise ValueError("temperature must be >= 0")
    beta = math.inf if inv_beta == 0 else 1.0 / inv_beta
    return bogoliubov_angles(beta, params.omega, params.omega0)


def thermal_mean_photon(params: ModelParams, theta: float) -> float:
    """Mean photon number |alpha|^2 e^(2 theta) + sinh^2 theta of the thermal
    coherent state at Bogoliubov angle theta, to all orders in theta.

    In Python floats: a mean past the float range raises OverflowError.
    """
    return params.abs_alpha_sq * math.exp(2.0 * theta) + math.sinh(theta) ** 2


#: the most cells, time samples x photon columns, of a (t, n) table
#: (:func:`_check_table`): 5-8 s of series P_e trig, or 3-4 s of the
#: ``oracle.pe_curve`` one-sin sum, on a 2-vCPU host; the largest preset has 9.8e6
_WORK_CELLS_LIMIT = 1 << 28

#: the most a (t, n) table's largest phase, rate x max |t|, may be off in
#: radians by its float64 rounding, 2^-52 of it (:func:`_check_table`).  At
#: l = 1, alpha 2, the float64 P_e is off by 3.8e-7 where that rounding is
#: 1.4e-5 rad, and by 5.4e-4 where it is 0.14 rad; the largest preset phase,
#: 4.0e3, rounds by 9e-13 rad
_PHASE_TOL = 1e-5


def _check_table(table: str, t, columns: int, rate: float, d_low: float | None = None) -> None:
    """Raise :class:`LimitError` where a (t, n) table on the grid ``t`` (``()``: none),
    ``table`` with its samples and columns, has sin^2(sqrt(D) t)/D past the float range
    (``"t_max"``: at most t^2 and 1/D, only where both are at a Rabi table's smallest
    eigenvalue ``d_low``), more than ``_WORK_CELLS_LIMIT`` cells (``"t"``), or its largest
    phase, ``rate`` x max |t|, rounding by over ``_PHASE_TOL`` rad (``"t_max"``)."""
    t = np.asarray(t, dtype=float)
    samples, t_max = t.size, float(np.max(np.abs(t), initial=0.0))
    name = table.format(samples, columns)
    if d_low is not None and math.isinf(t_max * t_max) and d_low < 1.0 / np.finfo(float).max:
        raise LimitError("t_max", f"t = {t_max:g}: sin^2(sqrt(D) t)/D is past the float range "
                                  f"at the eigenvalue D = {d_low:g}")
    if samples * columns > _WORK_CELLS_LIMIT:
        raise LimitError("t", f"{name} has {samples * columns} (t, n) cells, more than the "
                              f"limit of {_WORK_CELLS_LIMIT}")
    rounding = 2.0**-52 * rate * t_max
    if not rounding <= _PHASE_TOL:  # nan too: an infinite rate at t = 0
        raise LimitError("t_max", f"{name}: its largest phase, {rate:.6g} x {t_max:.6g}, "
                                  f"rounds by {rounding:.3g} rad, more than the limit of "
                                  f"{_PHASE_TOL:g} rad")


#: from l = 171 on, l! = prod_k (0 + k) alone is past the float range
_L_FACTORIAL_MAX = 170


class EigenvalueTable:
    """Frozen tables of the Rabi eigenvalues D_m.

    D_m  = (delta/2)^2 + g^2 * prod[m],  prod[m] = prod_{k=1..l} (m + k) = (m+l)!/m!
    D'_n = (delta/2)^2 + g^2 * prod_{k=0..l-1} (n - k): (delta/2)^2 for n < l

    ``joined_d``/``joined_sqrt_d``, the Rabi-phase columns of both engines,
    are [(delta/2)^2 s times, D_0 .. D_n_max], s = ``shift`` = min(l, n_max + 1);
    ``d``/``sqrt_d`` are views of their last columns.  D'_n = D_(n-l), n >= l,
    bitwise while the products are exact integers ((n_max + l)^l < 2^53), so
    A'(m) is column m and A(n), B(n) are column s + n.

    The photon-number products are floats (~1e48 at m = 1e6, l = 8); an
    eigenvalue past the float range raises :class:`LimitError` (module
    docstring).  Arrays are read-only, so the table is safe to share across threads.
    """

    @staticmethod
    def check(params: ModelParams, n_max: int) -> float:
        """Raise :class:`LimitError` (``"l"`` for the product alone, else
        ``"g"``) where the eigenvalues of rows m <= n_max overflow a float,
        else return D_(n_max), the largest.  The products grow with m, so a
        table overflows where its last row does; that row is evaluated in
        O(l), as the table evaluates it."""
        l = params.l
        prod = (math.prod(float(n_max + k) for k in range(1, l + 1))
                if l <= _L_FACTORIAL_MAX else math.inf)
        if not math.isfinite(prod):
            raise LimitError("l", f"l = {l}: the Rabi eigenvalues D_m overflow a float "
                                  f"for m up to {n_max}")
        d_last = (params.delta / 2.0) ** 2 + params.g * params.g * prod
        if not math.isfinite(d_last):
            raise LimitError("g", f"g = {params.g}: the Rabi eigenvalues D_m overflow a "
                                  f"float for m up to {n_max}")
        return d_last

    def __init__(self, params: ModelParams, n_max: int):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.check(params, n_max)
        self.params = params
        self.n_max = int(n_max)
        l, g = params.l, params.g
        half_delta_sq = (params.delta / 2.0) ** 2
        m = np.arange(self.n_max + 1, dtype=float)
        s = self.shift = min(l, self.n_max + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            self.prod = np.prod(m[:, None] + np.arange(1, l + 1)[None, :], axis=1)
            self.joined_d = np.concatenate([np.full(s, half_delta_sq),
                                            half_delta_sq + g * g * self.prod])
        # the safety net behind check(), whose product may round differently
        if not np.isfinite(self.joined_d).all():
            raise ValueError(f"Rabi eigenvalues D_m overflow a float at l = {l}, "
                             f"m up to {self.n_max}")
        self.joined_sqrt_d = np.sqrt(self.joined_d)
        for arr in (self.prod, self.joined_d, self.joined_sqrt_d):
            arr.setflags(write=False)
        self.d, self.sqrt_d = self.joined_d[s:], self.joined_sqrt_d[s:]  # read-only views


#: cephes ``lgam`` coefficients: the Stirling correction (A) and the rational
#: approximation on [2, 3) (numerator B, monic denominator C)
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
           -3.31612992738871184744e5, -1.16237097492762307383e6,
           -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4,
           -2.20528590553854454839e5, -1.13933444367982507207e6,
           -2.53252307177582951285e6, -2.01889141433532773231e6)
_LOG_SQRT_2PI = 0.91893853320467274178


def _horner(x: float, coef, monic: bool = False) -> float:
    """cephes ``polevl`` (``p1evl`` with ``monic``): the polynomial with
    coefficients ``coef``, highest power first, in Horner's order."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _lgam(x: float) -> float:
    """ln Gamma(x) for one float x > 0, operation for operation as cephes."""
    if x < 13.0:
        # shift into [2, 3), carrying the product of the shifts in z
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _horner(x, _LGAM_B) / _horner(x, _LGAM_C, monic=True)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _horner(p, _LGAM_A) / x


def _log_gamma(x) -> np.ndarray:
    """ln Gamma elementwise over an array of floats > 0; bitwise equal to
    ``scipy.special.gammaln`` there."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(_lgam, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _rabi_trig(sqrt_d: np.ndarray, t: np.ndarray, sin_out: np.ndarray, cos_out=None) -> None:
    """sin(sqrt(D) t) into ``sin_out`` and, unless it is None, cos(sqrt(D) t)
    into ``cos_out``: tables with the axes of ``t`` in front of the columns."""
    np.multiply(t[..., None], sqrt_d, out=sin_out)
    if cos_out is not None:
        np.cos(sin_out, out=cos_out)
    np.sin(sin_out, out=sin_out)


def _rabi_sin_sq(sin_t: np.ndarray, d: np.ndarray, t: np.ndarray, out: np.ndarray):
    """sin^2(sqrt(D) t)/D from the sin table of :func:`_rabi_trig` into ``out``,
    which may be ``sin_t``, with its limit t^2 where D = 0."""
    zero = d == 0.0
    np.multiply(sin_t, sin_t, out=out)
    out /= np.where(zero, 1.0, d)
    if zero.any():
        out[..., zero] = (t * t)[..., None]
    return out


def _rabi_amplitudes(sin_t, cos_t, sqrt_d, t, half_delta: float, a_out: np.ndarray):
    """(A, B) from the tables of :func:`_rabi_trig`: B = sin(sqrt(D) t)/sqrt(D)
    in place of ``sin_t``, with its limit t where D = 0 (a structurally zero
    eigenvalue), and A = cos(sqrt(D) t) - i (delta/2) B into ``a_out``."""
    zero = sqrt_d == 0.0
    sin_t /= np.where(zero, 1.0, sqrt_d)
    if zero.any():
        sin_t[..., zero] = t[..., None]
    np.multiply(1j * half_delta, sin_t, out=a_out)
    np.subtract(cos_t, a_out, out=a_out)
    return a_out, sin_t


def _require_drive(params: ModelParams) -> None:
    if params.g <= 0:
        raise LimitError("g", "period formulas require g > 0")


def _period(params: ModelParams, name: str, formula) -> float:
    """``formula()``, a period: ``LimitError("alpha")`` where a power of |alpha|
    in it underflows to 0 (a period of 0, or a division by 0) or it passes the
    float range (a Python float ** raises instead of giving inf)."""
    try:
        period = formula()
    except (OverflowError, ZeroDivisionError):
        period = math.inf
    if not 0.0 < period < math.inf:
        raise LimitError("alpha", f"{name} is past the float range at alpha = {params.alpha}, "
                                  f"l = {params.l}, g = {params.g}")
    return period


def tau1(params: ModelParams) -> float:
    """Fast Rabi period pi/(g |alpha|) of the single-photon model."""
    _require_drive(params)
    if params.alpha == 0:
        raise LimitError("alpha", "tau1 is undefined for alpha = 0")
    return _period(params, "tau1", lambda: math.pi / (params.g * abs(params.alpha)))


def t0_period(params: ModelParams) -> float:
    """Zero-temperature revival period 2 pi / (g l |alpha|^(l-2)).

    The thermal period below at theta = 0.
    """
    return t0_prime_period(params, bogoliubov_angles(math.inf, params.omega, params.omega0))


def t0_prime_period(params: ModelParams, thermal: ThermalParams) -> float:
    """Thermally corrected revival period.

    Replaces |alpha|^2 in the zero-temperature formula by the thermal mean
    photon number expanded to second order in the Bogoliubov angle:
    |alpha|^2 [1 + 2 theta + 2 theta^2] + theta^2.  Independent of both
    |alpha| and theta when l = 2.
    """
    _require_drive(params)
    th = thermal.theta
    mean = params.abs_alpha_sq * (1.0 + 2.0 * th + 2.0 * th * th) + th * th
    if mean == 0 and params.l != 2:
        raise LimitError("alpha", "revival period is undefined for alpha = 0 unless l = 2")
    return _period(params, "the revival period", lambda: (
        (2.0 * math.pi / (params.g * params.l)) * mean ** (1.0 - params.l / 2.0)))


def rabi_period(params: ModelParams) -> float:
    """Period of the fast oscillation of P_e at mean photon number |alpha|^2.

    pi / (g |alpha|^l), the period of the dominant sin^2 term; coincides with
    tau1 for the single-photon model, and approximates the spacing of the
    P_e maxima near a revival.  Used as the envelope window and sampling
    scale in period extraction.
    """
    _require_drive(params)
    if params.alpha == 0:
        raise LimitError("alpha", "rabi_period is undefined for alpha = 0")
    return _period(params, "the Rabi period",
                   lambda: math.pi / (params.g * abs(params.alpha) ** params.l))
