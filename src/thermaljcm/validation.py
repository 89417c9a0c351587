"""Cross-validation of the perturbation series against the exact solver.

Every check compares two independent routes to the same quantity: the
closed-form series on one side, direct Fock-basis linear algebra in the
doubled space on the other.  The residual of the second-order series against
the exact solver must shrink like the cube of the Bogoliubov angle; the
twelve coherence series are checked one by one against operator expectations
evaluated with explicit truncated matrices.

Every truncation the suite uses is sized, and every table it builds passes
its engine's check on the suite's times, before anything is built, so a
parameter set it cannot run raises :class:`~thermaljcm.model.LimitError`
with nothing allocated: ``"l"`` for an exact-solver cutoff past the limit
at any amplitude, ``"alpha"`` for one past it at this one, else the check's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import oracle, perturbation
from .model import (
    LimitError,
    ModelParams,
    ThermalParams,
    bogoliubov_angles,
    thermal_from_inv_beta,
    thermal_mean_photon,
)
from .oracle import FockTruncation
from .perturbation import SeriesTables, TruncationPolicy

__all__ = ["run_validation_suite", "theta_for_angle"]

#: acceptable log-log slope range for the order-cubed residual
SLOPE_BOUNDS = (2.7, 3.3)

#: angle grid for the residual-scaling fits
THETA_GRID = np.geomspace(0.02, 0.2, 7)

#: times of the scaling fits; the coherence series are checked at the last
T_VALUES = (0.5, 1.0)

#: grids of the zero-temperature degeneracy, unitarity and complex-alpha checks
DEGENERACY_T, UNITARITY_T, COMPLEX_T = np.linspace(0.0, 3.0, 100), np.array([0.5, 5.0, 50.0]), 0.9

#: residuals below this are indistinguishable from truncation noise and are
#: excluded from the scaling fit
RESIDUAL_FLOOR = 1e-12


def theta_for_angle(theta: float, omega: float, omega0: float) -> ThermalParams:
    """ThermalParams with a prescribed bosonic angle.

    Inverts sinh(theta) = [e^(beta omega) - 1]^(-1/2) for beta so the
    fermionic angle stays consistent with the same temperature.
    """
    if theta == 0:
        return bogoliubov_angles(math.inf, omega, omega0)
    beta = math.log1p(1.0 / math.sinh(theta) ** 2) / omega
    return bogoliubov_angles(beta, omega, omega0)


@dataclass(frozen=True)
class SuiteCutoffs:
    """A parameter set of the suite with every truncation it uses.

    ``warm`` is the automatic exact-solver cutoff at the largest angle of
    ``THETA_GRID`` (the scaling fits and the thermal-state laws), ``cold``
    the one at zero temperature (the degeneracy check), ``tilde`` is
    ``cold`` plus 10 levels (the operator expectations of the coherence
    series) and ``series`` the adaptive series truncation.
    """

    params: ModelParams
    warm: FockTruncation
    cold: FockTruncation
    tilde: FockTruncation
    series: TruncationPolicy

    @classmethod
    def size(cls, params: ModelParams) -> "SuiteCutoffs":
        """Raises ``LimitError("n_fock")`` where a cutoff is past the float
        range or the limit of :class:`FockTruncation`.  The series truncation
        is sized last: the exact solver's cutoffs bound its ``|alpha|^2``."""
        warm = FockTruncation.auto(params, theta_for_angle(float(THETA_GRID[-1]),
                                                           params.omega, params.omega0))
        cold = FockTruncation.auto(params)
        return cls(params=params, warm=warm, cold=cold,
                   tilde=FockTruncation(cold.n_fock + 10),
                   series=TruncationPolicy.adaptive(params))


def _fit_slope(theta: np.ndarray, residual: np.ndarray):
    mask = residual > RESIDUAL_FLOOR
    if mask.sum() < 3:
        return None
    coeffs = np.polyfit(np.log(theta[mask]), np.log(residual[mask]), 1)
    return float(coeffs[0])


def _angle_residuals(cut: SuiteCutoffs, tables: SeriesTables,
                     init: oracle.DoubledFockState, thermal: ThermalParams) -> list:
    """Residuals (pe, |rho01|, complex rho01) at one angle, one row per time
    of ``T_VALUES``, from the angle's initial state ``init``."""
    pe, series = tables.pe(thermal)[1:], tables.rho01(thermal)[1:]
    exact = [oracle.reduce_atom(oracle.propagate(init, t, cut.params)) for t in T_VALUES]
    # the full complex residual must stay cubic-small.  |rho01| is Python's
    # abs (libm hypot), which numpy's complex abs differs from in the last
    # bit for about a third of all values
    return [(abs(p - rho00), abs(abs(s) - abs(rho01)), abs(s - rho01))
            for p, s, (rho00, rho01) in zip(pe, series, exact)]


def _check_theta_scaling(cut: SuiteCutoffs, tables: SeriesTables):
    """Columns 1.. of ``tables`` hold the series at ``T_VALUES``.  Returns the
    checks and the largest angle's initial state."""
    params = cut.params
    rows = []
    for th in THETA_GRID:
        init = None  # one doubled state at a time: drop the last before building the next
        thermal = theta_for_angle(float(th), params.omega, params.omega0)
        init = oracle.build_initial_state(params, thermal, cut.warm)
        rows.append(_angle_residuals(cut, tables, init, thermal))
    # [angle, time, kind] -> [time, kind, angle]
    res = np.array(rows).transpose(1, 2, 0)
    checks = []
    for t, (pe_res, rho_res, complex_res) in zip(T_VALUES, res):
        for name, r in (("pe", pe_res), ("rho01", rho_res)):
            slope = _fit_slope(THETA_GRID, r)
            checks.append({
                "name": f"theta_scaling_{name}[l={params.l},t={t}]",
                "passed": slope is not None and SLOPE_BOUNDS[0] <= slope <= SLOPE_BOUNDS[1],
                "slope": slope,
                "max_residual": float(np.max(r)),
            })
        ratio = float(complex_res[0] / THETA_GRID[0] ** 3)
        # named for the conjugate the series once returned: the report's
        # pinned hash holds the name, and every value is the same bits
        checks.append({
            "name": f"rho01_conjugate_orientation[l={params.l},t={t}]",
            "passed": ratio < 100.0,
            "residual_over_theta3": ratio,
        })
    return checks, init


def _check_tilde_series(cut: SuiteCutoffs, t: float, tilde: np.ndarray) -> list[dict]:
    """``tilde`` holds the twelve coherence series at time t, shape (2, 6)."""
    params = cut.params
    n_fock = cut.tilde.n_fock
    tol = 1e-8
    u00, u01, u10, u11 = oracle.atom_block_matrices(t, params, n_fock)
    a = np.diag(np.sqrt(np.arange(1, n_fock, dtype=float)), 1).astype(complex)
    ad = a.T.conj()
    vec = oracle.coherent_state_vector(params.alpha, n_fock)

    def expect(op: np.ndarray) -> complex:
        return complex(vec.conj() @ (op @ vec))

    base = {1: u00.conj().T @ u10, 2: u01.conj().T @ u11}
    sandwiches = {
        0: lambda x: x,
        1: lambda x: a @ x,
        2: lambda x: x @ ad,
        3: lambda x: a @ a @ x,
        4: lambda x: x @ ad @ ad,
        5: lambda x: a @ x @ ad,
    }
    checks = []
    for j in (1, 2):
        for k in range(6):
            direct = expect(sandwiches[k](base[j]))
            err = abs(tilde[j - 1, k] - direct)
            checks.append({
                "name": f"tilde_series_vs_fock[j={j},k={k},l={params.l}]",
                "passed": bool(err < tol),
                "error": float(err),
                "tol": tol,
            })
    return checks


def _check_t0_identities(params: ModelParams, tables: SeriesTables) -> list[dict]:
    """Column 0 of ``tables`` holds the series at t = 0."""
    checks = []
    for inv_beta in (0.0, 0.05, 0.1, 0.2):
        thermal = thermal_from_inv_beta(inv_beta, params)
        err_pe = abs(tables.pe(thermal)[0] - thermal.sin_atom**2)
        err_rho = abs(tables.rho01(thermal)[0])
        checks.append({
            "name": f"t0_identities[l={params.l},1/beta={inv_beta}]",
            "passed": bool(err_pe < 1e-12 and err_rho < 1e-12),
            "pe_error": float(err_pe),
            "rho01_error": float(err_rho),
        })
    return checks


def _check_thermal_states(cut: SuiteCutoffs, state: oracle.DoubledFockState) -> list[dict]:
    """Thermal-state laws at the largest angle of ``THETA_GRID``, whose
    initial state is ``state``."""
    params, trunc = cut.params, cut.warm
    theta = float(THETA_GRID[-1])
    checks = []

    # reduced boson distribution of the squeezed vacuum follows the
    # geometric law with ratio tanh^2
    dist = oracle.two_mode_squeezed_vacuum(theta, trunc) ** 2
    ratio = math.tanh(theta) ** 2
    n_half = trunc.n_fock // 2
    expected = (1.0 - ratio) * ratio ** np.arange(n_half)
    err_be = float(np.max(np.abs(dist[:n_half] - expected)))
    checks.append({"name": "bose_einstein_reduced", "passed": err_be < 1e-8,
                   "max_error": err_be})

    # thermal coherent state mean photon number
    phi = oracle.thermal_coherent_state(params.alpha, theta, trunc)
    nbar = float(np.sum(np.arange(trunc.n_fock)[:, None] * np.abs(phi) ** 2))
    target = thermal_mean_photon(params, theta)
    err_n = abs(nbar - target)
    checks.append({"name": "thermal_coherent_mean_photon", "passed": err_n < 1e-6,
                   "error": float(err_n), "mean_photon": nbar})

    # analytic construction against the generator exponential on a small cutoff
    small = FockTruncation(n_fock=30, leak_tol=1e-6)
    alpha_small = params.alpha / max(abs(params.alpha), 1.0)
    direct = oracle.thermal_coherent_state(alpha_small, theta, small)
    via_gen = oracle.thermal_coherent_state_via_generator(alpha_small, theta, small)
    overlap = abs(np.vdot(via_gen, direct))
    checks.append({"name": "thermal_state_routes_overlap",
                   "passed": bool(overlap > 1.0 - 1e-8), "overlap": float(overlap)})

    # fermionic reduced weights follow the Fermi-Dirac law exactly
    thermal = theta_for_angle(theta, params.omega, params.omega0)
    w_excited = state.excited_population
    w_ground = float(np.sum(np.abs(state.amp[0]) ** 2))
    if math.isinf(thermal.beta):
        fd_e, fd_g = 0.0, 1.0
    else:
        boltz = math.exp(-thermal.beta * params.omega0)
        fd_g = 1.0 / (1.0 + boltz)
        fd_e = boltz / (1.0 + boltz)
    err_fd = max(abs(w_excited - fd_e), abs(w_ground - fd_g))
    checks.append({"name": "fermi_dirac_weights", "passed": err_fd < 1e-12,
                   "max_error": float(err_fd)})

    # unitarity of the closed-form propagation
    drift = max(abs(oracle.propagate(state, t, params).norm_sq - 1.0) for t in UNITARITY_T)
    checks.append({"name": "unitarity_drift", "passed": drift < trunc.leak_tol,
                   "max_drift": drift})
    return checks


def _check_zero_temperature_degeneracy(cut: SuiteCutoffs) -> dict:
    params = cut.params
    thermal = bogoliubov_angles(math.inf, params.omega, params.omega0)
    # the doubled-space route, independent of the reduced-state pe_curve
    init = oracle.build_initial_state(params, thermal, cut.cold)
    exact = np.array([oracle.propagate(init, t, params).excited_population
                      for t in DEGENERACY_T])
    series = perturbation.series_tables(DEGENERACY_T, params, cut.series, coherence=False,
                                        zero_temperature=thermal.zero_temperature).pe(thermal)
    err = float(np.max(np.abs(exact - series)))
    return {"name": f"zero_temperature_degeneracy[l={params.l}]",
            "passed": err < 1e-9, "max_error": err}


def _size(params: ModelParams) -> SuiteCutoffs:
    """The set's cutoffs, or a ``LimitError`` naming the input at fault: the
    cutoffs grow with l and the amplitude, and l is at fault when they are
    past the limit even at alpha = 0."""
    try:
        return SuiteCutoffs.size(params)
    except LimitError as exc:
        try:
            SuiteCutoffs.size(replace(params, alpha=0.0))
            param = "alpha"
        except LimitError:
            param = "l"
        raise LimitError(param, f"oracle cutoff: {exc}") from None


def run_validation_suite(params: ModelParams | None = None) -> dict:
    """Run every oracle-vs-series check and return a structured report.

    ``None`` runs the default sets, l = 1 and l = 2 at alpha = 2 and
    g = omega0 = omega = 1; a given parameter set replaces them.  A
    complex-amplitude companion of the last set follows.  The report is a
    dict with ``passed`` (overall) and a ``checks`` list of per-check
    records; callers decide how to render it.
    """
    models = (params,) if params is not None else tuple(
        ModelParams(l=l, g=1.0, omega0=1.0, omega=1.0, alpha=2.0) for l in (1, 2))
    # the complex amplitude exercises the conjugate-power structure of the series
    *suite, complex_cut = [_size(p) for p in (*models, replace(models[-1], alpha=1.1 + 0.6j))]
    for cut in suite:  # each table on its own times by its engine's check, before any is built
        cut.series.check(cut.params, (0.0, *T_VALUES), True)
        cut.series.check(cut.params, DEGENERACY_T)
        cut.cold.check(cut.params, DEGENERACY_T)
        cut.warm.check(cut.params, UNITARITY_T)  # and on T_VALUES, inside it
        cut.tilde.check(cut.params, T_VALUES[-1])
    complex_cut.series.check(complex_cut.params, COMPLEX_T, True)
    complex_cut.tilde.check(complex_cut.params, COMPLEX_T)
    checks: list[dict] = []
    for cut in suite:
        # one build serves the t = 0 identities, the scaling fits and the
        # coherence series; each time sample is reduced on its own
        tables = perturbation.series_tables([0.0, *T_VALUES], cut.params, cut.series)
        checks.extend(_check_t0_identities(cut.params, tables))
        scaling, warm_state = _check_theta_scaling(cut, tables)
        checks.extend(scaling)
        checks.extend(_check_tilde_series(cut, T_VALUES[-1], tables.tilde[:, :, -1]))
        checks.append(_check_zero_temperature_degeneracy(cut))
    checks.extend(_check_thermal_states(suite[-1], warm_state))
    ctables = perturbation.series_tables([COMPLEX_T], complex_cut.params, complex_cut.series)
    checks.extend(_check_tilde_series(complex_cut, COMPLEX_T, ctables.tilde[:, :, -1]))
    return {"passed": bool(all(c["passed"] for c in checks)), "checks": checks}
