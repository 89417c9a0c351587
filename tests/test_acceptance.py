"""Acceptance criteria, one test per criterion, pinned tolerances.

Each test prints a single PASS/FAIL line with the measured numbers so the
suite doubles as a report:

    pytest tests/test_acceptance.py -s
"""

import math

import numpy as np
import pytest
from scipy.signal import find_peaks

from thermaljcm import oracle
from thermaljcm.analysis import (
    NoRevivalError,
    SAMPLES_PER_CYCLE,
    TimeSeries,
    approx_cos_sum,
    extract_revival_period,
    period_vs_temperature_sweep,
)
from thermaljcm.coherence import coherence_values, project_values
from thermaljcm.model import (
    ModelParams,
    bogoliubov_angles,
    rabi_period,
    t0_period,
    tau1,
    thermal_from_inv_beta,
)
from thermaljcm.oracle import FockTruncation
from thermaljcm.perturbation import TruncationPolicy, series_tables
from thermaljcm.validation import theta_for_angle
from reference import direct_d_prime, osc_pair

SWEEP_TEMPS = (0.0, 0.04, 0.08, 0.12, 0.16)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")


def make_params(l, alpha, g=1.0):
    return ModelParams(l=l, g=g, omega0=1.0, omega=1.0, alpha=alpha)


def coherence_curve(params, thermal, t, trunc):
    tables = series_tables(t, params, trunc)
    pe = tables.pe(thermal)
    rho01 = tables.rho01(thermal)
    p00, z, _ = project_values(pe, np.abs(rho01))
    return coherence_values(np.atleast_1d(p00), np.atleast_1d(z))


def test_criterion_1_period_formulas():
    """Closed-form revival periods reproduce the figure captions to 0.5%."""
    expected = {1: (6.0, 37.70), 2: (7.0, 3.142), 3: (7.0, 0.2992), 4: (8.0, 0.02454)}
    worst = 0.0
    for l, (alpha, target) in expected.items():
        value = t0_period(make_params(l, alpha))
        worst = max(worst, abs(value - target) / target)
    ok = worst < 0.005
    report("criterion 1 (period formulas)", ok, f"max relative error {worst:.2e}")
    assert ok


def test_criterion_2_small_amplitude_suppression():
    """alpha = 0.2: excitation stays below the quoted bounds; no revival."""
    bounds = {2: 8.0e-4, 3: 5.0e-5, 4: 5.0e-5}
    trunc = TruncationPolicy(80)
    t = np.arange(0.0, 100.0 + 0.02, 0.02)
    peaks = {}
    ok = True
    for l, bound in bounds.items():
        params = make_params(l, 0.2)
        thermal = thermal_from_inv_beta(0.1, params)
        peaks[l] = float(np.max(series_tables(t, params, trunc, coherence=False).pe(thermal)))
        ok &= peaks[l] < bound
    params1 = make_params(1, 0.2)
    thermal1 = thermal_from_inv_beta(0.1, params1)
    pe1 = series_tables(t, params1, trunc, coherence=False).pe(thermal1)
    try:
        extract_revival_period(TimeSeries(0.0, 0.02, pe1), params1, thermal1)
        no_revival = False
    except NoRevivalError:
        no_revival = True
    ok &= no_revival
    report("criterion 2 (small-amplitude suppression)", ok,
           f"max P_e l=2: {peaks[2]:.2e} (<8e-4), l=3: {peaks[3]:.2e}, "
           f"l=4: {peaks[4]:.2e} (<5e-5); l=1 no-revival: {no_revival}")
    assert ok


def test_criterion_3_small_amplitude_coherence():
    """alpha = 0.2 coherence bounds, and the l = 1 oscillation period ~ pi."""
    bounds = {1: 0.2, 2: 6.0e-3, 3: 1.2e-4, 4: 1.8e-6}
    trunc = TruncationPolicy(80)
    dt = 0.02
    t = np.arange(0.0, 100.0 + dt, dt)
    ok = True
    peaks = {}
    period = math.nan
    for l, bound in bounds.items():
        params = make_params(l, 0.2)
        thermal = thermal_from_inv_beta(0.1, params)
        curve = coherence_curve(params, thermal, t, trunc)
        peaks[l] = float(curve.max())
        ok &= peaks[l] < bound
        if l == 1:
            idx, _ = find_peaks(curve, height=0.5 * peaks[l])
            period = float(np.median(np.diff(t[idx])))
            ok &= abs(period - math.pi) < 0.1
    report("criterion 3 (small-amplitude coherence)", ok,
           f"max C: l=1 {peaks[1]:.3f} (<0.2, period {period:.3f} ~ pi), "
           f"l=2 {peaks[2]:.2e} (<6e-3), l=3 {peaks[3]:.2e} (<1.2e-4), "
           f"l=4 {peaks[4]:.2e} (<1.8e-6)")
    assert ok


def test_criterion_4_two_photon_thermal_flatness():
    """l = 2, alpha = 12: extracted period is 3.142 within tau1 at every
    temperature of the sweep."""
    params = make_params(2, 12.0)
    rows = period_vs_temperature_sweep(params, SWEEP_TEMPS, TruncationPolicy(250))
    tol = tau1(params)
    devs = [abs(row.period - 3.142) for row in rows]
    ok = all(row.period is not None and dev <= tol and row.physical
             for row, dev in zip(rows, devs))
    report("criterion 4 (two-photon thermal flatness)", ok,
           f"max |period - 3.142| = {max(devs):.2e} (tol {tol:.4f})")
    assert ok


def _measured_comb_spacing(params, inv_beta, center, trunc, dt):
    """Local peak spacing of the fast oscillation at the extracted revival.

    Measured over a few peak spacings only; farther out the comb chirps.
    """
    thermal = thermal_from_inv_beta(inv_beta, params)
    width = 3.0 * rabi_period(params)
    t = np.arange(center - width, center + width, dt)
    pe = series_tables(t, params, trunc, coherence=False).pe(thermal)
    idx, _ = find_peaks(pe)
    return float(np.median(np.diff(t[idx])))


@pytest.mark.parametrize("l", [1, 3, 4])
def test_criterion_5_period_staircase(l):
    """l in {1, 3, 4}, alpha = 12: the extracted period tracks the thermal
    prior within 2 tau1, and successive values step by integer multiples of
    the revival-comb spacing measured from the data (which equals tau1 at
    zero temperature for l = 1, up to thermal compression)."""
    params = make_params(l, 12.0)
    trunc = TruncationPolicy(250)
    dt = rabi_period(params) / SAMPLES_PER_CYCLE
    rows = period_vs_temperature_sweep(params, SWEEP_TEMPS, trunc)
    tol = 2.0 * tau1(params)
    ok = all(row.period is not None for row in rows)
    max_dev = max(abs(row.period - row.t0_prime) for row in rows)
    ok &= max_dev <= tol

    spacings = [_measured_comb_spacing(params, row.inv_beta, row.period, trunc, dt)
                for row in rows]
    if l == 1:
        ok &= abs(spacings[0] - tau1(params)) <= dt
    max_resid = 0.0
    for i in range(1, len(rows)):
        step = rows[i].period - rows[i - 1].period
        q = 0.5 * (spacings[i] + spacings[i - 1])
        resid = abs(step - round(step / q) * q)
        max_resid = max(max_resid, resid)
    ok &= max_resid <= 3.0 * dt
    report(f"criterion 5 (staircase, l={l})", ok,
           f"max |period - prior| = {max_dev:.3f} (tol {tol:.3f}); "
           f"cold comb spacing {spacings[0]:.6g}; "
           f"max step residual {max_resid:.2e} (tol {3*dt:.2e})")
    assert ok


def test_criterion_6_coherence_thermal_robustness():
    """l = 2, alpha = 12: the coherence envelope at the revivals moves < 10%
    across temperatures; l = 1 decays below 60% of its early maximum."""
    trunc = TruncationPolicy(250)
    params2 = make_params(2, 12.0)
    T0 = t0_period(params2)
    fast = rabi_period(params2)
    spreads = []
    for k in (1, 2, 3):
        window = np.arange(k * T0 - 1.5 * fast, k * T0 + 1.5 * fast, fast / 30.0)
        values = [float(coherence_curve(params2, thermal_from_inv_beta(ib, params2),
                                        window, trunc).max())
                  for ib in SWEEP_TEMPS]
        spreads.append((max(values) - min(values)) / max(values))
    ok = max(spreads) < 0.10

    params1 = make_params(1, 12.0)
    cold = thermal_from_inv_beta(0.0, params1)
    T01 = t0_period(params1)
    early_t = np.arange(0.0, 0.5 * T01, tau1(params1) / 20.0)
    early_max = float(coherence_curve(params1, cold, early_t, trunc).max())
    late_t = np.arange(3.0 * T01 - 2.0, 3.0 * T01 + 2.0, tau1(params1) / 20.0)
    late = float(coherence_curve(params1, cold, late_t, trunc).max())
    ratio = late / early_max
    ok &= ratio < 0.6
    report("criterion 6 (coherence thermal robustness)", ok,
           f"l=2 envelope spread at k*T0: {[f'{s:.3f}' for s in spreads]} (<0.10); "
           f"l=1 late/early = {ratio:.3f} (<0.6)")
    assert ok


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("t", [0.5, 1.0])
def test_criterion_7_cubic_residual_scaling(l, t):
    """Residual of the second-order series against the exact solver scales as
    the cube of the Bogoliubov angle: log-log slope 3.0 +- 0.3."""
    params = make_params(l, 2.0)
    trunc = TruncationPolicy.adaptive(params)
    thetas = np.geomspace(0.02, 0.2, 7)
    ftrunc = FockTruncation.auto(params, theta_for_angle(0.2, 1.0, 1.0))
    tables = series_tables([t], params, trunc)
    pe_res, rho_res = [], []
    for theta in thetas:
        thermal = theta_for_angle(float(theta), 1.0, 1.0)
        state = oracle.propagate(
            oracle.build_initial_state(params, thermal, ftrunc), t, params)
        rho00, rho01 = oracle.reduce_atom(state)
        pe_res.append(abs(tables.pe(thermal)[0] - rho00))
        rho_res.append(abs(abs(tables.rho01(thermal)[0]) - abs(rho01)))
    slope_pe = float(np.polyfit(np.log(thetas), np.log(pe_res), 1)[0])
    slope_rho = float(np.polyfit(np.log(thetas), np.log(rho_res), 1)[0])
    ok = 2.7 <= slope_pe <= 3.3 and 2.7 <= slope_rho <= 3.3
    report(f"criterion 7 (cubic residual, l={l}, t={t})", ok,
           f"slope P_e = {slope_pe:.2f}, slope |rho01| = {slope_rho:.2f} (3.0 +- 0.3)")
    assert ok


def test_criterion_8_structural_identities():
    """t = 0 telescoping, eigenvalue index shift, block unitarity, thermal
    reduced states, mean photon number."""
    details = []
    ok = True

    # t = 0 telescoping at several temperatures and models
    worst_pe, worst_rho = 0.0, 0.0
    for l, alpha in ((1, 12.0), (2, 2.5), (3, 7.0)):
        params = make_params(l, alpha)
        tables = series_tables([0.0], params, TruncationPolicy(250))
        for inv_beta in (0.0, 0.1, 0.2):
            thermal = thermal_from_inv_beta(inv_beta, params)
            worst_pe = max(worst_pe, abs(tables.pe(thermal)[0] - thermal.sin_atom**2))
            worst_rho = max(worst_rho, abs(tables.rho01(thermal)[0]))
    ok &= worst_pe < 1e-12 and worst_rho < 1e-12
    details.append(f"t=0: pe {worst_pe:.1e}, rho01 {worst_rho:.1e} (<1e-12)")

    # index-shift identity of the eigenvalue tables
    from thermaljcm.model import EigenvalueTable
    params = make_params(3, 7.0)
    table = EigenvalueTable(params, 120)
    shift_ok = bool(np.array_equal(direct_d_prime(params, 120)[0][3:], table.d[:118]))
    ok &= shift_ok
    details.append(f"D'_{{n+l}} = D_n: {shift_ok}")

    # blockwise unitarity via the propagator elements:
    # |A'(n+l)|^2 + g^2 prod_{k=1..l}(n+k) B'(n+l)^2 = 1
    worst_u = 0.0
    params = make_params(2, 3.0, g=0.9)
    d_prime, sqrt_d_prime = direct_d_prime(params, 50 + params.l)
    prod = np.prod(np.arange(51)[:, None] + np.arange(1, params.l + 1)[None, :], axis=1)
    for t in (0.1, 1.0, 10.0):
        ap, bp = osc_pair(sqrt_d_prime, d_prime, t, params.delta / 2.0)
        ap, bp = ap[params.l :], bp[params.l :]
        worst_u = max(worst_u, float(np.max(np.abs(np.abs(ap) ** 2
                                                     + params.g**2 * prod * bp**2 - 1))))
    ok &= worst_u < 1e-12
    details.append(f"unitarity {worst_u:.1e} (<1e-12)")

    # Bose-Einstein reduced state of the squeezed vacuum
    theta = 0.3
    trunc_f = FockTruncation(50)
    dist = oracle.two_mode_squeezed_vacuum(theta, trunc_f) ** 2
    ratio = math.tanh(theta) ** 2
    be_err = float(np.max(np.abs(dist[:25] - (1 - ratio) * ratio ** np.arange(25))))
    ok &= be_err < 1e-8
    details.append(f"Bose-Einstein {be_err:.1e} (<1e-8)")

    # Fermi-Dirac weights of the initial state (exact)
    params = make_params(1, 1.0)
    thermal = thermal_from_inv_beta(0.25, params)
    state = oracle.build_initial_state(params, thermal,
                                       FockTruncation.auto(params, thermal))
    boltz = math.exp(-thermal.beta)
    fd_err = max(abs(float(np.sum(np.abs(state.amp[1]) ** 2)) - boltz / (1 + boltz)),
                 abs(float(np.sum(np.abs(state.amp[0]) ** 2)) - 1 / (1 + boltz)))
    ok &= fd_err < 1e-12
    details.append(f"Fermi-Dirac {fd_err:.1e} (<1e-12)")

    # thermal coherent state mean photon number
    phi = oracle.thermal_coherent_state(2.0, 0.2, FockTruncation(60))
    nbar = float(np.sum(np.arange(60)[:, None] * np.abs(phi) ** 2))
    nbar_err = abs(nbar - (4.0 * math.exp(0.4) + math.sinh(0.2) ** 2))
    ok &= nbar_err < 1e-6
    details.append(f"mean photon {nbar_err:.1e} (<1e-6)")

    report("criterion 8 (structural identities)", ok, "; ".join(details))
    assert ok


def test_criterion_9_cosine_sum_approximation():
    """Closed-form cosine sum: exact at t = 0 (to rounding), and the maximum
    deviation over g t in [0, 1/(2 alpha)] shrinks monotonically in alpha."""
    devs = []
    t0_devs = []
    for alpha in (4.0, 8.0, 16.0):
        t = np.linspace(0.0, 1.0 / (2.0 * alpha), 400)
        lhs, rhs = approx_cos_sum(alpha, 1, 1.0, t)
        t0_devs.append(abs(lhs[0] - rhs[0]))
        devs.append(float(np.max(np.abs(lhs - rhs))))
    ok = max(t0_devs) < 1e-10 and devs[0] > devs[1] > devs[2]
    report("criterion 9 (cosine-sum approximation)", ok,
           f"t=0 dev {max(t0_devs):.1e} (<1e-10); max devs "
           f"{devs[0]:.2e} > {devs[1]:.2e} > {devs[2]:.2e}")
    assert ok


def test_criterion_10_coupling_rescaling():
    """Rescaling the coupling with co-scaled frequencies and temperature is an
    exact change of time units: samples agree to 1e-12."""
    params = make_params(2, 7.0)
    beta = 10.0
    thermal = bogoliubov_angles(beta, params.omega, params.omega0)
    t = np.linspace(0.0, 5.0, 500)
    trunc = TruncationPolicy(110)
    base = series_tables(t, params, trunc, coherence=False).pe(thermal)
    worst = 0.0
    for c in (0.1, 10.0):
        scaled_params = ModelParams(l=2, g=c, omega0=c, omega=c, alpha=7.0)
        scaled_thermal = bogoliubov_angles(beta / c, scaled_params.omega,
                                           scaled_params.omega0)
        scaled = series_tables(t / c, scaled_params, trunc, coherence=False).pe(scaled_thermal)
        worst = max(worst, float(np.max(np.abs(base - scaled))))
    ok = worst < 1e-12
    report("criterion 10 (coupling rescaling)", ok,
           f"max sample difference {worst:.2e} (<1e-12)")
    assert ok
