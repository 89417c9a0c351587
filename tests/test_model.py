"""Model parameters, Bogoliubov angles, eigenvalue tables, period formulas."""

import math
import os

import numpy as np
import pytest

from thermaljcm import model
from thermaljcm.model import (
    EigenvalueTable,
    LimitError,
    ModelParams,
    _rabi_amplitudes,
    _rabi_trig,
    _require_drive,
    bogoliubov_angles,
    rabi_period,
    t0_period,
    t0_prime_period,
    tau1,
    thermal_from_inv_beta,
    thermal_mean_photon,
)
from reference import direct_d_prime, make_params, osc_pair


def interference_period(params: ModelParams, m: int) -> float:
    """Revival time from the constructive-interference condition at photon number m.

    Solves 2 g [m^(l/2) - (m-1)^(l/2)] T = 2 pi.  Exactly pi/g for l = 2,
    independent of m.
    """
    _require_drive(params)
    if m < 1:
        raise ValueError("photon number m must be >= 1")
    gap = float(m) ** (params.l / 2.0) - float(m - 1) ** (params.l / 2.0)
    return math.pi / (params.g * gap)


class TestDetuning:
    @pytest.mark.parametrize("omega0, omega, l, expected", [
        (1.0, 1.0, 2, 1.0),
        (1.0, 1.0, 1, 0.0),
        (1.0, 1.0, 4, 3.0),
    ])
    def test_figure_caption_values(self, omega0, omega, l, expected):
        assert make_params(l=l, omega0=omega0, omega=omega).delta == expected

    def test_always_recomputed(self):
        p = make_params(l=3, omega0=0.5, omega=2.0)
        assert p.delta == 3 * 2.0 - 0.5

    @pytest.mark.parametrize("kwargs", [
        {"l": 0}, {"g": -1.0}, {"omega0": 0.0}, {"omega": -2.0},
        # |alpha|^2 past the float range
        {"alpha": 1e200}, {"alpha": -1e200j}, {"alpha": complex(1e300, 1e300)},
        # (delta/2)^2 past the float range, and l * omega itself
        {"omega": 1e200}, {"omega0": 1e200}, {"l": 2, "omega": 1e308},
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_params(**kwargs)

    def test_params_frozen(self):
        p = make_params()
        with pytest.raises(AttributeError):
            p.g = 2.0


class TestBogoliubovAngles:
    def test_zero_temperature(self):
        th = bogoliubov_angles(math.inf, 1.0, 1.0)
        assert th.theta == 0.0
        assert th.sinh_theta == 0.0
        assert th.sin_atom == 0.0
        assert th.cosh_theta == 1.0
        assert th.cos_atom == 1.0

    def test_sinh_one_at_log_two(self):
        # e^(beta omega) - 1 = 1 analytically
        th = bogoliubov_angles(math.log(2.0), 1.0, 1.0)
        assert th.sinh_theta == pytest.approx(1.0, abs=1e-14)
        assert th.theta == pytest.approx(math.asinh(1.0), abs=1e-14)

    def test_high_temperature_symmetry(self):
        # beta omega0 -> 0 pushes the atomic weights to the symmetric point
        th = bogoliubov_angles(1e-10, 1.0, 1.0)
        assert th.cos_atom == pytest.approx(2**-0.5, abs=1e-9)
        assert th.sin_atom == pytest.approx(2**-0.5, abs=1e-9)

    @pytest.mark.parametrize("beta", [0.05, 0.5, 2.0, 10.0, 100.0])
    def test_hyperbolic_and_circular_identities(self, beta):
        th = bogoliubov_angles(beta, 1.0, 1.0)
        assert th.cosh_theta**2 - th.sinh_theta**2 == pytest.approx(1.0, abs=1e-12)
        assert th.cos_atom**2 + th.sin_atom**2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("omega, omega0", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_nonpositive_frequency_rejected(self, omega, omega0):
        with pytest.raises(ValueError, match="frequencies must be positive"):
            bogoliubov_angles(1.0, omega, omega0)

    @pytest.mark.parametrize("beta", [0.0, -1.0])
    def test_nonpositive_beta_rejected(self, beta):
        with pytest.raises(ValueError):
            bogoliubov_angles(beta, 1.0, 1.0)

    def test_thermal_from_inv_beta_zero_is_zero_temperature(self):
        th = thermal_from_inv_beta(0.0, make_params())
        assert math.isinf(th.beta)
        assert th.theta == 0.0

    def test_thermal_from_inv_beta_rejects_negative(self):
        with pytest.raises(ValueError):
            thermal_from_inv_beta(-0.1, make_params())

    def test_extreme_betas_stay_finite(self):
        hot = bogoliubov_angles(1e-12, 1.0, 1.0)
        cold = bogoliubov_angles(1e4, 1.0, 1.0)
        for th in (hot, cold):
            for value in (th.theta, th.cosh_theta, th.sinh_theta,
                          th.cos_atom, th.sin_atom):
                assert math.isfinite(value)
        assert cold.theta == 0.0  # e^(beta omega) overflows cleanly to zero angle

    @pytest.mark.parametrize("beta, omega", [(1e-200, 1e-200), (1e-300, 1e-300),
                                             (5e-309, 1e-16)])
    def test_beta_omega_that_underflows_is_refused(self, beta, omega):
        # cosh(theta) = 1/sqrt(1 - e^(-beta omega)) would divide by zero; a
        # subnormal beta omega (1e-320) still has finite angles
        with pytest.raises(LimitError, match="underflows") as exc:
            bogoliubov_angles(beta, omega, 1.0)
        assert exc.value.param == "inv_beta"
        th = bogoliubov_angles(1e-160, 1e-160, 1.0)
        assert math.isfinite(th.cosh_theta) and math.isfinite(th.theta)

    @pytest.mark.parametrize("beta, cold", [(math.inf, True), (1e4, True),
                                            (10.0, False), (1e-10, False)])
    def test_zero_temperature_means_the_angles_of_zero_temperature(self, beta, cold):
        # at beta = 1e4 every angle has rounded to its zero-temperature value
        assert bogoliubov_angles(beta, 1.0, 1.0).zero_temperature is cold

    @pytest.mark.parametrize("beta", [0.5, 2.0, 10.0])
    def test_thermal_mean_photon_of_the_vacuum_is_bose_einstein(self, beta):
        th = bogoliubov_angles(beta, 1.0, 1.0).theta
        assert thermal_mean_photon(make_params(alpha=0.0), th) == pytest.approx(
            1.0 / math.expm1(beta), rel=1e-12)

    @pytest.mark.parametrize("th", [0.0, 1e-3, 1e-2, 0.05])
    def test_thermal_mean_photon_to_second_order_is_the_t0_prime_mean(self, th):
        params = make_params(alpha=1.5 - 0.5j)
        second_order = params.abs_alpha_sq * (1.0 + 2.0 * th + 2.0 * th * th) + th * th
        assert abs(thermal_mean_photon(params, th) - second_order) <= (
            2.0 * params.abs_alpha_sq * th**3)


class TestEigenvalueTable:
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_explicit_products(self, l):
        p = make_params(l=l, omega0=1.0, omega=1.0, g=0.7)
        table = EigenvalueTable(p, 20)
        for m in (0, 1, 5, 20):
            prod = 1.0
            for k in range(1, l + 1):
                prod *= m + k
            assert table.prod[m] == prod == math.factorial(m + l) // math.factorial(m)
            assert table.d[m] == pytest.approx((p.delta / 2) ** 2 + p.g**2 * prod,
                                               rel=1e-15)

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_index_shift_identity(self, l):
        # D'_{n+l} = D_n from the operator ordering
        p = make_params(l=l, omega0=0.3, omega=1.1)
        table = EigenvalueTable(p, 60)
        np.testing.assert_array_equal(direct_d_prime(p, 60)[0][l:], table.d[: 61 - l])

    def test_monotone_and_bounded_below(self):
        p = make_params(l=3, omega0=2.0, omega=1.5)
        table = EigenvalueTable(p, 100)
        assert np.all(np.diff(table.d) > 0)
        assert np.all(table.d >= (p.delta / 2) ** 2)
        d_prime = direct_d_prime(p, 100)[0]
        assert np.all(d_prime >= (p.delta / 2) ** 2)
        assert np.all(d_prime[: p.l] == (p.delta / 2) ** 2)
        # the joined columns: (delta/2)^2 on the structural columns, then D
        assert table.shift == p.l
        np.testing.assert_array_equal(table.joined_d,
                                      np.concatenate([d_prime[: p.l], table.d]))

    def test_tables_are_read_only(self):
        table = EigenvalueTable(make_params(), 10)
        for arr in (table.prod, table.d, table.joined_d, table.sqrt_d, table.joined_sqrt_d):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("l, n_max, g", [(200, 20, 1.0), (171, 0, 1.0), (100, 2000, 1.0),
                                             (2, 10, 1e200), (200, 20, 0.0)])
    def test_overflowing_eigenvalues_raise(self, l, n_max, g):
        # g = 0 times an infinite product is nan, not a zero coupling
        with pytest.raises(ValueError, match="overflow"):
            EigenvalueTable(make_params(l=l, g=g), n_max)

    def test_largest_finite_factorial_passes(self):
        table = EigenvalueTable(make_params(l=170, omega=1.0 / 170), 0)
        assert table.d[0] == pytest.approx(math.factorial(170), rel=1e-12)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            EigenvalueTable(make_params(), -1)


def block_pairs(p, n_max, t):
    """(A, B) and (A', B') on photon indices 0..n_max through the closed form."""
    table = EigenvalueTable(p, n_max)
    half_delta = p.delta / 2.0
    d_prime, sqrt_d_prime = direct_d_prime(p, n_max)
    return (osc_pair(table.sqrt_d, table.d, t, half_delta),
            osc_pair(sqrt_d_prime, d_prime, t, half_delta))


class TestBlockAmplitudes:
    @pytest.mark.parametrize("n", [0, 3, 17])
    def test_identity_at_t_zero(self, n):
        (a, b), (ap, bp) = block_pairs(make_params(l=2, omega0=1.0, omega=1.0), n, 0.0)
        assert a[n] == 1.0 and ap[n] == 1.0
        assert b[n] == 0.0 and bp[n] == 0.0

    def test_degenerate_eigenvalue_limit(self):
        # delta = 0 and n <= l-1: the primed pair takes its limit values
        p = make_params(l=2, omega0=2.0, omega=1.0)
        assert p.delta == 0.0
        t = 0.83
        _, (ap, bp) = block_pairs(p, 1, t)
        assert ap[1] == 1.0
        assert bp[1] == t

    def test_resonant_single_photon_value(self):
        # D_0 = 1 at l = 1, g = 1, delta = 0
        p = make_params(l=1, omega0=1.0, omega=1.0, g=1.0)
        (a, b), _ = block_pairs(p, 0, math.pi / 2)
        assert abs(a[0] - math.cos(math.pi / 2)) < 1e-15
        assert b[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_blockwise_unitarity(self, t):
        # |A'(n+l)|^2 + g^2 prod_{k=1..l}(n+k) B'(n+l)^2 = 1
        p = make_params(l=2, omega0=1.0, omega=1.0, g=0.9, alpha=3.0)
        table = EigenvalueTable(p, 52 + p.l)
        _, (ap, bp) = block_pairs(p, 50 + p.l, t)
        for n in range(51):
            prod = float(np.prod(np.arange(1, p.l + 1) + n))
            assert abs(abs(ap[n + p.l]) ** 2 + p.g**2 * prod * bp[n + p.l] ** 2 - 1.0) < 1e-12
        assert direct_d_prime(p, p.l)[0][p.l] == table.d[0]


class TestRabiKernel:
    @pytest.mark.parametrize("t", [0.7, np.array([0.0, 0.3, 1.7, 12.5, 400.0])],
                             ids=["time", "grid"])
    @pytest.mark.parametrize("l, g, omega0", [(1, 1.0, 1.0), (2, 0.7, 2.0), (3, 0.8, 2.5),
                                              (2, 0.0, 2.0)])
    def test_equals_the_direct_formula_bitwise(self, l, g, omega0, t):
        # the joined columns, with the zero columns of D' at resonance and
        # every column zero at g = 0
        table = EigenvalueTable(make_params(l=l, g=g, omega0=omega0), 40)
        sqrt_d, half_delta = table.joined_sqrt_d, table.params.delta / 2.0
        t = np.asarray(t)
        sin_t, cos_t, sin_only = np.empty((3,) + t.shape + sqrt_d.shape)
        _rabi_trig(sqrt_d, t, sin_t, cos_t)
        _rabi_trig(sqrt_d, t, sin_only)
        assert sin_only.tobytes() == sin_t.tobytes()
        a_out = np.empty(sin_t.shape, dtype=complex)
        a, b = _rabi_amplitudes(sin_t, cos_t, sqrt_d, t, half_delta, a_out)
        assert a is a_out and b is sin_t  # in the caller's tables
        ref_a, ref_b = osc_pair(sqrt_d, table.joined_d, t[..., None], half_delta)
        assert a.tobytes() == ref_a.tobytes()
        assert b.tobytes() == ref_b.tobytes()


def test_usable_cpus_without_affinity_masks(monkeypatch):
    # a platform without sched_getaffinity counts every CPU
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert model._usable_cpus() == (os.cpu_count() or 1)


class TestPeriods:
    def test_tau1_quoted_value(self):
        assert tau1(make_params(alpha=12.0)) == pytest.approx(0.2618, abs=5e-5)

    def test_tau1_direct_and_scaling(self):
        assert tau1(make_params(alpha=6.0)) == pytest.approx(math.pi / 6, rel=1e-15)
        assert tau1(make_params(alpha=6.0, g=2.0)) == pytest.approx(math.pi / 12, rel=1e-15)

    def test_tau1_rejects_vacuum(self):
        with pytest.raises(ValueError):
            tau1(make_params(alpha=0.0))

    @pytest.mark.parametrize("l, alpha, expected", [
        (1, 6.0, 37.70),
        (2, 7.0, 3.142),
        (3, 7.0, 0.2992),
        (4, 8.0, 0.02454),
    ])
    def test_t0_figure_captions(self, l, alpha, expected):
        p = make_params(l=l, alpha=alpha)
        assert t0_period(p) == pytest.approx(expected, rel=5e-3)

    def test_t0_rejects_vacuum_except_two_photon(self):
        with pytest.raises(ValueError):
            t0_period(make_params(l=1, alpha=0.0))
        assert t0_period(make_params(l=2, alpha=0.0)) == pytest.approx(math.pi)

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_thermal_period_reduces_at_zero_temperature(self, l):
        p = make_params(l=l, alpha=7.0)
        cold = bogoliubov_angles(math.inf, 1.0, 1.0)
        assert t0_prime_period(p, cold) == t0_period(p)  # bitwise by construction

    @pytest.mark.parametrize("alpha, inv_beta", [(5.0, 0.1), (12.0, 0.16), (7.0, 0.02)])
    def test_two_photon_thermal_period_is_constant(self, alpha, inv_beta):
        p = make_params(l=2, alpha=alpha)
        th = thermal_from_inv_beta(inv_beta, p)
        assert t0_prime_period(p, th) == pytest.approx(math.pi, rel=1e-14)

    def test_thermal_period_example(self):
        # braces = 144 * 1.22 + 0.01 at theta = 0.1, then 2 pi sqrt(braces)
        p = make_params(l=1, alpha=12.0)

        class FakeThermal:
            theta = 0.1

        value = t0_prime_period(p, FakeThermal())
        assert value == pytest.approx(2 * math.pi * math.sqrt(144 * 1.22 + 0.01),
                                      rel=1e-12)
        assert value == pytest.approx(83.28, abs=5e-3)

    def test_thermal_mean_photon_expansion(self):
        # the braces are the second-order expansion of the exact thermal mean
        # photon number |alpha|^2 e^(2 theta) + sinh^2 theta
        aa = 144.0
        for theta in (0.02, 0.05, 0.1):
            braces = aa * (1 + 2 * theta + 2 * theta**2) + theta**2
            exact = aa * math.exp(2 * theta) + math.sinh(theta) ** 2
            assert abs(exact - braces) < 1.5 * (aa * 4 / 3 + 1) * theta**3

    def test_interference_period_two_photon_exact(self):
        p = make_params(l=2, g=0.7)
        values = {interference_period(p, m) for m in (1, 2, 10, 144)}
        assert values == {math.pi / 0.7}

    def test_interference_matches_revival_period(self):
        p = make_params(l=1, alpha=12.0)
        t_int = interference_period(p, 144)
        assert abs(t_int - t0_period(p)) / t0_period(p) < 0.005

    def test_interference_rejects_zero(self):
        with pytest.raises(ValueError):
            interference_period(make_params(), 0)

    def test_fast_scale_reduces_to_tau1_for_single_photon(self):
        p = make_params(l=1, alpha=12.0)
        assert rabi_period(p) == tau1(p)

    def test_vacuum_rejections(self):
        with pytest.raises(ValueError):
            rabi_period(make_params(alpha=0.0))
        with pytest.raises(ValueError):
            t0_prime_period(make_params(l=1, alpha=0.0),
                            bogoliubov_angles(math.inf, 1.0, 1.0))

    def test_driveless_rejections(self):
        p = make_params(g=0.0)
        for formula in (tau1, t0_period, rabi_period):
            with pytest.raises(ValueError):
                formula(p)

    @pytest.mark.parametrize("formula, params", [
        # |alpha|^4 underflows to 0: pi / 0.0 raised ZeroDivisionError
        (rabi_period, make_params(l=4, alpha=1e-160)),
        # g |alpha| underflows to 0
        (tau1, make_params(g=1e-200, alpha=1e-200)),
        # mean^-1 past the float range raised OverflowError; mean^-2 underflows
        (t0_period, make_params(l=4, alpha=1e-160)),
        (t0_period, make_params(l=6, alpha=1e100)),
    ])
    def test_periods_past_the_float_range_name_alpha(self, formula, params):
        with pytest.raises(LimitError, match="past the float range") as exc:
            formula(params)
        assert exc.value.param == "alpha"

    @pytest.mark.parametrize("params, param", [(make_params(l=1, alpha=0.0), "alpha"),
                                               (make_params(g=0.0), "g")])
    def test_undefined_periods_name_their_input(self, params, param):
        # the period formulas' domain is the model's rule: a caller maps the
        # LimitError to the input it names instead of repeating the check
        cold = bogoliubov_angles(math.inf, 1.0, 1.0)
        for call in (lambda: tau1(params), lambda: rabi_period(params),
                     lambda: t0_prime_period(params, cold)):
            with pytest.raises(LimitError) as exc:
                call()
            assert exc.value.param == param
