"""Tests for the pure-dephasing module.

Frozen expectations come from closed-form Ohmic integrals (s = 1 and s = 4
admit elementary antiderivatives), mpmath values of the general Ohmic closed
form, the full-integrand QUADPACK route kept in ``dephasing_oracle``, a
dense-Simpson thermal oracle, and explicit density-matrix algebra pushed
through the generic post-selection.
"""

import functools
import math
import os
import re
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.optimize import brentq

from zenotraj import dephasing, numerics
from zenotraj.core import (
    GaussianPeak,
    Lorentzian,
    Ohmic,
    QubitState,
    normalize,
    r_factor,
    trace_distance,
)
from zenotraj.dephasing import (
    DephasingParams,
    _bose_integrand,
    _capped_coth,
    _ohmic_split,
    dephasing_exponent,
    dephasing_exponent_series,
    modified_dephasing,
    postselected_state_deph,
    single_path_factor,
)
from zenotraj.errors import NumericError
from zenotraj.numerics import Series, TimeGrid

from custom_density import SmoothDensity
import dephasing_oracle
from dephasing_oracle import bose_integrand, oracle_exponent

ETA = 1.0 / 3.0


@pytest.fixture(scope="module")
def ohmic1():
    return DephasingParams(Ohmic(ETA, 1.0, 1.0), 0.0)


@pytest.fixture(scope="module")
def ohmic4():
    return DephasingParams(Ohmic(ETA, 4.0, 1.0), 0.0)


# ---------------------------------------------------------------------------
# dephasing exponent
# ---------------------------------------------------------------------------


class TestDephasingExponent:
    def test_zero_time(self, ohmic1):
        assert dephasing_exponent(ohmic1, 0.0) == 0.0

    def test_ohmic_s1_t0_closed_form(self, ohmic1):
        # int_0^inf e^{-w/wc}(1-cos wt)/w dw = (1/2) ln(1+wc^2 t^2), so
        # Gamma = 2*eta*ln(1+t^2); at t=1 that is (2/3) ln 2.
        g = dephasing_exponent(ohmic1, 1.0)
        assert g == pytest.approx((2.0 / 3.0) * np.log(2.0), abs=5e-15)
        assert g == pytest.approx(0.46209812037329684, abs=5e-15)

    def test_ohmic_s1_closed_form_verified_by_simpson(self, ohmic1):
        # independent dense-grid oracle for the same number
        j = ohmic1.j
        w = np.linspace(1e-12, j.omega_max, 1_000_001)
        oracle = simpson(4.0 * j(w) / w**2 * (1.0 - np.cos(w)), x=w)
        assert dephasing_exponent(ohmic1, 1.0) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("t", [0.5, 2.0, 4.0, 4.1, 10.0, 100.0])
    def test_both_quadrature_routes_match_analytic(self, ohmic1, t):
        # at T = 0, t <= 4.02 takes the Ohmic closed form, larger t the
        # Gauss-Legendre half-period panels; both must sit on the curve
        exact = 2.0 * ETA * np.log(1.0 + t * t)
        assert dephasing_exponent(ohmic1, t) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("t", [0.5, 3.0, 20.0, 200.0])
    def test_ohmic_s4_closed_form(self, ohmic4, t):
        # J = eta w^4 wc^{-3} e^{-w/wc}: Gamma = 8 eta [1-(1-3t^2)/(1+t^2)^3]
        exact = 8.0 * ETA * (1.0 - (1.0 - 3.0 * t * t) / (1.0 + t * t) ** 3)
        assert dephasing_exponent(ohmic4, t) == pytest.approx(exact, rel=1e-12)

    def test_coherence_trapping_s4(self, ohmic4):
        # Gamma saturates at 8*eta = 8/3: phi plateaus at e^{-8/3} and the
        # entire final decade of a long run moves by < 1e-4
        ts = np.geomspace(20.0, 200.0, 12)
        phi = np.exp(-np.array([dephasing_exponent(ohmic4, t) for t in ts]))
        assert phi.max() - phi.min() < 1e-4
        assert phi[-1] == pytest.approx(np.exp(-8.0 / 3.0), rel=1e-6)
        assert np.exp(-8.0 / 3.0) == pytest.approx(0.06948345122280154, abs=1e-16)

    def test_thermal_exponent_against_simpson(self):
        params = DephasingParams(Ohmic(ETA, 1.0, 1.0), 0.5)
        g = dephasing_exponent(params, 2.0)
        j = params.j
        w = np.linspace(1e-9, j.omega_max, 4_000_001)
        coth = 1.0 + 2.0 / np.expm1(w / 0.5)
        oracle = simpson(4.0 * j(w) / w**2 * coth * (1.0 - np.cos(2.0 * w)), x=w)
        # the Simpson oracle itself is the accuracy bottleneck here
        assert g == pytest.approx(oracle, abs=5e-5)
        # frozen quadrature value
        assert g == pytest.approx(2.1941229573880814, abs=1e-9)

    def test_temperature_monotonicity(self):
        j = Ohmic(ETA, 1.0, 1.0)
        for t in (0.5, 1.5, 4.0):
            gammas = [
                dephasing_exponent(DephasingParams(j, T), t)
                for T in (0.0, 0.2, 0.5, 1.0, 2.0)
            ]
            assert np.all(np.diff(gammas) > 0)

    def test_coth_saturates_without_overflow(self):
        # at T = 1/2, coth(w/2T) = coth(w)
        w = np.array([350.0, 354.0, 1e6, np.inf])
        with np.errstate(all="raise"):
            assert np.all(_capped_coth(0.5, w) == 1.0)
            assert _capped_coth(0.5, np.array([1e-3]))[0] == pytest.approx(
                1.0 / np.tanh(1e-3), rel=1e-12)

    def test_sub_ohmic_finite_temperature_raises(self):
        with pytest.raises(NumericError, match="infrared-divergent"):
            DephasingParams(Ohmic(1.0, 0.5, 1.0), 0.3)

    @pytest.mark.parametrize("j", [GaussianPeak(2.0, 0.5), Lorentzian(1.0, 0.5, 20.0)],
                             ids=["gaussian", "lorentzian"])
    def test_finite_temperature_with_spectral_weight_at_zero_raises(self, j):
        # the T > 0 integrand behaves like 4 J(0) t^2 T / w near w = 0; the
        # panels returned Gamma(50) = 7.95 for this GaussianPeak at T = 0.3
        assert j(0.0) > 0
        with pytest.raises(NumericError, match="infrared-divergent"):
            DephasingParams(j, 0.3)
        assert dephasing_exponent(DephasingParams(j, 0.0), 1.0) > 0

    def test_finite_temperature_with_j_vanishing_at_zero_is_accepted(self):
        # J(0) underflows to exactly 0 for this line
        j = GaussianPeak(4.0, 0.02)
        assert j(0.0) == 0.0
        assert dephasing_exponent(DephasingParams(j, 0.3), 1.0) > 0
        # same density at T = 0 is infrared-safe
        g = dephasing_exponent(DephasingParams(Ohmic(1.0, 0.5, 1.0), 0.0), 1.0)
        assert np.isfinite(g) and g > 0

    def test_custom_density_on_the_quadpack_route(self):
        # omega_max * t = 31.5: adaptive quadrature split at ten half-periods
        t = 31.5 / CUSTOM.omega_max
        g = dephasing_exponent(DephasingParams(CUSTOM, 0.0), t)
        assert g == pytest.approx(_custom_reference(t), rel=1e-14)

    @pytest.mark.parametrize("phase", [250.0, 400.0])
    def test_custom_density_on_the_panels(self, phase):
        # past omega_max t = 64 pi: Gauss-Legendre panels on the half-periods
        t = phase / CUSTOM.omega_max
        g = dephasing_exponent(DephasingParams(CUSTOM, 0.0), t)
        assert g == pytest.approx(_custom_reference(t), rel=1e-14)

    def test_negative_time_and_temperature_rejected(self, ohmic1):
        with pytest.raises(ValueError):
            dephasing_exponent(ohmic1, -0.1)
        with pytest.raises(ValueError):
            DephasingParams(Ohmic(1.0, 1.0, 1.0), -0.5)


CUSTOM = SmoothDensity(eta=2.0, omega_c=2.0)


def _custom_reference(t):
    """mpmath T = 0 exponent of ``CUSTOM``, split at the half-periods."""
    with mpmath.workdps(25):
        eta, omega_c, t = (mpmath.mpf(x) for x in (CUSTOM.eta, CUSTOM.omega_c, t))

        def h(x):
            return 4 * eta / (1 + x * x) * mpmath.exp(-x / omega_c) * (1 - mpmath.cos(x * t))

        upper = mpmath.mpf(CUSTOM.omega_max)
        n_half = int(upper * t / mpmath.pi)
        edges = [0] + [mpmath.pi * k / t for k in range(1, n_half + 1)] + [upper]
        return float(mpmath.quad(h, edges))


def _mpmath_closed_form(eta, s, u):
    """4 eta Gamma(s-1) [1 - Re(1 + iu)^{1-s}] at 40 digits; 2 eta ln(1+u^2) at s = 1."""
    with mpmath.workdps(40):
        s, u = mpmath.mpf(s), mpmath.mpf(u)
        if s == 1:
            return float(2 * eta * mpmath.log1p(u * u))
        return float(4 * eta * mpmath.gamma(s - 1) * (1 - mpmath.re((1 + 1j * u) ** (1 - s))))


class TestOhmicClosedForm:
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.8, 1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.5, 2.5, 4.0])
    def test_zero_temperature_matches_mpmath(self, s):
        # omega_c * t up to 4 keeps omega_max * t = 200 below the panel switch
        j = Ohmic(ETA, s, 2.0)
        for u in np.geomspace(1e-6, 4.0, 25):
            want = _mpmath_closed_form(mpmath.mpf(1) / 3, s, u)
            got = dephasing_exponent(DephasingParams(j, 0.0), u / 2.0)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("s, u", [(0.5, 1.0), (1.5, 2.0), (2.5, 0.3)])
    def test_closed_form_is_the_exponent_integral(self, s, u):
        # independent check of the formula itself: tanh-sinh on [0, inf)
        with mpmath.workdps(30):
            eta = mpmath.mpf(1) / 3
            integral = mpmath.quad(
                lambda w: 4 * eta * w ** (s - 2) * mpmath.exp(-w) * (1 - mpmath.cos(w * u)),
                [0, 1, 5, 20, 60, mpmath.inf])
            assert float(integral) == pytest.approx(_mpmath_closed_form(eta, s, u), rel=1e-15)

    def test_zero_temperature_makes_no_quadrature_call(self, monkeypatch):
        monkeypatch.setattr(numerics, "integrate", None)
        g = dephasing_exponent(DephasingParams(Ohmic(ETA, 1.5, 1.0), 0.0), 2.0)
        assert g == pytest.approx(_mpmath_closed_form(ETA, 1.5, 2.0), rel=1e-13)

    @pytest.mark.parametrize("temperature", [0.05, 0.5, 2.0])
    @pytest.mark.parametrize("s", [1.0, 1.5, 2.5, 4.0])
    def test_thermal_split_matches_full_integrand_oracle(self, temperature, s):
        params = DephasingParams(Ohmic(ETA, s, 1.0), temperature)
        for t in (0.05, 0.7, 2.0, 4.0):
            want = oracle_exponent(params, t)
            assert dephasing_exponent(params, t) == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("temperature", [0.0, 0.5])
    def test_large_cut_falls_back_to_quadrature(self, temperature):
        # omega_max = 3 omega_c cuts ~e^{-3} of the closed form's integral,
        # far above tolerance: the truncated integral is computed instead
        j = Ohmic(ETA, 1.0, 1.0, omega_max=3.0)
        params = DephasingParams(j, temperature)
        untruncated = dephasing_exponent(DephasingParams(Ohmic(ETA, 1.0, 1.0), temperature), 2.0)
        got = dephasing_exponent(params, 2.0)
        assert got == pytest.approx(oracle_exponent(params, 2.0), rel=1e-11)
        assert untruncated - got > 1e-3

    def test_float_overflow_falls_back_to_quadrature(self):
        # Gamma(175) overflows a float: the closed form steps aside
        params = DephasingParams(Ohmic(1e-250, 175.0, 1.0), 0.0)
        got = dephasing_exponent(params, 1.0)
        assert np.isfinite(got)
        assert got == pytest.approx(oracle_exponent(params, 1.0), rel=1e-11)

    @pytest.mark.parametrize("temperature", [0.0, 0.5])
    def test_overflowing_power_matches_mpmath(self, temperature):
        # w^170 overflows past w = 65, inside omega_max = 500: J is taken
        # from log space there, and Gamma is the integral of the true J
        params = DephasingParams(Ohmic(1e-300, 170.0, 10.0), temperature)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = [dephasing_exponent(params, t) for t in (0.05, 0.1)]
        with mpmath.workdps(20):
            eta, s, w_c, temp = mpmath.mpf("1e-300"), 170, 10, mpmath.mpf(temperature)
            for t, value in zip(("0.05", "0.1"), got):
                t = mpmath.mpf(t)

                def h(w, t=t):
                    coth = mpmath.coth(w / (2 * temp)) if temp else 1
                    return (4 * eta * w ** (s - 2) * w_c ** (1 - s) * mpmath.exp(-w / w_c)
                            * coth * (1 - mpmath.cos(w * t)))

                want = mpmath.quad(h, mpmath.linspace(0, 500, 201))
                assert value == pytest.approx(float(want), rel=1e-9)

    def test_bose_callback_overflow_at_window_edge_is_caught(self):
        # the window's tail bound takes w^(s-2), finite at w = 66 for s = 170,
        # while the callback's w^s overflows there: the split must step aside
        # before QUADPACK calls it
        j = Ohmic(1e-300, 170.0, 0.21, omega_max=66.0)
        assert np.isfinite(66.0 ** 168.0)
        with pytest.raises(OverflowError):
            _bose_integrand(j, 8.0, 0.5)(66.0)
        assert _ohmic_split(j, 8.0, 0.5) is None

    # at the two low temperatures the window just past the cap w/T = 700
    # lies inside omega_max and its integrand is still a normal float
    @pytest.mark.parametrize("s, temperature", [(1.0, 0.5), (1.5, 0.005), (2.5, 2.0), (4.0, 0.004)])
    def test_scalar_bose_callback_matches_vectorised_oracle(self, s, temperature):
        j = Ohmic(0.7 * ETA, s, 1.3)
        rng = np.random.default_rng(7)
        for t in (0.3, 0.7, 3.0):
            w = np.concatenate([
                rng.uniform(1e-9, 1e-3 / t, 50),  # series branch, wt < 1e-3
                rng.uniform(1e-3 / t, min(j.omega_max, 600.0 * temperature), 200),
                rng.uniform(700.0 * temperature, 710.0 * temperature, 50),  # capped, w/T > 700
            ])
            w = w[w <= j.omega_max]
            want = bose_integrand(j, temperature, t, w)
            assert np.all(want >= np.finfo(float).tiny)  # normal floats: relative error holds
            h = _bose_integrand(j, temperature, t)
            got = np.array([h(x) for x in w])
            assert np.max(np.abs(got - want) / want) <= 1e-14
        assert h(0.0) == 0.0 and h(-1.0) == 0.0

    def test_negligible_bose_part_is_not_integrated(self, monkeypatch):
        # at T = 1e-300 the Bose part is bounded far below tolerance as a
        # whole; integrating it on a ~1e-299 window would underflow w^2
        monkeypatch.setattr(numerics, "integrate", None)
        j = Ohmic(ETA, 1.5, 1.0)
        with np.errstate(all="raise"):
            cold = dephasing_exponent(DephasingParams(j, 1e-300), 2.0)
        assert cold == dephasing_exponent(DephasingParams(j, 0.0), 2.0)

    @pytest.mark.parametrize("temperature", [0.0, 0.5])
    def test_exponent_is_linear_in_eta(self, temperature):
        # the coupling strength is eta: J -> J/4 is eta -> eta/4
        j = Ohmic(ETA, 2.5, 1.0)
        weak = DephasingParams(Ohmic(0.25 * ETA, 2.5, 1.0), temperature)
        for t in (0.3, 2.0):
            full = dephasing_exponent(DephasingParams(j, temperature), t)
            got = dephasing_exponent(weak, t)
            assert got == pytest.approx(0.25 * full, rel=1e-11)
            assert got == pytest.approx(oracle_exponent(weak, t), rel=1e-10)


# ---------------------------------------------------------------------------
# coherence factors
# ---------------------------------------------------------------------------


class TestFactors:
    def test_single_path_factor(self):
        assert single_path_factor(0.0) == 1.0
        assert single_path_factor(np.log(4.0)) == pytest.approx(0.25, rel=1e-15)
        assert np.sqrt(single_path_factor(np.log(4.0))) == pytest.approx(0.5, rel=1e-15)
        with pytest.raises(ValueError):
            single_path_factor(-0.1)

    def test_single_path_factor_underflow_is_numeric_failure(self):
        assert single_path_factor(745.0) > 0.0
        with pytest.raises(NumericError, match="underflows"):
            single_path_factor(np.array([0.0, 1.0, 750.0]))

    def test_modified_dephasing_single_path(self):
        for phi in (0.1, 0.5, 1.0):
            assert modified_dephasing(phi, 1, 0) == pytest.approx(phi, rel=1e-15)

    def test_modified_dephasing_unit_start(self):
        for N, n in [(2, 0), (3, 1), (5, 2), (8, 3)]:
            assert modified_dephasing(1.0, N, n) == pytest.approx(1.0, rel=1e-15)

    def test_sudden_death_point(self):
        # N=3, n=1: c = -2/3 and phi = 4/9 annihilates the numerator
        assert modified_dephasing(4.0 / 9.0, 3, 1) == pytest.approx(0.0, abs=1e-15)

    def test_revival_branch_is_negative(self):
        assert modified_dephasing(0.1, 3, 1) < 0.0

    def test_frozen_example(self):
        assert modified_dephasing(0.25, 3, 0) == pytest.approx(0.625, rel=1e-15)

    def test_matches_state_coherence_ratio(self):
        # oracle: normalize the post-selected state and compare coherences
        rng = np.random.default_rng(11)
        for N, n in [(1, 0), (2, 0), (3, 1), (6, 1), (7, 3)]:
            for _ in range(4):
                phi = rng.uniform(0.05, 1.0)
                st, _ = normalize(postselected_state_deph(QubitState.plus(), phi, N, n))
                ratio = st.matrix[0, 1].real / 0.5
                assert modified_dephasing(phi, N, n) == pytest.approx(ratio, abs=1e-13)

    def test_no_shift_mitigation_bound(self):
        # Phi(t, N, 0) >= phi for every N >= 1
        for N in (1, 2, 3, 5, 10):
            for phi in np.linspace(0.01, 1.0, 23):
                assert modified_dephasing(phi, N, 0) >= phi - 1e-14

    def test_null_configuration_rejected(self):
        with pytest.raises(ValueError):
            modified_dephasing(0.5, 4, 2)

    def test_trace_distance_matches_direct_pair_construction(self):
        # oracle: evolve |+><+| and |-><-| and take the actual trace distance
        rng = np.random.default_rng(5)
        for N, n in [(1, 0), (3, 0), (3, 1), (5, 2)]:
            for _ in range(4):
                phi = rng.uniform(0.05, 1.0)
                a, _ = normalize(postselected_state_deph(QubitState.plus(), phi, N, n))
                b, _ = normalize(postselected_state_deph(QubitState.minus(), phi, N, n))
                direct = trace_distance(a, b)
                expected = np.abs(modified_dephasing(phi, N, n))
                assert expected == pytest.approx(direct, abs=1e-13)


# ---------------------------------------------------------------------------
# post-selected states
# ---------------------------------------------------------------------------


class TestPostselectedStateDeph:
    def test_phi_one_is_scaled_initial_state(self):
        rho0 = QubitState.plus()
        st = postselected_state_deph(rho0, 1.0, 3, 1)
        r = r_factor(3, 1)
        assert np.allclose(st.matrix, r * rho0.matrix, rtol=1e-15)
        norm, p = normalize(st)
        assert np.allclose(norm.matrix, rho0.matrix, rtol=1e-14)
        assert p == pytest.approx(r, rel=1e-14)

    def test_diagonal_state_stays_diagonal(self):
        rho0 = QubitState(np.diag([0.7, 0.3]).astype(complex))
        st = postselected_state_deph(rho0, 0.4, 3, 0)
        assert st.matrix[0, 1] == 0.0
        # trace follows the superposition weight (1/N + (R-1/N) sqrt(phi)),
        # reaching R only in the phi -> 1 limit
        w = 1.0 / 3.0 + (1.0 - 1.0 / 3.0) * np.sqrt(0.4)
        assert st.trace == pytest.approx(w, rel=1e-14)
        st1 = postselected_state_deph(rho0, 1.0, 3, 0)
        assert st1.trace == pytest.approx(r_factor(3, 0), rel=1e-14)

    def test_normalized_populations_equal_initial(self):
        rng = np.random.default_rng(17)
        for N, n in [(2, 0), (3, 1), (8, 2)]:
            th = rng.uniform(0, np.pi)
            rho0 = QubitState.pure(np.cos(th / 2), np.sin(th / 2) * np.exp(0.7j))
            st, _ = normalize(postselected_state_deph(rho0, 0.3, N, n))
            assert st.matrix[0, 0].real == pytest.approx(rho0.matrix[0, 0].real, abs=1e-15)
            assert st.matrix[1, 1].real == pytest.approx(rho0.matrix[1, 1].real, abs=1e-15)

    def test_output_psd_across_configurations(self):
        rng = np.random.default_rng(3)
        for N in range(1, 9):
            for n in range((N + 1) // 2):
                for phi in (1e-3, 0.2, 0.7, 1.0):
                    th = rng.uniform(0, np.pi)
                    rho0 = QubitState.pure(np.cos(th / 2), np.sin(th / 2))
                    st = postselected_state_deph(rho0, phi, N, n)
                    assert np.linalg.eigvalsh(st.matrix).min() >= -1e-12

    def test_unnormalized_input_rejected(self):
        bad = QubitState(np.diag([0.8, 0.3]).astype(complex))
        with pytest.raises(ValueError):
            postselected_state_deph(bad, 0.5, 3, 1)


# ---------------------------------------------------------------------------
# series builder and sudden death
# ---------------------------------------------------------------------------


class TestSeriesAndSuddenDeath:
    def test_exponent_series_invariants(self, ohmic1):
        grid = TimeGrid(0.25, 9)
        gamma = dephasing_exponent_series(ohmic1, grid)
        assert isinstance(gamma, Series) and gamma.source == "dephasing_exponent"
        assert gamma.values.dtype == float
        assert gamma.values[0] == 0.0
        assert np.all(np.diff(gamma.values) > 0)
        phi = single_path_factor(gamma.values)
        assert phi[0] == 1.0 and modified_dephasing(phi, 3, 1)[0] == 1.0

    @pytest.mark.parametrize("bad", [-1e-300, np.nan, np.inf])
    def test_exponent_series_refuses_negative_or_non_finite_values(self, bad, ohmic1,
                                                                     monkeypatch):
        exponent = dephasing.dephasing_exponent
        monkeypatch.setattr(dephasing, "dephasing_exponent",
                            lambda params, t: bad if t == 0.5 else exponent(params, t))
        with pytest.raises(NumericError, match="dephasing_exponent series leaves .* t = 0.5"):
            dephasing_exponent_series(ohmic1, TimeGrid(0.25, 4))

    def test_sudden_death_time_root(self, ohmic1):
        # phi = (1+t^2)^{-2/3} passes through 4/9 where sqrt(phi) = 2/3:
        # (1+t^2) = (3/2)^3 = 27/8, t* = sqrt(19/8)
        f = lambda t: modified_dephasing(
            np.exp(-dephasing_exponent(ohmic1, t)), 3, 1
        )
        t_star = brentq(f, 1.0, 2.0, xtol=1e-12)
        exact = np.sqrt(19.0 / 8.0)
        assert exact == pytest.approx(1.5411035007422440, abs=1e-14)
        assert abs(t_star - exact) / exact < 1e-6
        # single crossing: negative beyond, positive before
        assert f(1.0) > 0 > f(2.0)

    def test_plateau_value_with_three_paths(self, ohmic4):
        # frozen: Phi(infty, 3, 0) for the trapped s=4 bath
        g = dephasing_exponent(ohmic4, 200.0)
        val = modified_dephasing(np.exp(-g), 3, 0)
        assert val == pytest.approx(0.3907019144457727, abs=1e-8)


# ---------------------------------------------------------------------------
# long panel points on the worker pool (the pool itself: test_numerics.py)
# ---------------------------------------------------------------------------

# (params, grid): the fig4c recipe, a thermal super-Ohmic bath whose early
# points take the closed form plus a QUADPACK Bose part, and a non-Ohmic J
# whose early points take the full-integrand QUADPACK route; each grid has
# inline points on either side of the panel switch and pooled points
POOL_CASES = {
    "fig4c": (DephasingParams(Ohmic(ETA, 4.0, 1.0), 0.0), TimeGrid(0.2, 1001)),
    "s1.7-T0.4": (DephasingParams(Ohmic(ETA, 1.7, 1.0), 0.4), TimeGrid(0.5, 201)),
    "gaussian": (DephasingParams(GaussianPeak(1.5, 0.2), 0.0), TimeGrid(6.0, 131)),
}


@functools.cache
def _serial_gamma(case):
    """The oracle: every time point evaluated in turn on the calling thread."""
    params, grid = POOL_CASES[case]
    return np.array([dephasing_exponent(params, t) for t in grid.times]).tobytes()


class TestPanelPool:
    @pytest.mark.parametrize("workers", [None, 3])
    @pytest.mark.parametrize("case", sorted(POOL_CASES))
    def test_gamma_is_bitwise_the_serial_series(self, case, workers, pool_of):
        params, grid = POOL_CASES[case]
        phase = params.j.omega_max * grid.times
        assert np.any((0 < phase) & (phase <= dephasing._ADAPTIVE_PHASE_LIMIT))
        assert np.any((dephasing._ADAPTIVE_PHASE_LIMIT < phase)
                      & (phase <= dephasing._POOL_PHASE_LIMIT))
        assert np.any(phase > dephasing._POOL_PHASE_LIMIT)
        pool_of(workers)
        gamma = dephasing_exponent_series(params, grid).values
        assert gamma.tobytes() == _serial_gamma(case)

    def test_default_pool_gives_the_serial_series(self):
        params, grid = POOL_CASES["fig4c"]
        gamma = dephasing_exponent_series(params, grid).values
        assert gamma.tobytes() == _serial_gamma("fig4c")

    def test_earliest_failing_time_raises(self, monkeypatch, pool_of):
        params, grid = POOL_CASES["gaussian"]
        pooled = grid.times[params.j.omega_max * grid.times > dephasing._POOL_PHASE_LIMIT]
        early, late = pooled[2], pooled[5]
        exponent = dephasing.dephasing_exponent

        def failing(params, t):
            if t == early:
                time.sleep(0.2)  # the later failure happens first
            if t in (early, late):
                raise NumericError(f"failed at t = {float(t)}")
            return exponent(params, t)

        monkeypatch.setattr(dephasing, "dephasing_exponent", failing)
        for workers in (None, 2):
            pool_of(workers)
            with pytest.raises(NumericError, match=re.escape(f"failed at t = {float(early)}")):
                dephasing_exponent_series(params, grid)


# ---------------------------------------------------------------------------
# the in-place Gauss-Legendre integrand, byte for byte against its oracle
# ---------------------------------------------------------------------------

def _frozen(values):
    """A read-only float copy: a function that writes into it raises."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


def _assert_same_bytes(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _panel_edges(omega_max, t):
    """The panel edges of ``dephasing_exponent`` past the switch: the half-periods."""
    half_period = np.pi / t
    n_half = int(np.floor(omega_max / half_period - 1e-12))
    return np.concatenate(([0.0], half_period * np.arange(1, n_half + 1), [omega_max]))


def _panel_nodes(omega_max, t):
    x, _ = numerics._legendre_rule(numerics._GL_ORDER)
    return _frozen(dephasing_oracle.gauss_legendre_nodes(_panel_edges(omega_max, t), x).ravel())


@pytest.mark.parametrize("workers", [1, 64])
@pytest.mark.parametrize("offset, refused", [(-0.5, False), (1.5, True), (np.inf, True)])
def test_panel_edges_refuse_a_count_past_the_budget(workers, offset, refused, monkeypatch):
    # checked on the float count before any array is allocated, so inf too; the
    # verdict is one point's, the same on a host of 1 core and of 64
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    unit = dephasing._HALF_PERIOD_BYTES
    half_periods = numerics._SIZE_BUDGET // unit + offset
    t = 1.0
    upper = half_periods * np.pi / t
    if refused:
        with pytest.raises(NumericError, match=f"half-periods at t = 1.0, {unit:,} bytes each, "
                                               "exceed the size budget of 1,073,741,824 bytes"):
            dephasing._panel_edges(upper, t)
    else:
        assert dephasing._panel_edges(upper, t).size == math.floor(half_periods) + 2


def _integrand(j, t, temperature):
    """The integrand ``dephasing_exponent`` builds for (j, T) at time t."""
    coth = None if temperature == 0.0 else functools.partial(_capped_coth, temperature)
    return dephasing._thermal_integrand(j, t, coth)


J_FAMILIES = {
    "ohmic-s4": Ohmic(ETA, 4.0, 1.0),
    "ohmic-s1.7": Ohmic(0.37 * ETA, 1.7, 1.0),
    # numpy's w ** s takes other ufuncs at s = 0.5, 1 and 2
    "ohmic-s0.5": Ohmic(ETA, 0.5, 1.0),
    "ohmic-s1": Ohmic(ETA, 1.0, 1.0),
    "ohmic-s2": Ohmic(3.0 * ETA, 2.0, 1.0),
    "ohmic-log-space-s170": Ohmic(1e-300, 170.0, 10.0),
    "lorentzian": Lorentzian(1.0, 0.5, 20.0),
    "gaussian": GaussianPeak(12.0, 4.0),
    # a custom J: the base class as the extension point
    "custom": SmoothDensity(eta=ETA, omega_c=10.0),
}


class TestInPlaceIntegrand:
    """The Gauss-Legendre branch keeps the bytes of its temporaries-based form."""

    def test_nodes_of_fig4c_panels(self):
        # omega_max t = 10,000 at t = 200: 3,184 panels, 31,840 nodes
        edges = _frozen(_panel_edges(50.0, 200.0))
        seen = []

        def capture(w):
            seen.append(w.copy())
            return np.ones_like(w)

        numerics.gauss_legendre_panels(capture, edges)
        want = _panel_nodes(50.0, 200.0)
        assert want.size == 31_840
        _assert_same_bytes(seen[0], np.array(want))

    @pytest.mark.parametrize("s, temperature, t", [
        (4.0, 0.0, 200.0),  # fig4c's last point
        (4.0, 0.0, 190.0),
        (1.7, 0.4, 100.0),
        (1.7, 0.01, 100.0),  # w is capped at 1400 T = 14 < omega_max
        (1.0, 1e-300, 30.0),  # denormal-scale T: every node is capped
    ])
    def test_ohmic_integrand_on_panel_nodes(self, s, temperature, t):
        j = Ohmic(ETA, s, 1.0)
        w = _panel_nodes(j.omega_max, t)
        before = w.tobytes()
        got = _integrand(j, t, temperature)(w)
        _assert_same_bytes(got, dephasing_oracle.thermal_integrand(j, t, temperature, w))
        assert w.tobytes() == before

    @pytest.mark.parametrize("temperature", [0.0, 0.4, 0.01])
    @pytest.mark.parametrize("family", J_FAMILIES)
    def test_every_family_on_series_and_panel_nodes(self, family, temperature):
        j = J_FAMILIES[family]
        # w t runs from 5e-7 to 25: both sides of the series switch at 1e-3
        mixed = _frozen(np.geomspace(1e-6, j.omega_max, 2001))
        for t, w in ((0.5, mixed), (40.0, _panel_nodes(j.omega_max, 40.0))):
            before = w.tobytes()
            got = _integrand(j, t, temperature)(w)
            _assert_same_bytes(got, dephasing_oracle.thermal_integrand(j, t, temperature, w))
            assert w.tobytes() == before

    @pytest.mark.parametrize("temperature", [0.0, 0.4])
    @pytest.mark.parametrize("family", ["ohmic-s4", "ohmic-s1.7", "lorentzian",
                                        "custom"])
    def test_python_float_and_0d_inputs(self, family, temperature):
        j = J_FAMILIES[family]
        h = _integrand(j, 0.5, temperature)
        for w in (2.5, 1e-4, np.float64(2.5), _frozen(2.5), _frozen(1e-4)):
            want = dephasing_oracle.thermal_integrand(j, 0.5, temperature, w)
            _assert_same_bytes(h(w), want)

    @pytest.mark.parametrize("temperature", [0.5, 0.37, 0.01, 1e-300])
    def test_capped_coth_matches_oracle(self, temperature):
        w = _frozen(np.concatenate((np.geomspace(1e-9, 1e3, 4001), [349.9, 350.0, 1e6])))
        for nodes in (w, _frozen([1e-3]), _frozen([0.7]), _frozen([400.0])):
            want = dephasing_oracle.coth_factor(
                np.minimum(nodes, 1400.0 * temperature) / (2.0 * temperature))
            _assert_same_bytes(_capped_coth(temperature, nodes), want)
        assert w[0] == 1e-9  # unchanged

    @pytest.mark.parametrize("family", J_FAMILIES)
    @pytest.mark.parametrize("temperature", [0.0, 0.4])
    def test_panel_sum_is_the_oracle_sum(self, family, temperature):
        j = J_FAMILIES[family]
        t = 130.0
        edges = _panel_edges(j.omega_max, t)
        x, weights = numerics._legendre_rule(numerics._GL_ORDER)
        nodes = dephasing_oracle.gauss_legendre_nodes(edges, x)
        vals = dephasing_oracle.thermal_integrand(j, t, temperature, nodes.ravel())
        half = 0.5 * (edges[1:] - edges[:-1])
        want = float(np.sum(half * (vals.reshape(nodes.shape) @ weights)))
        got = numerics.gauss_legendre_panels(_integrand(j, t, temperature), _frozen(edges))
        _assert_same_bytes(got, want)
        # infrared-divergent at T > 0: a sub-Ohmic J and every J with J(0) > 0
        if not (temperature > 0 and family in ("ohmic-s0.5", "lorentzian", "gaussian")):
            assert dephasing_exponent(DephasingParams(j, temperature), t) == want
