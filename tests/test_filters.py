"""Tests for filter functions and overlap-integral decay factors.

Oracles: dense Simpson quadrature for the Gaussian-peak overlap, the sine
integral Si for the traditional filter's spectral sum rule, and the exact
memory-kernel dynamics for the perturbative-consistency contract.
"""

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import sici

from zenotraj.cli import _SCENARIO_DEFAULTS, parse_config, run
from zenotraj.core import GaussianPeak, Lorentzian, Ohmic, Tabulated
from zenotraj.errors import NumericError
from zenotraj.filters import (
    decay_factor_overlap,
    filter_deph,
    filter_diss,
    filter_traditional_zeno,
    fwhm,
    perturbative_consistency,
    sinc,
)
from zenotraj.numerics import gauss_legendre_panels


class TestSinc:
    def test_basic_values(self):
        assert sinc(0.0) == 1.0
        assert sinc(np.pi) == pytest.approx(0.0, abs=1e-16)
        assert sinc(1.0) == pytest.approx(np.sin(1.0), rel=1e-15)

    def test_series_branch_continuity(self):
        # series below 1e-4 must join the direct ratio smoothly
        for x in (9.9e-5, 1.01e-4, 5e-5, 1e-8):
            assert sinc(x) == pytest.approx(np.sin(x) / x, rel=1e-14)

    def test_vectorized(self):
        x = np.array([0.0, 1e-9, 0.5, np.pi])
        v = sinc(x)
        assert v.shape == (4,)
        assert v[0] == 1.0


class TestFilterShapes:
    def test_diss_peak_values(self):
        assert filter_diss(1.0, 2.5, 1, 0, 1.0) == pytest.approx(6.25, rel=1e-15)
        assert filter_diss(1.0, 2.5, 4, 0, 1.0) == pytest.approx(6.25 / 4, rel=1e-15)
        # first zero of the sinc at w - wq = 2 pi / t
        assert filter_diss(1.0 + 2 * np.pi / 2.5, 2.5, 1, 0, 1.0) == pytest.approx(0.0, abs=1e-28)

    def test_diss_prefactor_scaling_pointwise_exact(self):
        w = np.linspace(-3.0, 5.0, 401)
        base = filter_diss(w, 1.7, 1, 0, 1.0)
        for N, n in [(2, 0), (4, 1), (5, 2), (16, 3)]:
            pref = N / (N - 2 * n) ** 2
            assert np.array_equal(filter_diss(w, 1.7, N, n, 1.0), pref * base)

    def test_deph_limit_and_zero(self):
        # w -> 0 limit: N/(N-2n)^2 * t^2/4
        assert filter_deph(0.0, 2.0, 1, 0) == pytest.approx(1.0, rel=1e-15)
        assert filter_deph(1e-12, 2.0, 3, 1) == pytest.approx(3.0, rel=1e-9)
        # zero at wt = 2 pi
        assert filter_deph(2 * np.pi / 2.0, 2.0, 1, 0) == pytest.approx(0.0, abs=1e-28)

    def test_deph_frozen_example(self):
        # (1/2) * 3 * (1 - cos 1) for N=3, n=1 at w = t = 1
        val = filter_deph(1.0, 1.0, 3, 1)
        assert val == pytest.approx(1.5 * (1.0 - np.cos(1.0)), rel=1e-15)
        assert val == pytest.approx(0.6895465411977903, abs=1e-15)

    def test_traditional_reductions(self):
        w = np.linspace(-2.0, 4.0, 301)
        assert np.allclose(
            filter_traditional_zeno(w, 1.3, 1.0, 1.0),
            filter_diss(w, 1.3, 1, 0, 1.0),
            rtol=1e-15,
        )
        assert filter_traditional_zeno(1.0, 3.0, 5.0, 1.0) == pytest.approx(9.0 / 5.0, rel=1e-15)
        # first zero pushed out to 2 pi Ntilde / t
        z = 1.0 + 2 * np.pi * 5.0 / 3.0
        assert filter_traditional_zeno(z, 3.0, 5.0, 1.0) == pytest.approx(0.0, abs=1e-28)

    def test_argmax_at_qubit_frequency(self):
        w = np.linspace(0.0, 2.0, 2001)
        for N, n in [(1, 0), (3, 1), (8, 1)]:
            vals = filter_diss(w, 4.0, N, n, 1.0)
            assert w[np.argmax(vals)] == pytest.approx(1.0, abs=1e-12)

    def test_cli_kinds_are_the_filter_functions(self):
        w = np.linspace(-5.0, 7.0, 41)
        direct = {"diss": filter_diss(w, 5.0, 3, 1, 1.0), "deph": filter_deph(w, 5.0, 3, 1),
                  "traditional": filter_traditional_zeno(w, 5.0, 4.0, 1.0)}
        assert tuple(direct) == _SCENARIO_DEFAULTS["filter"]["kind"]
        for kind, want in direct.items():
            table = run(parse_config(["filter", "--kind", kind, "--N", "3", "--n", "1",
                                      "--n-tilde", "4", "--omega-points", "41"]))
            assert table.values[:, 2].tobytes() == want.tobytes()

    def test_null_configuration_rejected(self):
        with pytest.raises(ValueError):
            filter_diss(1.0, 1.0, 4, 2, 1.0)
        with pytest.raises(ValueError):
            filter_deph(1.0, 1.0, 6, 3)
        with pytest.raises(ValueError):
            filter_traditional_zeno(1.0, 1.0, 0.5, 1.0)


def _diss(t, n_paths, n_shifts, omega_q):
    """filter_diss at fixed (t, N, n, omega_q) as a function of omega."""
    return lambda w: filter_diss(w, t, n_paths, n_shifts, omega_q)


class TestOverlap:
    def test_zero_density(self):
        j = Tabulated([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        assert decay_factor_overlap(j, _diss(2.0, 1, 0, 1.0), 1.0) == 0.0

    def test_gaussian_peak_against_simpson(self):
        j = GaussianPeak(1.5, 0.2)
        val = decay_factor_overlap(j, _diss(3.0, 1, 0, 1.0), 1.0)
        w = np.linspace(0.0, j.omega_max, 1_000_001)
        oracle = simpson(j(w) * filter_diss(w, 3.0, 1, 0, 1.0), x=w)
        assert val == pytest.approx(oracle, rel=1e-8)
        assert val == pytest.approx(5.596336455628841, rel=1e-12)

    def test_tabulated_knots_are_quadrature_breakpoints(self):
        # the kinks at 2, 4 and 6 stalled QUADPACK at an error bound of 5.9e-9
        # until they became breakpoints
        knots = np.linspace(0.0, 8.0, 5)
        j = Tabulated(knots, knots * np.exp(-0.5 * knots))
        val = decay_factor_overlap(j, _diss(2.0, 3, 1, 1.5), 1.5)
        w = np.linspace(0.0, 8.0, 1_000_001)
        oracle = simpson(j(w) * filter_diss(w, 2.0, 3, 1, 1.5), x=w)
        assert val == pytest.approx(oracle, rel=1e-8)
        assert val == pytest.approx(15.92042262576936, rel=1e-12)

    def test_one_over_n_scaling_bitwise_for_powers_of_two(self):
        j = GaussianPeak(1.5, 0.2)
        base = decay_factor_overlap(j, _diss(3.0, 1, 0, 1.0), 1.0)
        for N in (2, 4, 8, 16):
            v = decay_factor_overlap(j, _diss(3.0, N, 0, 1.0), 1.0)
            assert v == base / N  # exact: same subdivision, power-of-two prefactor

    def test_one_over_n_scaling_general(self):
        j = GaussianPeak(1.5, 0.2)
        base = decay_factor_overlap(j, _diss(3.0, 1, 0, 1.0), 1.0)
        for N, n in [(3, 0), (5, 0), (3, 1), (7, 2)]:
            v = decay_factor_overlap(j, _diss(3.0, N, n, 1.0), 1.0)
            pref = N / (N - 2 * n) ** 2
            assert v == pytest.approx(pref * base, rel=1e-12)

    @pytest.mark.parametrize("peak", [-1.0, 9.0, 20.0], ids=str)
    def test_peak_outside_the_support_is_no_breakpoint(self, peak):
        # omega_max = 9 for this J: a peak at or past an end integrates as the
        # deph filter's peak at 0 does, to the bit
        j = Tabulated([0.0, 2.0, 9.0], [0.0, 1.0, 0.5])
        f = _diss(2.0, 3, 1, 1.5)
        assert decay_factor_overlap(j, f, peak) == decay_factor_overlap(j, f, 0.0)

    def test_nonnegative_for_deph_kind(self):
        j = Ohmic(0.5, 1.0, 1.0)
        assert decay_factor_overlap(j, lambda w: filter_deph(w, 2.0, 3, 1), 0.0) > 0.0

    def test_sum_rule_traditional_filter(self):
        # integral of the traditional filter over omega is 2 pi t for every
        # Ntilde; Gauss-Legendre panels over half-periods, window X = 4e6
        # accumulated phase (tail ~ 1/(pi X) ~ 8e-8)
        t, wq, n_tilde = 5.0, 1.0, 4.0
        X = 4.0e6
        scale = 2.0 * n_tilde / t
        n_half = int(np.ceil(X / np.pi))
        f = lambda w: filter_traditional_zeno(w, t, n_tilde, wq)
        total = 0.0
        chunk = 100_000
        for s0 in range(-n_half, n_half, chunk):
            s1 = min(s0 + chunk, n_half)
            edges = wq + scale * np.pi * np.arange(s0, s1 + 1)
            total += gauss_legendre_panels(f, edges).real
        assert total == pytest.approx(2 * np.pi * t, rel=1e-6)
        # and against the sine-integral reference for the same finite window
        Xg = np.pi * n_half
        ref = 4 * t * (sici(2 * Xg)[0] - np.sin(Xg) ** 2 / Xg)
        assert total == pytest.approx(ref, rel=1e-12)


class TestPerturbativeConsistency:
    J = Lorentzian(4.0, 2.0, 1.0)

    def test_zero_coupling(self):
        assert perturbative_consistency(self.J, 1.0, 0.2, 1, 0, 0.0) == (0.0, 0.0)

    def test_mismatch_shrinks_quadratically(self):
        mm = {}
        for eps in (0.4, 0.2, 0.1):
            ge, go = perturbative_consistency(self.J, 1.0, 0.2, 1, 0, eps)
            mm[eps] = abs(ge - go) / go
        assert 2.5 <= mm[0.4] / mm[0.2] <= 6.0
        assert 2.5 <= mm[0.2] / mm[0.1] <= 6.0

    def test_overlap_is_that_of_the_weaker_line(self):
        # eps^2 J is the Lorentzian with gamma0 times eps^2: the overlap is linear in J
        eps = 0.2
        _, go = perturbative_consistency(self.J, 1.0, 0.2, 3, 1, eps)
        weak = Lorentzian(eps**2 * 4.0, 2.0, 1.0)
        assert go == pytest.approx(decay_factor_overlap(weak, _diss(0.2, 3, 1, 1.0), 1.0),
                                   rel=1e-12)

    def test_prefactor_matches_exact_dynamics(self):
        ge4, go4 = perturbative_consistency(self.J, 1.0, 0.2, 4, 0, 0.1)
        ge1, go1 = perturbative_consistency(self.J, 1.0, 0.2, 1, 0, 0.1)
        assert go4 / go1 == pytest.approx(0.25, rel=1e-12)
        assert ge4 / ge1 == pytest.approx(0.25, rel=0.05)


class TestFwhm:
    def test_triangle(self):
        assert fwhm(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])) == 1.0

    def test_superposed_width_is_n_invariant(self):
        t, wq = 4.0, 1.0
        w = np.linspace(wq - 2.0, wq + 2.0, 6001)
        base = fwhm(w, filter_diss(w, t, 1, 0, wq))
        for N, n in [(2, 0), (3, 1), (8, 0)]:
            assert fwhm(w, filter_diss(w, t, N, n, wq)) == pytest.approx(base, rel=1e-12)

    def test_traditional_width_scales_with_n_tilde(self):
        # sample every curve on its own rescaled grid so the interpolation
        # error cancels exactly in the ratio
        t, wq = 4.0, 1.0
        u = np.linspace(-4.0, 4.0, 4001)
        base = fwhm(wq + u * 2.0 / t, filter_traditional_zeno(wq + u * 2.0 / t, t, 1.0, wq))
        for nt in (2.0, 4.0, 8.0):
            wgrid = wq + u * (2.0 * nt / t)
            width = fwhm(wgrid, filter_traditional_zeno(wgrid, t, nt, wq))
            assert width / base == pytest.approx(nt, rel=1e-6)

    def test_no_crossing_raises(self):
        w = np.linspace(0.0, 1.0, 11)
        with pytest.raises(NumericError):
            fwhm(w, 1.0 + 0.01 * w)  # never falls to half max

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            fwhm(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
