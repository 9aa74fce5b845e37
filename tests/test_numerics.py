"""Tests for the generic numerical kernels."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from zenotraj.errors import NumericError, QuadratureError
from zenotraj.numerics import (
    Series,
    TimeGrid,
    _legendre_rule,
    gauss_legendre_panels,
    integrate_adaptive,
    integrate_matrix_ode,
    min_eigenvalue_hermitian,
    row_blocks,
    solve_volterra,
)


class TestTimeGrid:
    def test_times_are_uniform_and_increasing(self):
        g = TimeGrid(0.5, 5)
        assert_allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_starts_at_zero_with_exact_multiples_of_the_step(self):
        g = TimeGrid(0.1, 4)
        assert g.times.tolist() == [0.1 * k for k in range(4)]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TimeGrid(-0.1, 5)
        with pytest.raises(ValueError):
            TimeGrid(0.1, 1)


class TestIntegrateAdaptive:
    def test_sine_over_half_period(self):
        val = integrate_adaptive(np.sin, 0.0, np.pi, 1e-12, 1e-14)
        assert type(val) is float
        assert_allclose(val, 2.0, rtol=0, atol=1e-10)

    def test_exponential_half_line(self):
        val = integrate_adaptive(lambda w: np.exp(-w), 0.0, np.inf, 1e-11, 1e-13)
        assert_allclose(val, 1.0, rtol=0, atol=1e-9)

    def test_gaussian_peak_against_simpson_oracle(self):
        """Narrow Gaussian on [0, 40]: independent 1e6-point Simpson oracle."""
        f = lambda w: np.exp(-(w - 1.5) ** 2 / 0.2)
        val = integrate_adaptive(f, 0.0, 40.0, 1e-12, 1e-14)
        x = np.linspace(0.0, 40.0, 10**6 + 1)
        oracle = integrate.simpson(f(x), x=x)
        assert_allclose(val, oracle, rtol=1e-12)
        assert_allclose(val, 0.79266462665335335, rtol=1e-12)

    def test_subinterval_limit_grows_with_the_breakpoints(self):
        # QUADPACK refuses as many breakpoints as subintervals; 300 of them
        # raise the limit from 200 to 4 * 302
        points = np.linspace(0.0, 10.0, 302)[1:-1]
        val = integrate_adaptive(np.sin, 0.0, 10.0, 1e-12, 1e-14, points=points)
        assert_allclose(val, 1.0 - np.cos(10.0), rtol=1e-12)

    def test_nonconvergence_carries_estimate_and_bound(self):
        # 1,600 cycles of cos(1000 w) do not resolve in 200 subintervals
        with pytest.raises(QuadratureError) as info:
            integrate_adaptive(lambda w: np.cos(1000.0 * w), 0.0, 10.0, 1e-12, 1e-14)
        err = info.value
        assert err.estimate is not None
        assert err.error_bound is not None and err.error_bound > 0


class TestSolveVolterra:
    def test_zero_kernel_keeps_initial_value(self):
        g = TimeGrid(0.01, 101)
        c = solve_volterra(np.zeros(101), g)
        assert_allclose(c, np.full(101, 1.0 + 0.0j), rtol=0, atol=0)

    def test_constant_kernel_gives_cosine(self):
        """f ≡ κ turns the memory equation into c'' = -κc, so c = cos(√κ t)."""
        g = TimeGrid(1e-3, 1001)
        c = solve_volterra(np.ones(g.count), g)
        assert_allclose(c[-1].real, np.cos(1.0), rtol=0, atol=1e-5)
        assert_allclose(c.imag, 0.0, atol=1e-12)

    def test_exponential_kernel_matches_closed_form(self):
        """Kernel (γ₀λ/2)e^{-λt} with γ₀=λ=1 at t=π: c = e^{-t/2}[cos(t/2)+sin(t/2)]."""
        n = 3143
        g = TimeGrid(np.pi / (n - 1), n)
        c = solve_volterra(0.5 * np.exp(-g.times), g)
        assert_allclose(abs(c[-1]), np.exp(-np.pi / 2), rtol=0, atol=1e-5)

    def test_second_order_convergence(self):
        """Halving dt shrinks the max error on the cosine case by ~4."""
        errs = []
        for dt in (2e-3, 1e-3):
            n = round(1.0 / dt) + 1
            g = TimeGrid(dt, n)
            c = solve_volterra(np.ones(n), g)
            errs.append(np.max(np.abs(c - np.cos(g.times))))
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    def test_initial_value_is_exact(self):
        g = TimeGrid(0.1, 8)
        c = solve_volterra(np.exp(-g.times), g)
        assert c[0] == 1.0 + 0.0j

    @pytest.mark.parametrize("count", [7, 9])
    def test_sample_count_must_match_the_grid(self, count):
        with pytest.raises(ValueError, match="do not match grid count 8"):
            solve_volterra(np.ones(count), TimeGrid(0.1, 8))


class TestSeries:
    def test_values_keep_their_dtype_and_match_the_grid(self):
        grid = TimeGrid(0.1, 4)
        assert Series(grid, np.zeros(4), "real").values.dtype == float
        assert Series(grid, np.zeros(4, dtype=complex), "complex").values.dtype == complex
        with pytest.raises(ValueError, match="does not match grid count 4"):
            Series(grid, np.zeros(3), "short")

    def test_check_bounds_the_modulus_of_complex_values(self):
        grid = TimeGrid(0.1, 3)
        g = Series(grid, np.array([1.0, 0.6 + 0.8j, -0.5j]), "g")
        assert g.check(0.0, 1.0) is g
        with pytest.raises(NumericError, match=r"g series leaves \[0.0, 0.9\] at t = 0.0"):
            g.check(0.0, 0.9)

    def test_check_bounds_real_values_themselves(self):
        grid = TimeGrid(0.5, 3)
        gamma = Series(grid, np.array([0.0, 2.0, -1e-300]), "gamma")
        with pytest.raises(NumericError,
                           match=r"gamma series leaves \[0.0, inf\] at t = 1.0: -1e-300"):
            gamma.check(0.0, np.inf)
        Series(grid, np.array([0.0, 2.0, 1e300]), "gamma").check(0.0, np.inf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0)])
    def test_check_refuses_non_finite_values(self, bad):
        values = np.array([0.0, bad, 0.5])
        with pytest.raises(NumericError, match="at t = 0.1"):
            Series(TimeGrid(0.1, 3), values, "x").check(-np.inf, np.inf)


class TestIntegrateMatrixOde:
    def test_zero_rhs_constant_series(self):
        g = TimeGrid(0.1, 6)
        rho0 = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        out = integrate_matrix_ode(lambda r: np.zeros_like(r), rho0, g)
        for k in range(6):
            assert_allclose(out[k], rho0, rtol=0, atol=0)

    def test_scalar_decay(self):
        g = TimeGrid(1e-3, 1001)
        out = integrate_matrix_ode(lambda r: -r, np.eye(2, dtype=complex), g)
        assert_allclose(out[-1], np.exp(-1.0) * np.eye(2), rtol=0, atol=1e-10)

    def test_amplitude_damping_single_emitter(self):
        """Lindblad damping at unit rate: excited population decays as e^{-t}."""
        sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |g><e|
        sp = sm.conj().T
        pe = sp @ sm

        def rhs(rho):
            return sm @ rho @ sp - 0.5 * (pe @ rho + rho @ pe)

        g = TimeGrid(1e-3, 1001)
        rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        out = integrate_matrix_ode(rhs, rho0, g)
        assert_allclose(out[:, 0, 0].real, np.exp(-g.times), rtol=0, atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        g = TimeGrid(0.1, 3)
        with pytest.raises(ValueError):
            integrate_matrix_ode(lambda r: r, np.zeros((2, 3)), g)
        with pytest.raises(ValueError):
            integrate_matrix_ode(lambda r: np.zeros((3, 3)), np.eye(2), g)


class TestMinEigenvalueHermitian:
    def test_diagonal(self):
        assert min_eigenvalue_hermitian(np.diag([1.0, 2.0, 3.0, 4.0])) == 1.0

    def test_pauli_x(self):
        val = min_eigenvalue_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(val, -1.0, rtol=0, atol=1e-14)

    def test_rank_deficient_corner_matrix(self):
        """Corner matrix diag-plus-corners with |r| = 1 has min eigenvalue 0."""
        r = np.exp(0.3j)
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        m[0, 3] = np.conj(r)
        m[3, 0] = r
        m[3, 3] = abs(r) ** 2
        assert_allclose(min_eigenvalue_hermitian(m), 0.0, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        herm = 0.5 * (a + a.conj().T)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        rotated = q @ herm @ q.conj().T
        assert_allclose(min_eigenvalue_hermitian(rotated),
                        min_eigenvalue_hermitian(herm), rtol=0, atol=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NumericError):
            min_eigenvalue_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_large_matrices(self):
        with pytest.raises(ValueError):
            min_eigenvalue_hermitian(np.eye(9))


class TestRowBlocks:
    @pytest.mark.parametrize("n_rows", [1, 2, 3, 4, 5, 9, 17, 101, 201, 601])
    @pytest.mark.parametrize("max_rows", [0, 1, 2, 3, 8, 9, 1000])
    def test_near_equal_blocks_of_two_rows_or_more(self, n_rows, max_rows):
        blocks = row_blocks(n_rows, max_rows)
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == n_rows
        sizes = [b.stop - b.start for b in blocks]
        assert max(sizes) - min(sizes) <= 1
        if len(blocks) > 1:
            assert min(sizes) >= 2
        if max_rows >= 2:
            assert max(sizes) <= max_rows or len(blocks) == n_rows // 2
        if n_rows <= max_rows:
            assert len(blocks) == 1


class TestGaussLegendrePanels:
    def test_polynomial_is_exact(self):
        val = gauss_legendre_panels(lambda x: x**3 - 2 * x, np.array([0.0, 1.0, 2.0]))
        assert_allclose(val, 2.0**4 / 4 - 4.0, rtol=0, atol=1e-13)

    def test_oscillatory_split_at_periods(self):
        # ∫₀^{20π} sin²(x) dx = 10π with one panel per half-period
        edges = np.linspace(0.0, 20 * np.pi, 41)
        val = gauss_legendre_panels(lambda x: np.sin(x) ** 2, edges)
        assert_allclose(val, 10 * np.pi, rtol=1e-12)

    def test_rule_is_computed_once_and_read_only(self):
        x, w = _legendre_rule(10)
        assert _legendre_rule(10)[0] is x
        ref_x, ref_w = np.polynomial.legendre.leggauss(10)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        with pytest.raises(ValueError):
            w[0] = 0.0
