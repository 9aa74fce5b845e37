"""Tests for the generic numerical kernels."""

import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, optimize

from zenotraj import core, dephasing, dicke, numerics, perturbation
from zenotraj.errors import NumericError, QuadratureError
from zenotraj.numerics import (
    _SIZE_BUDGET,
    Series,
    TimeGrid,
    _check_size,
    _legendre_rule,
    _pool_map,
    brentq,
    gauss_legendre_panels,
    integrate_adaptive,
    integrate_matrix_ode,
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

    @pytest.mark.parametrize("dt, message", [
        (math.inf, "TimeGrid.dt must be finite, got dt=inf"),
        (math.nan, "TimeGrid.dt must be positive, got dt=nan"),
    ])
    def test_rejects_a_non_finite_step(self, dt, message):
        # an infinite step would give the times [nan, inf, inf]
        with pytest.raises(ValueError) as info:
            TimeGrid(dt, 3)
        assert str(info.value) == message


# the test functions of the root search: smooth, steep, flat at the root, a step, many
# roots, and values so small that the extrapolated step's denominator underflows to 0
_ROOT_FUNCTIONS = {
    "cubic": lambda x: x ** 3 - 2.0 * x - 5.0,
    "tiny": lambda x: 1e-200 * (x ** 3 - 2.0 * x - 5.0),
    "cos": lambda x: math.cos(x) - x,
    "exp": lambda x: math.exp(x) - 3.0,
    "flat": lambda x: (x - 1.1) ** 5 + 1e-9 * x,
    "step": lambda x: 1.0 if x > 0.123 else -1.0,
    "sin": lambda x: math.sin(50.0 * x) + 0.3,
}


def _root_or_error(solver, f, a, b):
    """The root's bits, or the type and message of the exception raised."""
    try:
        return solver(f, a, b).hex()
    except (ValueError, RuntimeError) as err:
        return type(err).__name__, str(err)


def _scipy_brentq(f, a, b):
    """scipy's root search at the one setting of ``numerics.brentq``."""
    return optimize.brentq(f, a, b, xtol=1e-12, rtol=8.9e-16)


class TestBrentq:
    """numerics.brentq against scipy.optimize.brentq, the oracle: the same bits."""

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(sorted(_ROOT_FUNCTIONS)),
           a=st.floats(-5.0, 5.0), b=st.floats(-5.0, 5.0))
    def test_same_bits_as_scipy(self, name, a, b):
        f = _ROOT_FUNCTIONS[name]
        assert _root_or_error(brentq, f, a, b) == _root_or_error(_scipy_brentq, f, a, b)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(-5.0, 5.0), width=st.floats(1e-12, 1e-10),
           c=st.tuples(*[st.floats(-1.0, 1.0)] * 4))
    # two brackets where the "- delta" of the short-step bound picks the step
    @example(1.0524342245264338, 1.719551743257867e-12,
             (0.6107914521292386, -0.3106901124852832, -0.7372063778808118, -0.7100613580860311))
    @example(3.3086937403908916, 7.023181902084811e-12,
             (-0.5766074574877016, 0.2058382758039674, 0.9307914576989753, 0.6094277137524533))
    def test_same_bits_on_brackets_a_few_tolerances_wide(self, a, width, c):
        # a cubic in u = (x - a)/width on [a, a + width]: the bracket is a few xtol wide
        def f(x):
            u = (x - a) / width
            return c[0] + u * (c[1] + u * (c[2] + u * c[3]))

        b = a + width
        assert _root_or_error(brentq, f, a, b) == _root_or_error(_scipy_brentq, f, a, b)

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x - 1.3, 1.0, 2.0),
        (lambda x: x - 1.3, 2.0, 1.0),
        (lambda x: -0.0 if x == 1.0 else 1.0, 1.0, 2.0),
        (lambda x: x, 1.0, 2.0),
        (lambda x: math.nan, 1.0, 2.0),
        (lambda x: x - 1.3, 1.0, math.inf),
        (lambda x: x - 1.3, -1e308, 1e308),
        (_ROOT_FUNCTIONS["step"], -1e308, 1e308),
    ], ids=["root", "reversed", "zero-at-a", "no-sign-change", "nan", "inf-bracket",
            "overflowing-bracket", "no-convergence"])
    def test_same_exceptions_as_scipy(self, f, a, b):
        assert _root_or_error(brentq, f, a, b) == _root_or_error(_scipy_brentq, f, a, b)


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


class TestSizeBudget:
    """One budget, one message: the count, its unit, the budget and the keys that shrink it."""

    @pytest.mark.parametrize("count", [_SIZE_BUDGET // 576, float(_SIZE_BUDGET // 576)])
    def test_budget_is_inclusive(self, count):
        _check_size(count, 576, "nodes", ("--t",))
        _check_size(_SIZE_BUDGET, 1, "bytes", ("--t",))

    @pytest.mark.parametrize("count, unit", [
        (1_000_000, core._PATH_BYTES), (1_000_000, dephasing._HALF_PERIOD_BYTES),
        (1_000_000, perturbation._NODE_BYTES), (16_000_000, dicke._HISTORY_BYTES),
    ], ids=["paths", "half-periods", "mesh nodes", "history entries"])
    def test_every_count_the_former_caps_accepted_fits(self, count, unit):
        # each route had a cap of its own before the budget; none of them refuses more now
        _check_size(count, unit, "units", ("--t",))

    @pytest.mark.parametrize("count, shown", [
        (1_864_136, "1,864,136"), (1_864_136.0, "1,864,136"), (2.5e6 + 0.4, "2,500,000"),
        (10**400, f"{10**400:,}"), (math.inf, "inf"), (math.nan, "nan"),
    ])
    def test_past_the_budget_is_refused(self, count, shown):
        with pytest.raises(NumericError) as info:
            _check_size(count, 576, "(t1, t2) mesh nodes", ("--t", "--omega-min"))
        assert str(info.value) == (f"{shown} (t1, t2) mesh nodes, 576 bytes each, exceed the "
                                   "size budget of 1,073,741,824 bytes; shrink --t or --omega-min")


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


class TestWorkerPool:
    """The package's one thread pool, shared by the dephasing exponent's panel
    points and the second-order engine's chunks and row blocks."""

    def test_one_core_runs_every_task_inline(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert numerics._worker_pool.__wrapped__() is None
        numerics._worker_pool.cache_clear()
        try:
            assert numerics._worker_pool() is None
            threads = []
            squares = _pool_map(lambda k: threads.append(threading.current_thread()) or k * k,
                                range(5))
            assert squares == [0, 1, 4, 9, 16]
            assert set(threads) == {threading.current_thread()}
            # and the panel points of a dephasing series, as in the serial loop
            params = dephasing.DephasingParams(core.Ohmic(1.0 / 3.0, 4.0, 1.0), 0.0)
            grid = TimeGrid(20.0, 11)
            assert params.j.omega_max * grid.times[-1] > dephasing._POOL_PHASE_LIMIT
            serial = [dephasing.dephasing_exponent(params, t) for t in grid.times]
            assert (dephasing.dephasing_exponent_series(params, grid).values.tobytes()
                    == np.array(serial).tobytes())
        finally:
            numerics._worker_pool.cache_clear()

    def test_pool_is_sized_by_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        pool = numerics._worker_pool.__wrapped__()
        try:
            assert pool._max_workers == 3
        finally:
            pool.shutdown()

    def test_cpu_count_stands_in_for_a_missing_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert numerics._worker_pool.__wrapped__() is None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_a_pool_of_its_own(self):
        # the child inherits the parent's pool object without its threads;
        # a table with panel points or engine chunks would wait on it forever
        script = (
            "import os, signal\n"
            "import numpy as np\n"
            "from zenotraj.core import Lorentzian, Ohmic, QubitState, binary_phases\n"
            "from zenotraj.dephasing import DephasingParams, dephasing_exponent_series\n"
            "from zenotraj.numerics import TimeGrid\n"
            "from zenotraj.perturbation import dissipative_coupling_model, general_filter\n"
            "params = DephasingParams(Ohmic(1 / 3, 4.0, 1.0), 0.0)\n"
            "grid = TimeGrid(20.0, 11)\n"
            "model = dissipative_coupling_model(Lorentzian(4.0, 2.0, 1.0), 1.0)\n"
            "omega = np.linspace(-2.0, 4.0, 41)\n"
            "tables = lambda: (dephasing_exponent_series(params, grid).values.tobytes(),\n"
            "                  general_filter(model, QubitState.excited(), omega, 0.2,\n"
            "                                 binary_phases(3, 1)).tobytes())\n"
            "first = tables()\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)  # a waiting child ends itself\n"
            "    os._exit(0 if tables() == first else 1)\n"
            "assert os.waitpid(pid, 0)[1] == 0\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("workers", [None, 1, 3])
    def test_results_keep_the_order_of_the_units(self, workers, pool_of):
        pool_of(workers)

        def late_first(k):
            time.sleep(0.002 * (8 - k))  # the early units finish last
            return k

        assert _pool_map(late_first, range(8)) == list(range(8))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_at_most_one_task_per_worker_in_flight(self, workers, pool_of):
        pool_of(workers)
        lock, running, most = threading.Lock(), [0], [0]

        def task(k):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            time.sleep(0.002)
            with lock:
                running[0] -= 1

        _pool_map(task, range(12))
        assert 1 <= most[0] <= workers

    @pytest.mark.parametrize("workers", [None, 3])
    def test_earliest_failing_unit_raises_and_no_task_outlives_the_call(self, workers,
                                                                          pool_of):
        pool_of(workers)
        started, ended = [], []

        def task(k):
            started.append(k)
            try:
                if k == 1:
                    time.sleep(0.2)  # unit 2 fails first
                if k in (1, 2):
                    raise ValueError(f"unit {k}")
                time.sleep(0.01)
            finally:
                ended.append(k)

        with pytest.raises(ValueError, match="unit 1"):
            _pool_map(task, range(8))
        assert sorted(started) == sorted(ended)

    def test_one_unit_runs_inline_without_asking_for_the_pool(self, monkeypatch):
        def no_pool():
            raise AssertionError("the pool was asked for")

        monkeypatch.setattr(numerics, "_worker_pool", no_pool)
        caller = threading.current_thread()
        assert _pool_map(lambda k: (k, threading.current_thread()), [7]) == [(7, caller)]
        assert _pool_map(lambda k: k, []) == []
