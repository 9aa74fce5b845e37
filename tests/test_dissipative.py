"""Tests for the dissipative (energy-exchange) channel module.

Expected values were frozen from independent oracles before the module was
written: dense-Simpson quadrature for the memory kernel, the closed
Lorentzian form of G(t) for the Volterra solver, and explicit 2x2 density
matrices fed through the generic post-selection map for the trace-distance
and population formulas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson
from scipy.optimize import brentq

from choi_oracle import choi_intermediate_map, cp_divisible_choi
from kernel_oracle import truncated_lorentzian_kernel
from zenotraj import dissipative
from zenotraj.core import Lorentzian, QubitState, normalize, r_factor, trace_distance
from zenotraj.dissipative import (
    MemoryKernel,
    decay_amplitude,
    decay_amplitude_auto,
    decay_amplitude_closed_series,
    decay_amplitude_lorentzian_closed,
    decay_factor,
    is_cp_divisible,
    memory_kernel,
    postselected_state_diss,
    survival_probability_diss,
    trace_distance_diss,
)
from zenotraj.cli import main
from zenotraj.errors import NullOutcome, QuadratureError
from zenotraj.numerics import Series, TimeGrid, integrate_adaptive, solve_volterra


def lorentzian_kernel_closed(gamma0, lam):
    """Full-line Lorentzian kernel f(t) = (γ₀λ/2) e^{-λ|t|} (pseudomode form)."""
    def f(t):
        return 0.5 * gamma0 * lam * np.exp(-lam * np.abs(t)) + 0.0j

    return MemoryKernel(f, "lorentzian_closed")


# ---------------------------------------------------------------------------
# memory kernel
# ---------------------------------------------------------------------------


class TestMemoryKernel:
    def test_samples_call_f_once_per_grid_time(self):
        seen = []

        def f(t):
            seen.append(t)
            return 2.0 * t

        grid = TimeGrid(0.1, 5)
        samples = MemoryKernel(f, "test").samples(grid)
        assert seen == list(grid.times) and all(np.ndim(t) == 0 for t in seen)
        assert samples.dtype == complex
        assert samples.tobytes() == (2.0 * grid.times).astype(complex).tobytes()

    def test_t_zero_is_total_spectral_weight(self):
        j = Lorentzian(1.0, 0.1, 1.0)
        mk = memory_kernel(j, 1.0)
        total = integrate_adaptive(j, 0.0, j.omega_max, 1e-12, 1e-14)
        assert mk.f(0.0) == pytest.approx(total, rel=1e-12)
        assert mk.f(0.0).imag == 0.0

    def test_half_line_lorentzian_near_full_line_form(self):
        # With the line centred well inside the integration range the
        # half-line kernel tracks (gamma0*lam/2) e^{-lam t}; the truncated
        # negative-frequency tail shifts it by under two percent here.
        j = Lorentzian(1.0, 0.1, 1.0)
        mk = memory_kernel(j, 1.0)
        full_line = 0.05 * np.exp(-0.5)
        val = mk.f(5.0)
        assert abs(val - full_line) / full_line < 0.02
        # frozen oracle value for this exact configuration
        assert val.real == pytest.approx(0.030040762946886602, rel=1e-9)

    def test_oscillatory_branch_matches_dense_simpson(self):
        # a many-cycle phase (omega_max * t > 50) on the oscillatory-weight
        # quadrature; check it against a brute-force dense Simpson oracle.
        j = Lorentzian(1.0, 1.0, 50.0)
        mk = memory_kernel(j, 50.0)
        t = 0.7
        assert j.omega_max * t > 50.0
        w = np.linspace(0.0, j.omega_max, 2_000_001)
        integrand = j(w) * np.exp(1j * (50.0 - w) * t)
        oracle = simpson(integrand, x=w)
        assert mk.f(t) == pytest.approx(oracle, rel=1e-8)

    def test_branches_agree_across_switch(self):
        # continuity around omega_max * t = 50, where the kernel once
        # switched from plain subdivision to the oscillatory weight
        j = Lorentzian(1.0, 1.0, 50.0)
        mk = memory_kernel(j, 50.0)
        t_switch = 50.0 / j.omega_max
        below = mk.f(0.98 * t_switch)
        above = mk.f(1.02 * t_switch)
        mid = 0.5 * (below + above)
        assert abs(above - below) < 0.1 * abs(mid) + 1e-6

    def test_scalar_only(self):
        j = Lorentzian(1.0, 0.1, 1.0)
        mk = memory_kernel(j, 1.0)
        with pytest.raises(TypeError):
            mk.f(np.array([0.0, 1.0]))


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(gamma0=_log_uniform(0.01, 100.0), omega_q=_log_uniform(0.01, 100.0),
       ratio=_log_uniform(0.02, 1000.0), t=st.one_of(st.just(0.0), _log_uniform(1e-6, 1e3)))
def test_kernel_matches_the_truncated_lorentzian_closed_form(gamma0, omega_q, ratio, t):
    """Over the numeric route's domain (lambda > 0.02 omega_q, any t >= 0) each
    sample the kernel returns is within the tolerance it promises of the E1 closed
    form: its real and imaginary integrals each meet max(abs, rel * |part|), so
    the complex sample meets sqrt(2) max(abs, rel * |f|).  A sample whose error
    estimate misses that tolerance is refused (QuadratureError), not compared."""
    lam = ratio * omega_q
    if not lam > 0.02 * omega_q:
        lam = np.nextafter(0.02 * omega_q, np.inf)
    j = Lorentzian(gamma0, lam, omega_q)
    try:
        got = memory_kernel(j, omega_q).f(t)
    except QuadratureError:
        return
    want = truncated_lorentzian_kernel(gamma0, lam, omega_q, j.omega_max, t)
    tol = np.sqrt(2.0) * max(dissipative._KERNEL_ABS_TOL, dissipative._KERNEL_REL_TOL * abs(want))
    assert abs(got - want) <= tol, (gamma0, lam, omega_q, t, got, want)


def plain_kernel(j, omega_q, t, rel_tol=1e-11, abs_tol=1e-13):
    """f(t) by plain subdivision of the complex integrand: the kernel's route
    for omega_max * t <= 50 before every t > 0 took the oscillatory weight,
    kept as an oracle where it converges.  The real and imaginary parts are
    two QUADPACK integrals whose summed bound must meet the tolerance."""
    g = lambda w: j(w) * np.exp(1j * (omega_q - w) * t)
    parts = [quad(lambda w: part(g(w)), 0.0, j.omega_max, epsabs=abs_tol, epsrel=rel_tol,
                  limit=200, full_output=1) for part in (np.real, np.imag)]
    estimate = complex(parts[0][0], parts[1][0])
    bound = parts[0][1] + parts[1][1]
    # a 4th element is QUADPACK's non-convergence message
    if any(len(out) > 3 for out in parts) or bound > max(abs_tol, rel_tol * abs(estimate)):
        raise QuadratureError("plain kernel route did not converge",
                              estimate=estimate, error_bound=bound)
    return estimate


# dynamics-diss configurations whose kernel samples the plain route could
# not converge: (argv, lambda, tmax, steps), each with gamma0 = omega_q = 1
PLAIN_ROUTE_FAULTS = [
    (["dynamics-diss", "--tmax", "1.9568627450980391", "--steps", "2"], 1.0, 1.9568627450980391, 2),
    (["dynamics-diss", "--lambda", "0.7", "--tmax", "0.39166666666666666", "--steps", "1"],
     0.7, 0.39166666666666666, 1),
    (["dynamics-diss", "--omega-q", "1", "--lambda", "0.1", "--tmax", "10", "--steps", "100"],
     0.1, 10.0, 100),
]


class TestOscillatoryWeightAtEveryTime:
    @pytest.mark.parametrize("gamma0, lam, omega_q", [
        (1.0, 1.0, 1.0), (1.0, 1.0, 50.0), (0.5, 0.3, 2.0), (2.0, 2.0, 0.5), (1.0, 0.1, 1.0),
    ])
    def test_matches_plain_route_where_it_converges(self, gamma0, lam, omega_q):
        j = Lorentzian(gamma0, lam, omega_q)
        mk = memory_kernel(j, omega_q)
        compared = 0
        for t in np.linspace(0.01, 45.0 / j.omega_max, 12):
            try:
                oracle = plain_kernel(j, omega_q, t)
            except QuadratureError:
                continue
            assert abs(mk.f(t) - oracle) <= 1e-12 * abs(oracle)
            compared += 1
        assert compared >= 11

    @pytest.mark.parametrize("argv, lam, tmax, steps", PLAIN_ROUTE_FAULTS,
                             ids=[" ".join(case[0]) for case in PLAIN_ROUTE_FAULTS])
    def test_plain_route_faults_now_run(self, argv, lam, tmax, steps, capsys):
        assert main(argv) == 0
        rows = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
        assert len(rows) == steps + 2  # header and steps + 1 time points

    @pytest.mark.parametrize("argv, lam, tmax, steps", PLAIN_ROUTE_FAULTS,
                             ids=[" ".join(case[0]) for case in PLAIN_ROUTE_FAULTS])
    def test_plain_route_fault_samples_match_dense_simpson(self, argv, lam, tmax, steps):
        j = Lorentzian(1.0, lam, 1.0)
        mk = memory_kernel(j, 1.0)
        w = np.linspace(0.0, j.omega_max, 2_000_001)
        for t in (tmax / steps, tmax):
            oracle = simpson(j(w) * np.exp(1j * (1.0 - w) * t), x=w)
            assert mk.f(t) == pytest.approx(oracle, rel=1e-10)


# ---------------------------------------------------------------------------
# decay amplitude G(t)
# ---------------------------------------------------------------------------


class TestDecayAmplitude:
    def test_volterra_matches_closed_form_resonant(self):
        # gamma0 = lam -> G(t) = e^{-lam t/2} (cos(lam t/2) + sin(lam t/2)),
        # so G(pi) = e^{-pi/2}.  Drive the solver with the closed full-line
        # kernel so only the Volterra discretisation error remains.
        grid = TimeGrid(np.pi / 1000, 1001)
        G = solve_volterra(lorentzian_kernel_closed(1.0, 1.0).samples(grid), grid)
        target = np.exp(-np.pi / 2)
        assert target == pytest.approx(0.20787957635076193, abs=1e-16)
        assert abs(G[-1] - target) < 1e-5

    def test_closed_series_matches_volterra_on_grid(self):
        grid = TimeGrid(np.pi / 1000, 1001)
        G_num = solve_volterra(lorentzian_kernel_closed(1.0, 1.0).samples(grid), grid)
        G_cl = decay_amplitude_closed_series(1.0, 1.0, grid)
        assert np.max(np.abs(G_num - G_cl.values)) < 1e-5

    def test_closed_form_overdamped_and_underdamped(self):
        # underdamped (lam < 2 gamma0): oscillatory with zeros;
        # overdamped (lam > 2 gamma0): monotone decay, no zeros.
        t = np.linspace(0.0, 20.0, 2001)
        g_under = decay_amplitude_lorentzian_closed(1.0, 0.1, t)
        g_over = decay_amplitude_lorentzian_closed(1.0, 4.0, t)
        assert np.min(np.abs(g_under)) < 1e-2  # passes through (near) zero
        assert np.all(np.abs(g_over[1:]) < np.abs(g_over[:-1]) + 1e-15)
        assert np.min(np.abs(g_over)) > 0.0

    def test_closed_form_start_is_exactly_one(self):
        grid = TimeGrid(0.1, 11)
        G = decay_amplitude_closed_series(0.7, 0.3, grid)
        assert isinstance(G, Series) and G.values.dtype == complex
        assert G.values[0] == 1.0 + 0.0j

    def test_auto_uses_closed_form_in_weak_narrow_regime(self):
        # lam <= 0.02 * omega_q: closed form admissible, half-line and
        # full-line kernels agree to well under 1e-3. Frozen oracle run:
        # max relative deviation 3.2e-6 for this configuration.
        wq = 50.0
        j = Lorentzian(1.0, 1.0, wq)
        grid = TimeGrid(np.pi / 200, 201)
        G_auto = decay_amplitude_auto(j, wq, grid)
        G_vol = decay_amplitude(j, wq, grid)
        rel = np.max(np.abs(G_auto.values - G_vol.values)) / np.max(np.abs(G_vol.values))
        assert rel < 1e-3
        assert G_auto.source == "lorentzian_closed_form"

    def test_auto_falls_back_to_volterra_when_line_is_broad(self):
        j = Lorentzian(1.0, 0.5, 1.0)  # lam = 0.5 * omega_q
        grid = TimeGrid(0.05, 41)
        G = decay_amplitude_auto(j, 1.0, grid)
        assert G.source == "volterra"

    def test_volterra_route_starts_at_exactly_one(self):
        grid = TimeGrid(0.05, 5)
        G = decay_amplitude(Lorentzian(1.0, 0.5, 1.0), 1.0, grid)
        assert G.source == "volterra" and G.values.dtype == complex
        assert G.values[0] == 1.0 + 0.0j


# ---------------------------------------------------------------------------
# post-selected states and survival probability
# ---------------------------------------------------------------------------


class TestPostselectedStateDiss:
    def test_matches_generic_postselection_map(self):
        # Build the evolved per-path state explicitly (amplitude-damping on a
        # pure initial state) and push it through the generic N-path
        # post-selection; the closed form must agree entry by entry.
        rng = np.random.default_rng(7)
        for N, n in [(1, 0), (2, 0), (3, 1), (5, 2), (8, 3)]:
            th = rng.uniform(0.0, np.pi)
            ce0, cg0 = np.cos(th / 2), np.sin(th / 2) * np.exp(0.3j)
            g = rng.uniform(0.2, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            R = r_factor(N, n)
            ee = R * abs(g) ** 2 * abs(ce0) ** 2
            eg = R * g * ce0 * np.conj(cg0)
            gg = R * abs(cg0) ** 2 + (1.0 / N) * abs(ce0) ** 2 * (1.0 - abs(g) ** 2)
            st = postselected_state_diss(ce0, cg0, g, N, n)
            assert st.matrix[0, 0] == pytest.approx(ee, rel=1e-13, abs=1e-15)
            assert st.matrix[0, 1] == pytest.approx(eg, rel=1e-13, abs=1e-15)
            assert st.matrix[1, 1] == pytest.approx(gg, rel=1e-13, abs=1e-15)

    def test_no_interferometer_reduces_to_amplitude_damping(self):
        g = 0.6 * np.exp(0.4j)
        st = postselected_state_diss(0.8, 0.6, g, 1, 0)
        assert st.matrix[0, 0] == pytest.approx(abs(g) ** 2 * 0.64, rel=1e-14)
        assert st.matrix[1, 1] == pytest.approx(0.36 + 0.64 * (1 - abs(g) ** 2), rel=1e-14)
        assert st.trace == pytest.approx(1.0, rel=1e-14)

    def test_population_freezing_large_n(self):
        # N = 10^4, n = 1, |G|^2 = 0.5: the normalised excited population
        # stays within 1.1e-4 of one (frozen oracle: 0.9998999699949996).
        st = postselected_state_diss(1.0, 0.0, np.sqrt(0.5), 10_000, 1)
        norm, p = normalize(st)
        ee = norm.matrix[0, 0].real
        assert ee == pytest.approx(0.9998999699949996, abs=1e-14)
        assert 1.0 - ee < 1.1e-4

    def test_survival_probability_formula_and_frozen_value(self):
        # p = R|G|^2 / (R|G|^2 + (1-|G|^2)/N) for an excited-state start...
        # no: p is the post-selection success probability, the trace of the
        # unnormalised state: p = R|G|^2 + (1-|G|^2)/N.
        p = survival_probability_diss(np.sqrt(0.99), 4, 0)
        assert p == pytest.approx(0.99 / 0.9925, rel=1e-14)
        # matches the trace of the unnormalised post-selected state
        st = postselected_state_diss(1.0, 0.0, np.sqrt(0.99), 4, 0)
        _, ptr = normalize(st)
        # survival here is the *renormalised excited population*; check both
        # conventions explicitly against the state
        assert p == pytest.approx(st.matrix[0, 0].real / ptr, rel=1e-13)

    def test_survival_array_and_null(self):
        g = np.array([1.0, 0.8, 0.5])
        p = survival_probability_diss(g, 2, 0)
        assert p.shape == (3,)
        assert p[0] == pytest.approx(1.0, rel=1e-15)
        assert np.all(np.diff(p) < 0)
        with pytest.raises(NullOutcome):
            survival_probability_diss(np.array([1.0, 0.0]), 2, 0)
        with pytest.raises(NullOutcome):
            decay_factor(np.array([0.5, 0.0]))

    def test_decay_factor_is_minus_log_survival(self):
        p = survival_probability_diss(np.array([0.9, 0.6]), 3, 1)
        assert np.allclose(decay_factor(p), -np.log(p), rtol=1e-14)
        assert decay_factor(1.0) == 0.0


# ---------------------------------------------------------------------------
# distinguishability of post-selected states
# ---------------------------------------------------------------------------


class TestTraceDistanceDiss:
    def test_matches_direct_construction(self):
        # Oracle: build both normalised post-selected states from the
        # (|e> +- |g>)/sqrt(2) pair and take the trace distance directly.
        rng = np.random.default_rng(42)
        for N in range(1, 7):
            for n in range((N + 1) // 2):
                for _ in range(5):
                    g = rng.uniform(1e-3, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                    a, _ = normalize(postselected_state_diss(np.sqrt(0.5), np.sqrt(0.5), g, N, n))
                    b, _ = normalize(postselected_state_diss(np.sqrt(0.5), -np.sqrt(0.5), g, N, n))
                    direct = trace_distance(a, b)
                    assert trace_distance_diss(g, N, n) == pytest.approx(direct, abs=1e-12)

    def test_frozen_value(self):
        # N=3, n=1, |G|^2 = 1/2: D = sqrt(2)/3 (frozen from the direct
        # construction before implementation).
        assert trace_distance_diss(np.sqrt(0.5), 3, 1) == pytest.approx(
            0.47140452079103168, abs=1e-15
        )

    def test_single_path_reduces_to_abs_g(self):
        for g in [0.3, 0.7 * np.exp(1.1j), 1.0]:
            assert trace_distance_diss(g, 1, 0) == pytest.approx(abs(g), rel=1e-14)

    def test_monotone_in_abs_g(self):
        g = np.linspace(0.0, 1.0, 101)
        d = trace_distance_diss(g, 3, 1)
        assert np.all(np.diff(d) > 0)
        assert d[0] == 0.0

    def test_balanced_split_rejected(self):
        with pytest.raises(ValueError):
            trace_distance_diss(0.5, 4, 2)

    def test_distinguishability_recovered_with_more_paths(self):
        # The pair distance *grows* with N at fixed n toward 2|G|/(1+|G|^2):
        # post-selection restores coherence that plain damping destroyed.
        g = np.sqrt(0.3)
        limit = 2 * g / (1 + g**2)
        prev = trace_distance_diss(g, 1, 0)
        assert prev == pytest.approx(g, rel=1e-14)
        for N in (10, 100, 1000):
            cur = trace_distance_diss(g, N, 1)
            assert cur > prev
            prev = cur
        assert trace_distance_diss(g, 10**6, 1) == pytest.approx(limit, rel=1e-4)

    def test_freezing_distance_halves_when_paths_double(self):
        # Distance of the normalised post-selected state (excited start) to
        # the frozen target |e><e| drops by >= 1.9x per doubling of N.
        target = QubitState.excited()
        for g2 in (0.3, 0.5, 0.9):
            g = np.sqrt(g2)

            def dist(N):
                st, _ = normalize(postselected_state_diss(1.0, 0.0, g, N, 1))
                return trace_distance(st, target)

            prev = dist(10)
            for N in (20, 40, 80, 160):
                cur = dist(N)
                assert prev / cur >= 1.9
                prev = cur


# ---------------------------------------------------------------------------
# intermediate-map analysis
# ---------------------------------------------------------------------------


class TestChoiAndDivisibility:
    def test_choi_entries_and_eigenvalues(self):
        # For ratio r = G(t+dt)/G(t) the two-step map has a 4x4 matrix with
        # known entries and eigenvalues {0, 1+|r|^2, Nbar(1-|r|^2), 0}.
        r = 0.8 * np.exp(0.5j)
        N, n = 3, 1
        nbar = N / (N - 2 * n) ** 2
        m = choi_intermediate_map(1.0, r, N, n)
        assert m.shape == (4, 4)
        assert m[0, 0] == 1.0
        assert m[0, 3] == pytest.approx(np.conj(r), rel=1e-15)
        assert m[3, 0] == pytest.approx(r, rel=1e-15)
        assert m[3, 3] == pytest.approx(abs(r) ** 2, rel=1e-15)
        assert m[1, 1] == pytest.approx(nbar * (1 - abs(r) ** 2), rel=1e-15)
        eig = np.linalg.eigvalsh(m)
        expected = np.sort([0.0, 0.0, 1 + abs(r) ** 2, nbar * (1 - abs(r) ** 2)])
        assert np.allclose(eig, expected, atol=1e-12)

    def test_cp_iff_ratio_contracts(self):
        assert np.linalg.eigvalsh(choi_intermediate_map(1.0, 0.99, 3, 1))[0] >= -1e-12
        assert np.linalg.eigvalsh(choi_intermediate_map(1.0, 1.01, 3, 1))[0] < -1e-4

    def test_markovian_lorentzian_is_divisible(self):
        grid = TimeGrid(0.01, 1001)
        g = decay_amplitude_closed_series(1.0, 4.0, grid)
        ok, t = is_cp_divisible(g)
        assert ok and t is None

    def test_nonmarkovian_lorentzian_violation_time(self):
        # lam = 0.1 gamma0: |G|^2 first grows just after G's first zero.
        # Analytic zero: cos(|d|t/2) + (lam/|d|) sin(|d|t/2) = 0 at
        # t = 8.2420343...; on a dt = 0.01 grid the first violating interval
        # midpoint is 8.245 (frozen).
        lam = 0.1
        d = abs(np.sqrt(complex(lam**2 - 2 * lam)))
        t_zero = brentq(lambda t: np.cos(d * t / 2) + (lam / d) * np.sin(d * t / 2), 7.5, 9.0)
        assert t_zero == pytest.approx(8.242034311692073, abs=1e-10)
        grid = TimeGrid(0.01, 6001)
        g = decay_amplitude_closed_series(1.0, lam, grid)
        ok, t_viol = is_cp_divisible(g)
        assert not ok
        assert t_viol == pytest.approx(8.245, abs=1e-12)
        assert 0.0 < t_viol - t_zero < 0.011

    def test_choi_route_agrees_with_derivative_route(self):
        grid = TimeGrid(0.02, 1501)
        g = decay_amplitude_closed_series(1.0, 0.1, grid)
        g2 = np.abs(g.values) ** 2
        tol = 1e-9 * g2.max()
        deriv_ok = (np.diff(g2) / grid.dt) <= tol
        for N, n in [(1, 0), (3, 0), (3, 1), (5, 2)]:
            ok, t_viol, ok_arr = cp_divisible_choi(g, N, n)
            assert np.array_equal(ok_arr, deriv_ok)
            ok_d, t_d = is_cp_divisible(g)
            assert ok == ok_d
            assert t_viol == t_d

    def test_choi_route_markovian(self):
        grid = TimeGrid(0.01, 801)
        g = decay_amplitude_closed_series(1.0, 4.0, grid)
        ok, t_viol, ok_arr = cp_divisible_choi(g, 3, 1)
        assert ok and t_viol is None and bool(np.all(ok_arr))
