"""Tests for the collective-decay (indefinite position) module.

The central verification is the cross-oracle between the RK4-integrated
master equation on the control (x) qubit space and the closed-form
post-selected excited population; both were frozen from an independent
derivation of the single-excitation block solution (excited block decays as
e^{-Gamma0 t} uniformly, ground coherences fill in weighted by the
collective matrix).
"""

import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from geometry_oracle import (
    Geometry,
    dicke_rates_two_atom,
    qd_for_collective_factor,
    rates_from_geometry,
)
from zenotraj import dicke
from zenotraj.dicke import (
    _HISTORY_BYTES,
    SINC_MIN,
    CollectiveRateMatrix,
    build_master_generator,
    evolve_collective,
    excited_population_analytic,
    excited_population_numeric,
    superposed_initial_state,
)
from zenotraj.errors import NullOutcome, NumericError
from zenotraj.filters import sinc
from zenotraj.numerics import _SIZE_BUDGET, TimeGrid


def validate_control_state(m, psd_tol=1e-10, trace_tol=1e-9):
    """Hermitian, positive semidefinite, unit-trace 2N x 2N control (x) qubit state."""
    if np.max(np.abs(m - m.conj().T)) > 1e-10:
        raise ValueError("state is not Hermitian")
    if float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]) < -psd_tol:
        raise ValueError("state is not positive semidefinite")
    if abs(np.trace(m).real - 1.0) > trace_tol:
        raise ValueError("state trace is not 1")


class TestGeometry:
    def test_equal_distance_constructions(self):
        for n, d in [(2, 0.8), (3, 1.3), (4, 2.1)]:
            geom = Geometry.equal_distance(n, d, 1.0)
            dm = geom.distance_matrix
            assert dm.shape == (n, n)
            off = dm[~np.eye(n, dtype=bool)]
            # all pairwise distances equal the requested one
            assert np.allclose(off, d, rtol=1e-12)
            assert off.max() - off.min() < 1e-12

    def test_from_positions(self):
        geom = Geometry.from_positions([[0, 0, 0], [3, 4, 0]], 2.0)
        assert geom.distance_matrix[0, 1] == pytest.approx(5.0, rel=1e-15)
        assert geom.n_sites == 2

    def test_unsupported_equal_distance(self):
        with pytest.raises(ValueError):
            Geometry.equal_distance(5, 1.0, 1.0)

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValueError):
            Geometry(np.array([[0.0, 1.0], [2.0, 0.0]]), 1.0)  # asymmetric
        with pytest.raises(ValueError):
            Geometry(np.array([[0.5]]), 1.0)  # nonzero self-distance


class TestRateMatrix:
    def test_from_geometry_entries(self):
        qd = 1.2
        geom = Geometry.equal_distance(3, qd, 1.0)
        m = rates_from_geometry(geom, 2.0)
        assert np.all(np.diag(m.matrix) == 1.0)
        off = m.matrix[~np.eye(3, dtype=bool)]
        assert np.allclose(off, sinc(qd), rtol=1e-14)
        assert m.gamma0 == 2.0

    def test_equal_distance_matrices_are_psd(self):
        for n in (2, 3, 4):
            for qd in (0.5, 2.0, np.pi, 4.49):  # incl. near the sinc minimum
                geom = Geometry.equal_distance(n, qd, 1.0)
                m = rates_from_geometry(geom, 1.0)
                assert np.linalg.eigvalsh(m.matrix)[0] >= -1e-10

    def test_entry_range_enforced(self):
        with pytest.raises(ValueError):
            CollectiveRateMatrix.from_factor(3, 1.2, 1.0)
        with pytest.raises(ValueError):
            CollectiveRateMatrix.from_factor(3, -0.3, 1.0)
        with pytest.raises(ValueError):
            CollectiveRateMatrix.from_factor(3, 0.5, 0.0)

    def test_uniform_factor_below_the_psd_floor_is_refused(self):
        # eigenvalues 1 + (N-1) s and 1 - s: physical for s >= -1/(N-1)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            CollectiveRateMatrix.from_factor(6, -0.21, 1.0)
        assert np.linalg.eigvalsh(CollectiveRateMatrix.from_factor(6, -0.2, 1.0).matrix)[0] > -1e-12
        for n in range(6, 12):  # the singular boundary stays accepted
            CollectiveRateMatrix.from_factor(n, -1.0 / (n - 1), 1.0)

    def test_closed_form_floor_agrees_with_the_spectrum(self):
        with pytest.raises(ValueError, match=r"s >= -1/\(N-1\) = -0.2 for N = 6"):
            CollectiveRateMatrix.check_factor(6, -0.21)
        CollectiveRateMatrix.check_factor(1, SINC_MIN)
        for n in range(2, 12):
            for s in np.linspace(SINC_MIN, 1.0, 41):
                m = np.full((n, n), s)
                np.fill_diagonal(m, 1.0)
                refused = np.linalg.eigvalsh(m)[0] < -1e-12
                try:
                    CollectiveRateMatrix.check_factor(n, s)
                    assert not refused, (n, s)
                except ValueError:
                    assert refused, (n, s)

    def test_general_matrix_refusal_names_the_eigenvalue(self):
        m = np.full((6, 6), -0.21)
        m[0, 1] = m[1, 0] = -0.2
        np.fill_diagonal(m, 1.0)
        with pytest.raises(ValueError, match="smallest eigenvalue -0.04") as info:
            CollectiveRateMatrix(m, 1.0)
        assert "N-1" not in str(info.value)

    def test_floor_is_the_minimum_of_sinc(self):
        # sinc is smallest at the root of tan x = x near 4.4934
        with mpmath.workdps(30):
            root = mpmath.findroot(lambda x: mpmath.tan(x) - x, 4.4934)
            assert SINC_MIN == float(mpmath.sin(root) / root)
        x = float(root) + 1e-10 * np.arange(-10_000, 10_001)
        assert sinc(x).min() >= SINC_MIN
        CollectiveRateMatrix.from_factor(3, SINC_MIN, 1.0)
        CollectiveRateMatrix.from_factor(3, -0.2172, 1.0)
        with pytest.raises(ValueError, match="entries must lie in"):
            CollectiveRateMatrix.from_factor(3, np.nextafter(SINC_MIN, -1.0), 1.0)


class TestSincRoot:
    def test_basic_sinc(self):
        assert sinc(0.0) == 1.0
        assert sinc(np.pi) == pytest.approx(0.0, abs=1e-16)

    def test_one_sixth_root(self):
        qd = qd_for_collective_factor(1.0 / 6.0)
        assert abs(sinc(qd) - 1.0 / 6.0) < 1e-10
        # frozen root (rounds to the quoted 2.68)
        assert qd == pytest.approx(2.6787831084724494, abs=1e-12)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            qd_for_collective_factor(1.5)


class TestTwoAtomRates:
    def test_small_sample_limit(self):
        plus, minus = dicke_rates_two_atom(1.0, 1e-12)
        assert plus == pytest.approx(2.0, rel=1e-12)
        assert minus == pytest.approx(0.0, abs=1e-12)

    def test_one_sixth_split(self):
        qd = qd_for_collective_factor(1.0 / 6.0)
        plus, minus = dicke_rates_two_atom(1.0, qd)
        assert plus == pytest.approx(7.0 / 6.0, rel=1e-10)
        assert minus == pytest.approx(5.0 / 6.0, rel=1e-10)

    def test_independent_atoms(self):
        plus, minus = dicke_rates_two_atom(3.0, np.pi)
        assert plus == pytest.approx(3.0, rel=1e-14)
        assert minus == pytest.approx(3.0, rel=1e-14)


class TestGenerator:
    def test_cross_lowering_products_vanish(self):
        # L_j^+ L_i = 0 for i != j: orthogonal control projectors make the
        # printed cross term coincide with the standard non-diagonal form
        n = 4
        sm = np.array([[0, 0], [1, 0]], dtype=complex)
        ls = []
        for i in range(n):
            p = np.zeros((n, n), dtype=complex)
            p[i, i] = 1.0
            ls.append(np.kron(p, sm))
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert np.max(np.abs(ls[j].conj().T @ ls[i])) == 0.0

    def test_matches_explicit_lindblad_sum(self):
        # oracle: build the generator from the operator sum directly
        rng = np.random.default_rng(2)
        n, s, g0 = 3, 0.3, 1.7
        rates = CollectiveRateMatrix.from_factor(n, s, g0)
        gen = build_master_generator(rates)
        sm = np.array([[0, 0], [1, 0]], dtype=complex)
        ls = []
        for i in range(n):
            p = np.zeros((n, n), dtype=complex)
            p[i, i] = 1.0
            ls.append(np.kron(p, sm))
        rho = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
        rho = rho + rho.conj().T
        expected = np.zeros_like(rho)
        for i in range(n):
            li = ls[i]
            expected += g0 * (
                li @ rho @ li.conj().T
                - 0.5 * (li.conj().T @ li @ rho + rho @ li.conj().T @ li)
            )
        for i in range(n):
            for j in range(n):
                if i != j:
                    expected += g0 * s * (ls[i] @ rho @ ls[j].conj().T)
        assert np.max(np.abs(gen(rho) - expected)) < 1e-13

    def test_trace_preservation_random_states(self):
        rng = np.random.default_rng(9)
        rates = CollectiveRateMatrix.from_factor(4, 1.0 / 6.0, 1.0)
        gen = build_master_generator(rates)
        for _ in range(5):
            rho = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            rho = rho + rho.conj().T
            assert abs(np.trace(gen(rho))) < 1e-12 * np.max(np.abs(rho))

    def test_single_site_amplitude_damping(self):
        rates = CollectiveRateMatrix.from_factor(1, 0.0, 1.0)
        grid = TimeGrid(1e-3, 1001)
        states = evolve_collective(rates, superposed_initial_state(1), grid)
        p = excited_population_numeric(states, 1, 0)
        assert np.max(np.abs(p - np.exp(-grid.times))) < 1e-9

    def test_rk4_step_beyond_stability_limit_rejected(self):
        # the generator's fastest mode is -gamma0; RK4 stays stable on the
        # real axis up to gamma0*dt = 2.7853
        rates = CollectiveRateMatrix.from_factor(3, 0.99, 2.0)
        rho0 = superposed_initial_state(3)
        states = evolve_collective(rates, rho0, TimeGrid(1.39, 4))
        assert np.all(np.abs(states) <= 1.0)
        with pytest.raises(NumericError, match="stability limit"):
            evolve_collective(rates, rho0, TimeGrid(1.40, 4))


class TestStateHistoryBudget:
    """evolve_collective keeps (steps + 1) (2N)^2 complex entries, within the size budget."""

    @pytest.mark.parametrize("n_sites", [1, 2, 100])
    def test_budget_is_inclusive(self, n_sites, monkeypatch):
        # the integrator is stubbed out: a history at the budget is not allocated here
        monkeypatch.setattr(dicke, "integrate_matrix_ode", lambda gen, rho0, grid: grid.count)
        rates = CollectiveRateMatrix.from_factor(n_sites, 0.5, 1.0)
        rho0 = superposed_initial_state(n_sites)
        count = _SIZE_BUDGET // (_HISTORY_BYTES * (2 * n_sites) ** 2)
        assert evolve_collective(rates, rho0, TimeGrid(1e-9, count)) == count
        entries = (count + 1) * (2 * n_sites) ** 2
        with pytest.raises(NumericError, match=f"^{entries:,} state-history entries, 21 bytes "
                                               "each, exceed the size budget of 1,073,741,824 "
                                               "bytes; shrink --steps or --N$"):
            evolve_collective(rates, rho0, TimeGrid(1e-9, count + 1))

    def test_refused_before_the_history_is_allocated(self):
        # 10**9 steps of a 4 x 4 state would hold 256 GB
        rates = CollectiveRateMatrix.from_factor(2, 0.5, 1.0)
        rho0 = superposed_initial_state(2)
        tracemalloc.start()
        try:
            with pytest.raises(NumericError, match="16,000,000,016 state-history entries"):
                evolve_collective(rates, rho0, TimeGrid(1e-9, 10**9 + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestExcitedPopulation:
    S = 1.0 / 6.0

    def test_t_zero_is_one(self):
        for n_paths, n in [(2, 0), (3, 1), (4, 1), (5, 2)]:
            val = excited_population_analytic(0.0, n_paths, n, 1.0, self.S)
            assert val == pytest.approx(1.0, abs=1e-15)

    def test_collapse_to_single_emitter_as_s_to_one(self):
        x = np.linspace(0.0, 5.0, 501)
        for n_paths in (2, 3, 4):
            for n in (0, 1):
                if 2 * n == n_paths:
                    continue
                p = excited_population_analytic(x, n_paths, n, 1.0, 1.0 - 1e-9)
                assert np.max(np.abs(p - np.exp(-x))) < 1e-6

    def test_frozen_spot_values(self):
        # x = 1, s = 1/6: closed forms 9e/(4+5e) and 3e/(8-5e)
        p30 = excited_population_analytic(1.0, 3, 0, 1.0, self.S)
        p31 = excited_population_analytic(1.0, 3, 1, 1.0, self.S)
        assert p30 == pytest.approx(0.5669960192504058, abs=1e-15)
        assert p31 == pytest.approx(0.17914453510354775, abs=1e-15)
        assert p30 == pytest.approx(9 * np.exp(-1) / (4 + 5 * np.exp(-1)), rel=1e-14)
        assert p31 == pytest.approx(3 * np.exp(-1) / (8 - 5 * np.exp(-1)), rel=1e-14)
        # ordering against the two-atom rates at the same collective factor
        assert p30 > np.exp(-5.0 / 6.0) > np.exp(-7.0 / 6.0) > p31

    def test_monotone_nonincreasing(self):
        x = np.linspace(0.0, 5.0, 301)
        for n_paths in (2, 3, 4, 5):
            for n in range((n_paths + 1) // 2):
                for s in (0.0, self.S, 0.5, 0.9, 1.0):
                    p = excited_population_analytic(x, n_paths, n, 1.0, s)
                    assert np.all(np.diff(p) <= 1e-12)

    def test_bracketing_window_and_late_crossing(self):
        # On (0, x*] with x* = 4.80444..., the three-path no-shift population
        # stays above the subradiant envelope e^{-5x/6}; beyond x* it drops
        # below, so the Fig.-3-style ordering holds only on a finite window.
        h = lambda v: 9.0 * v - 5.0 * v**6 - 4.0
        v_star = brentq(h, 0.4, 0.9999, xtol=1e-15)
        x_star = -6.0 * np.log(v_star)
        assert x_star == pytest.approx(4.804444447645411, abs=1e-9)
        x_in = np.linspace(1e-3, x_star - 1e-6, 400)
        p30 = excited_population_analytic(x_in, 3, 0, 1.0, self.S)
        assert np.all(p30 > np.exp(-5.0 * x_in / 6.0))
        x_out = np.linspace(x_star + 1e-6, 5.0, 50)
        p30_out = excited_population_analytic(x_out, 3, 0, 1.0, self.S)
        assert np.all(p30_out < np.exp(-5.0 * x_out / 6.0))
        # the one-shift leg stays below the superradiant envelope on (0, 5]
        x_all = np.linspace(1e-3, 5.0, 500)
        p31 = excited_population_analytic(x_all, 3, 1, 1.0, self.S)
        assert np.all(p31 < np.exp(-7.0 * x_all / 6.0))

    def test_null_configuration_rejected(self):
        with pytest.raises(ValueError):
            excited_population_analytic(1.0, 4, 2, 1.0, self.S)


class TestCrossOracle:
    def test_numeric_matches_analytic_three_sites(self):
        # the module's central verification: equilateral triangle at the
        # collective factor 1/6, RK4 dt = 1e-3/Gamma0, both phase patterns
        qd = qd_for_collective_factor(1.0 / 6.0)
        rates = rates_from_geometry(Geometry.equal_distance(3, qd, 1.0), 1.0)
        grid = TimeGrid(1e-3, 2001)
        states = evolve_collective(rates, superposed_initial_state(3), grid)
        for n in (0, 1):
            num = excited_population_numeric(states, 3, n)
            ana = excited_population_analytic(grid.times, 3, n, 1.0, sinc(qd))
            assert np.max(np.abs(num - ana)) < 1e-6
        assert excited_population_numeric(states[0], 3, 1) == pytest.approx(1.0, abs=1e-12)

    def test_numeric_matches_analytic_tetrahedron(self):
        qd = qd_for_collective_factor(1.0 / 6.0)
        rates = rates_from_geometry(Geometry.equal_distance(4, qd, 1.0), 1.0)
        grid = TimeGrid(1e-3, 1001)
        states = evolve_collective(rates, superposed_initial_state(4), grid)
        for n in (0, 1):
            num = excited_population_numeric(states, 4, n)
            ana = excited_population_analytic(grid.times, 4, n, 1.0, 1.0 / 6.0)
            assert np.max(np.abs(num - ana)) < 1e-6

    def test_states_stay_physical(self):
        rates = CollectiveRateMatrix.from_factor(3, 1.0 / 6.0, 1.0)
        grid = TimeGrid(1e-3, 1001)
        states = evolve_collective(rates, superposed_initial_state(3), grid)
        for k in range(0, 1001, 200):
            validate_control_state(states[k], psd_tol=1e-8)

    def test_null_postselection_raises(self):
        rates = CollectiveRateMatrix.from_factor(4, 1.0 / 6.0, 1.0)
        grid = TimeGrid(1e-3, 3)
        states = evolve_collective(rates, superposed_initial_state(4), grid)
        with pytest.raises(NullOutcome):
            excited_population_numeric(states, 4, 2)

    def test_dimension_mismatch_rejected(self):
        rates = CollectiveRateMatrix.from_factor(3, 0.5, 1.0)
        with pytest.raises(ValueError):
            evolve_collective(rates, superposed_initial_state(2), TimeGrid(0.1, 3))
        with pytest.raises(ValueError):
            excited_population_numeric(np.eye(6, dtype=complex) / 6.0, 2, 0)
