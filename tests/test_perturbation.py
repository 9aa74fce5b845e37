"""Tests for the general second-order engine."""

import functools
import tracemalloc

import numpy as np
import pytest

from zenotraj import perturbation
from zenotraj.core import (
    GaussianPeak,
    Lorentzian,
    Ohmic,
    QubitState,
    Tabulated,
    binary_phases,
    phase_pair_sum,
)
from zenotraj.dephasing import DephasingParams, dephasing_exponent
from zenotraj.dissipative import memory_kernel
from zenotraj.errors import NullOutcome, NumericError, QuadratureError
from zenotraj.filters import decay_factor_overlap, filter_diss, filter_deph
from zenotraj.numerics import TimeGrid, solve_volterra
from zenotraj.perturbation import (
    CouplingModel,
    _rotated_operators,
    dephasing_coupling_model,
    dissipative_coupling_model,
    general_decay_factor,
    general_filter,
    second_order_block,
)

from perturbation_oracle import oracle_block, oracle_decay_factor

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

LORENTZIAN = Lorentzian(gamma0=4.0, lam=2.0, omega_q=1.0)
OHMIC = Ohmic(eta=1.0 / 3.0, s=1.0, omega_c=1.0)


class TestPhaseProfile:
    def test_pair_sum_identity_exact_small_n(self):
        # sum_{kl} e^{-i(phi_k - phi_l)} == (N - 2n)^2 exactly for binary phases
        for n_paths in range(1, 11):
            for n_shifts in range(0, n_paths // 2 + 1):
                s = phase_pair_sum(binary_phases(n_paths, n_shifts))
                assert s == float((n_paths - 2 * n_shifts) ** 2)

    def test_pair_sum_general_phases(self):
        phases = np.array([0.0, 0.4, -1.1])
        expected = abs(np.sum(np.exp(-1j * phases))) ** 2
        assert phase_pair_sum(phases) == pytest.approx(expected, rel=1e-14)


class TestCouplingModel:
    def test_validation(self):
        table = np.ones((1, 1))
        with pytest.raises(ValueError):
            CouplingModel(np.array([[0.0, 1.0], [0.0, 0.0]]), (SX,), table, (LORENTZIAN,))
        with pytest.raises(ValueError):
            CouplingModel(SZ, (np.array([[0.0, 1.0], [0.0, 0.0]]),), table, (LORENTZIAN,))
        with pytest.raises(ValueError):
            CouplingModel(SZ, (), table, (LORENTZIAN,))
        with pytest.raises(ValueError):
            CouplingModel(SZ, (SX,), table, ())

    @pytest.mark.parametrize("table", [np.ones((2, 2)), np.ones(1), [[np.nan]], [[1j * np.inf]]],
                             ids=["wrong-size", "not-a-table", "nan", "inf"])
    def test_correlation_table_must_match_operators_and_be_finite(self, table):
        with pytest.raises(ValueError, match="correlations"):
            CouplingModel(SZ, (SX,), table, (LORENTZIAN,))

    def test_factory_tables(self):
        diss = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        np.testing.assert_array_equal(diss.correlations, [[0.25, -0.25j], [0.25j, 0.25]])
        assert diss.correlations.dtype == complex
        np.testing.assert_array_equal(dephasing_coupling_model(OHMIC).correlations, [[1.0]])

    def test_single_density_broadcasts_over_paths(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        assert model.density_for_path(0) is LORENTZIAN
        assert model.density_for_path(3) is LORENTZIAN

    @pytest.mark.parametrize("n_densities, index", [(1, -1), (3, -1), (3, 3)])
    def test_path_index_out_of_range_rejected(self, n_densities, index):
        model = CouplingModel(SZ, (SX,), [[1.0]], (LORENTZIAN, OHMIC, LORENTZIAN)[:n_densities])
        with pytest.raises(ValueError, match="path index"):
            model.density_for_path(index)

    def test_omega_scale_is_level_splitting(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.7)
        assert model.omega_scale == pytest.approx(1.7, rel=1e-14)


def interaction_picture_operator(a, h_q, t):
    """Oracle: A(t) = e^{i H_Q t} A e^{-i H_Q t} by exact 2x2 eigendecomposition."""
    a = np.asarray(a, dtype=complex)
    h = np.asarray(h_q, dtype=complex)
    if np.max(np.abs(h - h.conj().T)) > 1e-12:
        raise ValueError("h_q must be Hermitian")
    d, u = np.linalg.eigh(h)
    e = u @ np.diag(np.exp(1j * d * t)) @ u.conj().T
    return e @ a @ e.conj().T


class TestInteractionPicture:
    def test_rotated_operator_stack_matches_oracle(self):
        model = CouplingModel(np.array([[0.3, 0.2 - 0.5j], [0.2 + 0.5j, -0.9]]),
                              (SX, SY, SZ), np.eye(3), (LORENTZIAN,))
        times = np.linspace(0.0, 2.5, 7)
        stack = _rotated_operators(model, times)
        assert stack.shape == (3, times.size, 2, 2)
        for alpha, a in enumerate(model.operators):
            for k, t in enumerate(times):
                np.testing.assert_allclose(
                    stack[alpha, k], interaction_picture_operator(a, model.h_q, t), atol=1e-14)

    def test_sigma_x_rotation(self):
        # e^{i(wq/2)sz t} sx e^{-i(wq/2)sz t} = cos(wq t) sx - sin(wq t) sy
        omega_q, t = 1.7, 0.83
        rotated = interaction_picture_operator(SX, 0.5 * omega_q * SZ, t)
        expected = np.cos(omega_q * t) * SX - np.sin(omega_q * t) * SY
        np.testing.assert_allclose(rotated, expected, atol=1e-14)

    def test_commuting_operator_is_invariant(self):
        rotated = interaction_picture_operator(SZ, 0.5 * 2.3 * SZ, 1.4)
        np.testing.assert_allclose(rotated, SZ, atol=1e-15)

    def test_non_hermitian_generator_rejected(self):
        with pytest.raises(ValueError):
            interaction_picture_operator(SX, np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)


@functools.lru_cache(maxsize=None)
def _unit_samples(j_unit, omega_q, grid):
    """The unit-coupling memory kernel samples, cached (read-only) across eps."""
    samples = memory_kernel(j_unit, omega_q).samples(grid)
    samples.flags.writeable = False
    return samples


def _volterra_reference(j_unit, omega_q, eps_sq, grid):
    """G(t) for eps^2-scaled coupling, re-using the unit-coupling samples."""
    return solve_volterra(eps_sq * _unit_samples(j_unit, omega_q, grid), grid)


class TestSecondOrderBlock:
    def test_matches_exact_dissipative_dynamics_to_fourth_order(self):
        # The block is the exact eps^2 coefficient, so the deviation from the
        # full solution must fall by ~2^4 per halving of eps.
        omega_q, t = 1.0, 0.2
        grid = TimeGrid(t / 800, 801)
        errs = {}
        for eps in (0.4, 0.2, 0.1):
            j = Lorentzian(gamma0=4.0 * eps**2, lam=2.0, omega_q=1.0)
            model = dissipative_coupling_model(j, omega_q=omega_q)
            block = second_order_block(model, QubitState.excited(), 0, t)
            g = _volterra_reference(LORENTZIAN, omega_q, eps**2, grid)[-1]
            pop = abs(g) ** 2
            exact = np.diag([pop - 1.0, 1.0 - pop]).astype(complex)
            errs[eps] = np.max(np.abs(block - exact))
        assert 12.0 < errs[0.4] / errs[0.2] < 22.0
        assert 12.0 < errs[0.2] / errs[0.1] < 22.0
        assert errs[0.1] < 1e-6

    def test_matches_exact_dephasing_dynamics_to_fourth_order(self):
        t = 1.0
        errs = {}
        for eps in (0.4, 0.2, 0.1):
            j = Ohmic(eta=eps**2 / 3.0, s=1.0, omega_c=1.0)
            model = dephasing_coupling_model(j)
            block = second_order_block(model, QubitState.plus(), 0, t)
            decayed = 0.5 * (np.exp(-dephasing_exponent(DephasingParams(j), t)) - 1.0)
            exact = np.array([[0.0, decayed], [decayed, 0.0]], dtype=complex)
            errs[eps] = np.max(np.abs(block - exact))
        assert 12.0 < errs[0.4] / errs[0.2] < 22.0
        assert 12.0 < errs[0.2] / errs[0.1] < 22.0

    def test_block_is_traceless_and_hermitian(self):
        # Trace preservation holds exactly for the generator; quadrature
        # deviations are reported by this assertion rather than renormalized.
        model = dissipative_coupling_model(Lorentzian(0.16, 2.0, 1.0), omega_q=1.0)
        block = second_order_block(model, QubitState.excited(), 0, 0.3)
        assert abs(np.trace(block)) < 1e-12
        np.testing.assert_allclose(block, block.conj().T, atol=1e-14)

    def test_zero_kernel_gives_zero_block(self):
        model = CouplingModel(0.5 * SZ, (SX,), np.zeros((1, 1)), (LORENTZIAN,))
        block = second_order_block(model, QubitState.excited(), 0, 0.5)
        np.testing.assert_array_equal(block, np.zeros((2, 2)))

    def test_time_edge_cases(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        np.testing.assert_array_equal(
            second_order_block(model, QubitState.excited(), 0, 0.0),
            np.zeros((2, 2)))
        with pytest.raises(ValueError):
            second_order_block(model, QubitState.excited(), 0, -0.1)


class TestGeneralFilter:
    @pytest.mark.parametrize("n_paths,n_shifts", [(1, 0), (3, 1), (5, 2)])
    def test_reproduces_sinc_squared_filter(self, n_paths, n_shifts):
        # The Hermitian-pair decomposition of the energy-exchange coupling
        # must collapse to the sinc^2 filter (all four terms contribute
        # equally), here to machine precision on a 50-point grid.
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        grid = np.linspace(-2.0, 4.0, 50)
        t = 0.5
        got = general_filter(model, QubitState.excited(), grid, t,
                             binary_phases(n_paths, n_shifts))
        want = filter_diss(grid, t, omega_q=1.0, n_paths=n_paths, n_shifts=n_shifts)
        np.testing.assert_allclose(got, want, rtol=1e-6)
        np.testing.assert_allclose(got, want, rtol=1e-12)  # actual accuracy

    @pytest.mark.parametrize("omega", [[-300.0, 200.0], [200.0, 250.0, 300.0]],
                             ids=["both-signs", "above"])
    def test_frequencies_past_the_support_are_resolved(self, omega):
        # J stops at omega_max = 101, but the contraction at omega oscillates
        # at omega_q + |omega|: the mesh is sized from the larger of the two
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        grid = np.array(omega)
        got = general_filter(model, QubitState.excited(), grid, 0.5, binary_phases(3, 1))
        want = filter_diss(grid, 0.5, 3, 1, 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_frequency_past_the_mesh_budget_is_refused(self):
        # the frequency window, not J, sets the mesh, so the refusal names the window
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        with pytest.raises(NumericError, match=r"^2,560,000 \(t1, t2\) mesh nodes, 576 bytes "
                                               r"each, exceed the size budget of 1,073,741,824 "
                                               r"bytes; shrink --t or --omega-min or --omega-max$"):
            general_filter(model, QubitState.excited(), np.array([900.0, 1000.0]), 0.5,
                           binary_phases(3, 1))

    def test_dephasing_shape_with_constant_ratio_four(self):
        # Same (1 - cos wt)/w^2 shape; the overall constant relating the
        # general normalization to the reference filter fits to exactly 4.
        model = dephasing_coupling_model(OHMIC)
        grid = np.linspace(0.05, 6.0, 50)
        t = 1.3
        got = general_filter(model, QubitState.plus(), grid, t, binary_phases(4, 1))
        want = filter_deph(grid, t, n_paths=4, n_shifts=1)
        ratio = got / want
        fitted = np.median(ratio)
        assert np.ptp(ratio) < 1e-8
        assert fitted == pytest.approx(4.0, abs=1e-10)

    def test_scalar_matches_array_and_t_zero(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        prof = binary_phases(3, 1)
        arr = general_filter(model, QubitState.excited(), np.array([1.3]), 0.4, prof)
        scalar = general_filter(model, QubitState.excited(), 1.3, 0.4, prof)
        assert scalar == arr[0]
        assert general_filter(model, QubitState.excited(), 1.3, 0.0, prof) == 0.0

    def test_global_phase_shift_invariance(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        base = binary_phases(4, 1)
        shifted = base + 0.7
        f0 = general_filter(model, QubitState.excited(), 1.3, 0.4, base)
        f1 = general_filter(model, QubitState.excited(), 1.3, 0.4, shifted)
        assert f0 == pytest.approx(f1, rel=1e-12)

    def test_equal_phase_profile_scales_as_one_over_n(self):
        # For identical phases the prefactor is 2/N, so F(N) = F(1)/N and
        # any constant offset leaves the value unchanged.
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        f1 = general_filter(model, QubitState.excited(), 1.3, 0.4, binary_phases(1, 0))
        f4 = general_filter(model, QubitState.excited(), 1.3, 0.4, np.full(4, 0.3))
        assert f4 == pytest.approx(f1 / 4.0, rel=1e-12)

    @pytest.mark.parametrize("t", [0.4, 0.0])
    def test_null_phase_profile_rejected(self, t):
        # by both entries, also at t = 0, where the value itself needs no phases
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        for phases in (binary_phases(2, 1), np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])):
            with pytest.raises(NullOutcome):
                general_filter(model, QubitState.excited(), 1.0, t, phases)
            with pytest.raises(NullOutcome):
                general_decay_factor(model, QubitState.excited(), t, phases)

    def test_mixed_initial_state_rejected(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        mixed = QubitState(np.diag([0.6, 0.4]).astype(complex))
        with pytest.raises(ValueError):
            general_filter(model, mixed, 1.0, 0.4, binary_phases(1, 0))

    def test_specializations_are_non_negative(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        grid = np.linspace(-2.0, 4.0, 101)
        vals = general_filter(model, QubitState.excited(), grid, 0.5, binary_phases(3, 1))
        assert np.min(vals) > -1e-15
        deph = dephasing_coupling_model(OHMIC)
        gridd = np.linspace(0.02, 8.0, 101)
        vals = general_filter(deph, QubitState.plus(), gridd, 1.3, binary_phases(4, 1))
        assert np.min(vals) > -1e-15


class TestGeneralDecayFactor:
    def test_matches_overlap_integral_for_identical_paths(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        for n_paths, n_shifts in [(1, 0), (3, 1)]:
            got = general_decay_factor(model, QubitState.excited(), 0.4,
                                       binary_phases(n_paths, n_shifts))
            f = lambda w: filter_diss(w, 0.4, n_paths, n_shifts, 1.0)
            want = decay_factor_overlap(LORENTZIAN, f, 1.0)
            assert got == pytest.approx(want, rel=1e-6)
            assert got == pytest.approx(want, rel=1e-12)  # actual accuracy
        frozen = general_decay_factor(model, QubitState.excited(), 0.4, binary_phases(1, 0))
        assert frozen == pytest.approx(0.34338694154948596, rel=1e-10)

    def test_dephasing_factor_equals_half_exponent(self):
        # With the constant-4 normalization the overlap equals Gamma(t)/2,
        # which for this density at t=1 is (1/3) ln 2.
        model = dephasing_coupling_model(OHMIC)
        got = general_decay_factor(model, QubitState.plus(), 1.0, binary_phases(1, 0))
        gamma = dephasing_exponent(DephasingParams(OHMIC), 1.0)
        assert got == pytest.approx(0.5 * gamma, rel=1e-12)
        assert got == pytest.approx(np.log(2.0) / 3.0, abs=1e-14)

    def test_silent_path_rescales_by_population_fraction(self):
        # One path with J == 0 contributes nothing: the average drops by (N-1)/N.
        zeros = Tabulated(
            np.linspace(0.0, LORENTZIAN.omega_max, 30), np.zeros(30))
        base = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        with_silent = CouplingModel(base.h_q, base.operators, base.correlations,
                                    (LORENTZIAN, LORENTZIAN, zeros))
        prof = binary_phases(3, 0)
        partial = general_decay_factor(with_silent, QubitState.excited(), 0.4, prof)
        full = general_decay_factor(base, QubitState.excited(), 0.4, prof)
        assert partial == pytest.approx(2.0 / 3.0 * full, rel=1e-12)

    def test_exactly_quadratic_in_coupling(self):
        base = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        scaled = dissipative_coupling_model(Lorentzian(0.09 * 4.0, 2.0, 1.0), omega_q=1.0)
        prof = binary_phases(2, 0)
        g_base = general_decay_factor(base, QubitState.excited(), 0.4, prof)
        g_scaled = general_decay_factor(scaled, QubitState.excited(), 0.4, prof)
        assert g_scaled == pytest.approx(0.09 * g_base, rel=1e-13)

    def test_zero_time_and_path_count_mismatch(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        assert general_decay_factor(model, QubitState.excited(), 0.0, binary_phases(2, 0)) == 0.0
        bad = CouplingModel(model.h_q, model.operators, model.correlations,
                            (LORENTZIAN, LORENTZIAN))
        with pytest.raises(ValueError):
            general_decay_factor(bad, QubitState.excited(), 0.4, binary_phases(3, 0))

    def test_negative_time_rejected(self):
        # like second_order_block and general_filter, not the value at |t|
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        with pytest.raises(ValueError, match="t must be"):
            general_decay_factor(model, QubitState.excited(), -0.4, binary_phases(1, 0))


_KNOTS = np.linspace(0.0, 8.0, 5)
# line shapes wide and narrow, Ohmic with and without a sqrt(w) edge, a
# narrow Gaussian peak and the kinks of a piecewise-linear table
_ORACLE_DENSITIES = {
    "lorentzian": LORENTZIAN,
    "narrow-line": Lorentzian(gamma0=1.0, lam=0.1, omega_q=50.0),
    "ohmic-s1": OHMIC,
    "ohmic-s0.5": Ohmic(eta=1.0 / 3.0, s=0.5, omega_c=1.0),
    "gaussian": GaussianPeak(4.0, 0.02),
    "tabulated": Tabulated(_KNOTS, _KNOTS * np.exp(-0.5 * _KNOTS)),
}
# (coupling model factory, initial state, post-selection)
_ORACLE_MODELS = {
    "diss": (lambda j: dissipative_coupling_model(j, omega_q=1.0), QubitState.excited(),
             binary_phases(3, 1)),
    "deph": (dephasing_coupling_model, QubitState.plus(), binary_phases(4, 1)),
}


@pytest.mark.parametrize("density", sorted(_ORACLE_DENSITIES))
@pytest.mark.parametrize("coupling", sorted(_ORACLE_MODELS))
class TestCorrelationTableOracle:
    """The C(tau) table against the frequency integral over the whole mesh."""

    def test_block_matches_frequency_integral(self, coupling, density):
        factory, rho0, _ = _ORACLE_MODELS[coupling]
        model = factory(_ORACLE_DENSITIES[density])
        block = second_order_block(model, rho0, 0, 0.5)
        assert np.max(np.abs(block - oracle_block(model, rho0, 0, 0.5))) <= 1e-14

    def test_decay_factor_matches_frequency_integral(self, coupling, density):
        factory, psi0, config = _ORACLE_MODELS[coupling]
        model = factory(_ORACLE_DENSITIES[density])
        got = general_decay_factor(model, psi0, 0.4, config)
        assert got == pytest.approx(oracle_decay_factor(model, psi0, 0.4, config), rel=1e-12)


class TestCorrelationTableChecks:
    def test_unconverged_frequency_integral_is_reported(self, monkeypatch):
        # the block and the decay factor read C from one quad_vec call whose
        # error bound is checked; a bound far above tolerance must raise
        import scipy.integrate

        def unconverged(f, a, b, **kwargs):
            value = f(0.5 * (a + b))
            return value, 1e3 * (1.0 + np.max(np.abs(value)))

        monkeypatch.setattr(scipy.integrate, "quad_vec", unconverged)
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        with pytest.raises(QuadratureError, match="did not converge"):
            second_order_block(model, QubitState.excited(), 0, 0.2)
        with pytest.raises(QuadratureError, match="did not converge"):
            general_decay_factor(model, QubitState.excited(), 0.4, binary_phases(1, 0))

    def test_degree_cap_is_reported(self, monkeypatch):
        # C's phase spans omega_max * t / 2 = 25 rad over the Chebyshev
        # interval, which takes degree 64; a cap of 16 must refuse, not
        # return the unresolved series
        monkeypatch.setattr(perturbation, "_DEGREES", (16,))
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        with pytest.raises(QuadratureError, match="Chebyshev degree"):
            second_order_block(model, QubitState.excited(), 0, 0.5)
        with pytest.raises(QuadratureError, match="Chebyshev degree"):
            perturbation._correlation(LORENTZIAN, 0.5, np.array([0.25]))

    def test_table_matches_direct_integral_at_the_lags(self):
        # C(tau) by one QUADPACK integral per lag (real and imaginary part)
        from scipy.integrate import quad

        tau = np.array([0.0, 0.013, 0.2, 0.377, 0.5])
        got = perturbation._correlation(LORENTZIAN, 0.5, tau)
        for lag, value in zip(tau, got):
            re = quad(lambda w: LORENTZIAN(w) * np.cos(w * lag), 0.0, LORENTZIAN.omega_max,
                      epsabs=0.0, epsrel=1e-13, limit=400)[0]
            im = quad(lambda w: -LORENTZIAN(w) * np.sin(w * lag), 0.0, LORENTZIAN.omega_max,
                      epsabs=0.0, epsrel=1e-13, limit=400)[0]
            assert abs(value - complex(re, im)) <= 1e-12 * abs(got[0])


def _contract_one_product(c, omega, tau, weighted):
    """The frequency contraction as one product over all omega rows (the blocks' oracle)."""
    phase = np.exp(-1j * omega[:, None] * tau)
    return sum((c_ab * phase) @ weighted[a, b] for (a, b), c_ab in np.ndenumerate(c))


# both coupling models with a post-selection on each; meshes of 4,900 and
# 1,600 nodes at t = 0.2
_ENGINE_CASES = {
    "diss": (dissipative_coupling_model(LORENTZIAN, omega_q=1.0), QubitState.excited(),
             binary_phases(3, 1)),
    "deph": (dephasing_coupling_model(OHMIC), QubitState.plus(), binary_phases(4, 1)),
}


class TestRowBlockedContraction:
    """The omega rows go through in blocks, each row with the one-product bits."""

    # rows per block from the byte budget: 1 still gives two-row blocks, 8
    # uneven splits, None the module's budget (53 and 163 rows a block here)
    @pytest.mark.parametrize("block_rows", [1, 8, None])
    @pytest.mark.parametrize("n_omega", [1, 2, 3, 5, 9, 17, 101, 201, 601])
    @pytest.mark.parametrize("name", sorted(_ENGINE_CASES))
    def test_general_filter_bits(self, name, n_omega, block_rows, monkeypatch):
        model, psi0, config = _ENGINE_CASES[name]
        omega = np.linspace(-2.0, 4.0, n_omega)
        if block_rows is not None:
            nodes = perturbation._filter_mesh(model, psi0, 0.2, 4.0)[0].size
            monkeypatch.setattr(perturbation, "_PHASE_BLOCK_BYTES", 16 * nodes * block_rows)
        blocked = general_filter(model, psi0, omega, 0.2, config)
        monkeypatch.setattr(perturbation, "_contract", _contract_one_product)
        assert blocked.tobytes() == general_filter(model, psi0, omega, 0.2, config).tobytes()

    def test_general_filter_memory_is_bounded(self):
        # the CLI default: 201 frequencies on the 28,900-node mesh of t = 0.5,
        # where the whole phase matrix alone takes 93 MB
        model, psi0, config = _ENGINE_CASES["diss"]
        omega = np.linspace(-2.0, 4.0, 201)
        tracemalloc.start()
        try:
            general_filter(model, psi0, omega, 0.5, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_second_order_block_memory_is_bounded(self):
        # the same 28,900-node mesh: C is summed at the lags in O(P) memory,
        # with no (P x degree) interpolation matrix and no per-(a, b) copy of
        # the mesh
        model, psi0, _ = _ENGINE_CASES["diss"]
        tracemalloc.start()
        try:
            second_order_block(model, psi0, 0, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    # nu = omega_max + omega_q = 102: 136 panels (1,849,600 nodes) is the largest
    # mesh the size budget admits, 137 panels and t = 20 (650 panels) are refused
    @pytest.mark.parametrize("t, nodes", [(136.5 * np.pi / 102.0, "1,876,900"),
                                          (20.0, "42,250,000")])
    @pytest.mark.parametrize("entry", ["general_filter", "second_order_block",
                                       "general_decay_factor"])
    def test_mesh_above_the_budget_is_refused_before_allocation(self, entry, t, nodes):
        model, psi0, config = _ENGINE_CASES["diss"]
        call = {"general_filter": lambda: general_filter(model, psi0, 1.0, t, config),
                "second_order_block": lambda: second_order_block(model, psi0, 0, t),
                "general_decay_factor": lambda: general_decay_factor(model, psi0, t, config)}
        tracemalloc.start()
        try:
            with pytest.raises(NumericError, match=f"^{nodes} \\(t1, t2\\) mesh nodes, 576 bytes "
                                                   "each, exceed the size budget"):
                call[entry]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
