"""Tests for the general second-order engine."""

import functools
import tracemalloc

import numpy as np
import pytest

from zenotraj import perturbation
from zenotraj.core import (
    InterferometerConfig,
    Lorentzian,
    Ohmic,
    QubitState,
    Tabulated,
    binary_phases,
    phase_pair_sum,
)
from zenotraj.dephasing import DephasingParams, dephasing_exponent
from zenotraj.dissipative import memory_kernel
from zenotraj.errors import NullOutcome, QuadratureError
from zenotraj.filters import FilterSpec, decay_factor_overlap, filter_diss, filter_deph
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

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)

LORENTZIAN = Lorentzian(gamma0=4.0, lam=2.0, omega_q=1.0)
OHMIC = Ohmic(eta=1.0 / 3.0, s=1.0, omega_c=1.0)


class TestPhaseProfile:
    def test_binary_matches_phase_vector(self):
        prof = InterferometerConfig(5, n_shifts=2)
        np.testing.assert_array_equal(prof.phase_vector, binary_phases(5, 2))
        assert prof.n_paths == 5

    def test_pair_sum_identity_exact_small_n(self):
        # sum_{kl} e^{-i(phi_k - phi_l)} == (N - 2n)^2 exactly for binary phases
        for n_paths in range(1, 11):
            for n_shifts in range(0, n_paths // 2 + 1):
                s = phase_pair_sum(InterferometerConfig(n_paths, n_shifts=n_shifts).phase_vector)
                assert s == float((n_paths - 2 * n_shifts) ** 2)

    def test_pair_sum_general_phases(self):
        prof = InterferometerConfig(3, phases=np.array([0.0, 0.4, -1.1]))
        w = np.exp(-1j * prof.phase_vector)
        expected = abs(np.sum(w)) ** 2
        assert phase_pair_sum(prof.phase_vector) == pytest.approx(expected, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            InterferometerConfig(0, phases=np.array([]))
        with pytest.raises(ValueError):
            InterferometerConfig(2, phases=np.array([0.0, np.nan]))
        with pytest.raises(ValueError):
            InterferometerConfig(2, phases=np.zeros((2, 2)))


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
        grid = TimeGrid(0.0, t / 800, 801)
        errs = {}
        for eps in (0.4, 0.2, 0.1):
            j = LORENTZIAN.scaled(eps**2)
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
            j = OHMIC.scaled(eps**2)
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
        model = dissipative_coupling_model(LORENTZIAN.scaled(0.04), omega_q=1.0)
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
                             InterferometerConfig(n_paths, n_shifts=n_shifts))
        want = filter_diss(grid, t, omega_q=1.0, n_paths=n_paths, n_shifts=n_shifts)
        np.testing.assert_allclose(got, want, rtol=1e-6)
        np.testing.assert_allclose(got, want, rtol=1e-12)  # actual accuracy

    def test_dephasing_shape_with_constant_ratio_four(self):
        # Same (1 - cos wt)/w^2 shape; the overall constant relating the
        # general normalization to the reference filter fits to exactly 4.
        model = dephasing_coupling_model(OHMIC)
        grid = np.linspace(0.05, 6.0, 50)
        t = 1.3
        got = general_filter(model, QubitState.plus(), grid, t, InterferometerConfig(4, n_shifts=1))
        want = filter_deph(grid, t, n_paths=4, n_shifts=1)
        ratio = got / want
        fitted = np.median(ratio)
        assert np.ptp(ratio) < 1e-8
        assert fitted == pytest.approx(4.0, abs=1e-10)

    def test_scalar_matches_array_and_t_zero(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        prof = InterferometerConfig(3, n_shifts=1)
        arr = general_filter(model, QubitState.excited(), np.array([1.3]), 0.4, prof)
        scalar = general_filter(model, QubitState.excited(), 1.3, 0.4, prof)
        assert scalar == arr[0]
        assert general_filter(model, QubitState.excited(), 1.3, 0.0, prof) == 0.0

    def test_global_phase_shift_invariance(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        base = InterferometerConfig(4, n_shifts=1)
        shifted = InterferometerConfig(4, phases=base.phase_vector + 0.7)
        f0 = general_filter(model, QubitState.excited(), 1.3, 0.4, base)
        f1 = general_filter(model, QubitState.excited(), 1.3, 0.4, shifted)
        assert f0 == pytest.approx(f1, rel=1e-12)

    def test_equal_phase_profile_scales_as_one_over_n(self):
        # For identical phases the prefactor is 2/N, so F(N) = F(1)/N and
        # any constant offset leaves the value unchanged.
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        f1 = general_filter(model, QubitState.excited(), 1.3, 0.4, InterferometerConfig(1, n_shifts=0))
        f4 = general_filter(model, QubitState.excited(), 1.3, 0.4,
                            InterferometerConfig(4, phases=np.full(4, 0.3)))
        assert f4 == pytest.approx(f1 / 4.0, rel=1e-12)

    def test_null_phase_profile_rejected(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        with pytest.raises(NullOutcome):
            general_filter(model, QubitState.excited(), 1.0, 0.4, InterferometerConfig(2, n_shifts=1))
        with pytest.raises(NullOutcome):
            general_filter(model, QubitState.excited(), 1.0, 0.4,
                           InterferometerConfig(3, phases=np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])))

    def test_mixed_initial_state_rejected(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        mixed = QubitState(np.diag([0.6, 0.4]).astype(complex))
        with pytest.raises(ValueError):
            general_filter(model, mixed, 1.0, 0.4, InterferometerConfig(1, n_shifts=0))

    def test_specializations_are_non_negative(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        grid = np.linspace(-2.0, 4.0, 101)
        vals = general_filter(model, QubitState.excited(), grid, 0.5, InterferometerConfig(3, n_shifts=1))
        assert np.min(vals) > -1e-15
        deph = dephasing_coupling_model(OHMIC)
        gridd = np.linspace(0.02, 8.0, 101)
        vals = general_filter(deph, QubitState.plus(), gridd, 1.3, InterferometerConfig(4, n_shifts=1))
        assert np.min(vals) > -1e-15


class TestGeneralDecayFactor:
    def test_matches_overlap_integral_for_identical_paths(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        for n_paths, n_shifts in [(1, 0), (3, 1)]:
            got = general_decay_factor(model, QubitState.excited(), 0.4,
                                       InterferometerConfig(n_paths, n_shifts=n_shifts))
            spec = FilterSpec("diss_superposed", t=0.4, omega_q=1.0,
                              n_paths=n_paths, n_shifts=n_shifts)
            want = decay_factor_overlap(LORENTZIAN, spec)
            assert got == pytest.approx(want, rel=1e-6)
            assert got == pytest.approx(want, rel=1e-12)  # actual accuracy
        frozen = general_decay_factor(model, QubitState.excited(), 0.4,
                                      InterferometerConfig(1, n_shifts=0))
        assert frozen == pytest.approx(0.34338694154948596, rel=1e-10)

    def test_dephasing_factor_equals_half_exponent(self):
        # With the constant-4 normalization the overlap equals Gamma(t)/2,
        # which for this density at t=1 is (1/3) ln 2.
        model = dephasing_coupling_model(OHMIC)
        got = general_decay_factor(model, QubitState.plus(), 1.0, InterferometerConfig(1, n_shifts=0))
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
        prof = InterferometerConfig(3, n_shifts=0)
        partial = general_decay_factor(with_silent, QubitState.excited(), 0.4, prof)
        full = general_decay_factor(base, QubitState.excited(), 0.4, prof)
        assert partial == pytest.approx(2.0 / 3.0 * full, rel=1e-12)

    def test_exactly_quadratic_in_coupling(self):
        base = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        scaled = dissipative_coupling_model(LORENTZIAN.scaled(0.09), omega_q=1.0)
        prof = InterferometerConfig(2, n_shifts=0)
        g_base = general_decay_factor(base, QubitState.excited(), 0.4, prof)
        g_scaled = general_decay_factor(scaled, QubitState.excited(), 0.4, prof)
        assert g_scaled == pytest.approx(0.09 * g_base, rel=1e-13)

    def test_zero_time_and_path_count_mismatch(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        assert general_decay_factor(model, QubitState.excited(), 0.0,
                                    InterferometerConfig(2, n_shifts=0)) == 0.0
        bad = CouplingModel(model.h_q, model.operators, model.correlations,
                            (LORENTZIAN, LORENTZIAN))
        with pytest.raises(ValueError):
            general_decay_factor(bad, QubitState.excited(), 0.4, InterferometerConfig(3, n_shifts=0))


class TestFrequencyIntegralCheck:
    def test_unconverged_frequency_integral_is_reported(self, monkeypatch):
        # both frequency integrals go through one quad_vec call whose error bound is
        # checked; a bound far above tolerance must raise, not return
        import scipy.integrate

        def unconverged(f, a, b, **kwargs):
            value = f(0.5 * (a + b))
            return value, 1e3 * (1.0 + np.max(np.abs(value)))

        monkeypatch.setattr(scipy.integrate, "quad_vec", unconverged)
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        with pytest.raises(QuadratureError):
            second_order_block(model, QubitState.excited(), 0, 0.2)
        with pytest.raises(QuadratureError):
            general_decay_factor(model, QubitState.excited(), 0.4, InterferometerConfig(1, n_shifts=0))


def _contract_one_product(c, omega, tau, weighted):
    """The frequency contraction as one product over all omega rows (the blocks' oracle)."""
    phase = np.exp(-1j * omega[:, None] * tau)
    return sum((c_ab * phase) @ weighted[a, b] for (a, b), c_ab in np.ndenumerate(c))


# both coupling models with a post-selection on each; meshes of 4,900 and
# 1,600 nodes at t = 0.2
_ENGINE_CASES = {
    "diss": (dissipative_coupling_model(LORENTZIAN, omega_q=1.0), QubitState.excited(),
             InterferometerConfig(3, n_shifts=1)),
    "deph": (dephasing_coupling_model(OHMIC), QubitState.plus(), InterferometerConfig(4, n_shifts=1)),
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
            nodes = perturbation._filter_mesh(model, psi0, 0.2)[0].size
            monkeypatch.setattr(perturbation, "_PHASE_BLOCK_BYTES", 16 * nodes * block_rows)
        blocked = general_filter(model, psi0, omega, 0.2, config)
        monkeypatch.setattr(perturbation, "_contract", _contract_one_product)
        assert blocked.tobytes() == general_filter(model, psi0, omega, 0.2, config).tobytes()

    @pytest.mark.parametrize("name", sorted(_ENGINE_CASES))
    def test_frequency_integral_bits(self, name, monkeypatch):
        # quad_vec contracts one omega row at a time: a single block
        model, psi0, config = _ENGINE_CASES[name]
        block = second_order_block(model, psi0, 0, 0.2)
        decay = general_decay_factor(model, psi0, 0.2, config)
        monkeypatch.setattr(perturbation, "_contract", _contract_one_product)
        assert block.tobytes() == second_order_block(model, psi0, 0, 0.2).tobytes()
        assert np.float64(decay).tobytes() == np.float64(
            general_decay_factor(model, psi0, 0.2, config)).tobytes()

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
