"""Tests for the general second-order engine."""

import functools
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenotraj import numerics, perturbation
from zenotraj.core import (
    GaussianPeak,
    Lorentzian,
    Ohmic,
    QubitState,
    binary_phases,
    phase_pair_sum,
)
from zenotraj.dephasing import DephasingParams, dephasing_exponent
from zenotraj.dissipative import memory_kernel
from zenotraj.errors import NullOutcome, NumericError, QuadratureError
from zenotraj.filters import decay_factor_overlap, filter_diss, filter_deph, sinc
from zenotraj.numerics import TimeGrid, solve_volterra
from zenotraj.perturbation import (
    CouplingModel,
    _filter_mesh,
    _prefactor,
    _rotated_operators,
    dephasing_coupling_model,
    dissipative_coupling_model,
    general_decay_factor,
    general_filter,
    second_order_block,
)

from custom_density import SmoothDensity
from perturbation_oracle import every_node_operators, oracle_block, oracle_decay_factor

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
            CouplingModel(np.array([[0.0, 1.0], [0.0, 0.0]]), (SX,), table, LORENTZIAN)
        with pytest.raises(ValueError):
            CouplingModel(SZ, (np.array([[0.0, 1.0], [0.0, 0.0]]),), table, LORENTZIAN)
        with pytest.raises(ValueError):
            CouplingModel(SZ, (), table, LORENTZIAN)

    @pytest.mark.parametrize("table", [np.ones((2, 2)), np.ones(1), [[np.nan]], [[1j * np.inf]]],
                             ids=["wrong-size", "not-a-table", "nan", "inf"])
    def test_correlation_table_must_match_operators_and_be_finite(self, table):
        with pytest.raises(ValueError, match="correlations"):
            CouplingModel(SZ, (SX,), table, LORENTZIAN)

    def test_factory_tables(self):
        diss = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        np.testing.assert_array_equal(diss.correlations, [[0.25, -0.25j], [0.25j, 0.25]])
        assert diss.correlations.dtype == complex
        np.testing.assert_array_equal(dephasing_coupling_model(OHMIC).correlations, [[1.0]])

    def test_single_density_broadcasts_over_paths(self):
        # every path of an in-phase profile couples to the one J: the decay
        # factor of N paths is the single path's over N
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        assert model.j is LORENTZIAN
        one = general_decay_factor(model, QubitState.excited(), 0.4, binary_phases(1, 0))
        for n_paths in (2, 3, 5):
            got = general_decay_factor(model, QubitState.excited(), 0.4, binary_phases(n_paths, 0))
            assert got == pytest.approx(one / n_paths, rel=1e-12)

    @pytest.mark.parametrize("j", [(LORENTZIAN,), (LORENTZIAN, OHMIC, LORENTZIAN), [LORENTZIAN],
                                   None, 1.0], ids=["one-tuple", "three-tuple", "list", "none",
                                                    "number"])
    def test_density_sequence_rejected(self, j):
        # the per-path list is gone; it is refused when the model is built, not
        # at the first call that reads j.omega_max
        with pytest.raises(ValueError, match="one SpectralDensity"):
            CouplingModel(SZ, (SX,), [[1.0]], j)
        with pytest.raises(ValueError, match="one SpectralDensity"):
            dissipative_coupling_model(j, omega_q=1.0)

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
                              (SX, SY, SZ), np.eye(3), LORENTZIAN)
        times = np.linspace(0.0, 2.5, 7)
        stack = _rotated_operators(model, times, np.linalg.eigh(model.h_q))
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
            block = second_order_block(model, QubitState.excited(), t)
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
            block = second_order_block(model, QubitState.plus(), t)
            decayed = 0.5 * (np.exp(-dephasing_exponent(DephasingParams(j), t)) - 1.0)
            exact = np.array([[0.0, decayed], [decayed, 0.0]], dtype=complex)
            errs[eps] = np.max(np.abs(block - exact))
        assert 12.0 < errs[0.4] / errs[0.2] < 22.0
        assert 12.0 < errs[0.2] / errs[0.1] < 22.0

    def test_block_is_traceless_and_hermitian(self):
        # Trace preservation holds exactly for the generator; quadrature
        # deviations are reported by this assertion rather than renormalized.
        model = dissipative_coupling_model(Lorentzian(0.16, 2.0, 1.0), omega_q=1.0)
        block = second_order_block(model, QubitState.excited(), 0.3)
        assert abs(np.trace(block)) < 1e-12
        np.testing.assert_allclose(block, block.conj().T, atol=1e-14)

    def test_zero_kernel_gives_zero_block(self):
        model = CouplingModel(0.5 * SZ, (SX,), np.zeros((1, 1)), LORENTZIAN)
        block = second_order_block(model, QubitState.excited(), 0.5)
        np.testing.assert_array_equal(block, np.zeros((2, 2)))

    def test_time_edge_cases(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        np.testing.assert_array_equal(
            second_order_block(model, QubitState.excited(), 0.0),
            np.zeros((2, 2)))
        with pytest.raises(ValueError):
            second_order_block(model, QubitState.excited(), -0.1)


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
        with pytest.raises(NumericError, match=r"^10,176,100 \(t1, t2\) mesh nodes, 157 bytes "
                                               r"each, exceed the size budget of 1,073,741,824 "
                                               r"bytes; shrink --t or --omega-min or --omega-max$"):
            general_filter(model, QubitState.excited(), np.array([1900.0, 2000.0]), 0.5,
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


# omega_max = 1: a narrow line keeps J's share of the mesh's phase rate small
NARROW = Lorentzian(gamma0=1.0, lam=0.01, omega_q=0.5)
# the most panels per axis the size budget admits (261: 6,812,100 nodes)
_MAX_PANELS = np.floor(np.sqrt(numerics._SIZE_BUDGET / perturbation._NODE_BYTES) / 10.0)


@st.composite
def _post_selections(draw):
    """A binary (N, n) profile with 2n != N, or any phase vector; N <= 8."""
    if draw(st.booleans()):
        n_paths = draw(st.integers(1, 8))
        n_shifts = draw(st.sampled_from([n for n in range(n_paths + 1) if 2 * n != n_paths]))
        return binary_phases(n_paths, n_shifts), (n_paths, n_shifts)
    phases = draw(st.lists(st.floats(-2.0 * np.pi, 2.0 * np.pi), min_size=1, max_size=8))
    return np.array(phases), None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(dissipative=st.booleans(), t=st.floats(0.0, 5.0), omega_q=st.floats(0.0, 5.0),
       omega=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3),
       post_selection=_post_selections(), past=st.floats(1.01, 1e6))
def test_general_filter_matches_the_closed_forms(dissipative, t, omega_q, omega,
                                                 post_selection, past):
    """The mesh route of F against (N/|sum e^{-i phi}|^2) t^2 sinc^2((w - w0) t/2), w0 = w_q
    (energy exchange, |e>) or 0 (dephasing, |+>, 4 times filter_deph), within 1e-6 of
    the peak; a null profile is NullOutcome, and a mesh past the size budget NumericError."""
    phases, binary = post_selection
    omega = np.array(omega)
    if dissipative:
        model, psi0 = dissipative_coupling_model(NARROW, omega_q), QubitState.excited()
    else:
        model, psi0 = dephasing_coupling_model(NARROW), QubitState.plus()
    try:
        got = general_filter(model, psi0, omega, t, phases)
    except NullOutcome:
        assert phase_pair_sum(phases) < 1e-12
        return
    prefactor = len(phases) / phase_pair_sum(phases)
    if binary is None:
        centre = omega_q if dissipative else 0.0
        want = prefactor * t * t * sinc((omega - centre) * t / 2.0) ** 2
    elif dissipative:
        want = filter_diss(omega, t, *binary, omega_q)
    else:
        want = 4.0 * filter_deph(omega, t, *binary)
    assert np.all(np.abs(got - want) <= 1e-6 * prefactor * t * t), (got, want)
    # past the budget edge at nu t = 261 pi, before anything is allocated
    nu = model.omega_scale + max(NARROW.omega_max, np.max(np.abs(omega)))
    with pytest.raises(NumericError, match="mesh nodes, 157 bytes each, exceed the size budget"):
        general_filter(model, psi0, omega, past * _MAX_PANELS * np.pi / nu, phases)


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

    def test_exactly_quadratic_in_coupling(self):
        base = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        scaled = dissipative_coupling_model(Lorentzian(0.09 * 4.0, 2.0, 1.0), omega_q=1.0)
        prof = binary_phases(2, 0)
        g_base = general_decay_factor(base, QubitState.excited(), 0.4, prof)
        g_scaled = general_decay_factor(scaled, QubitState.excited(), 0.4, prof)
        assert g_scaled == pytest.approx(0.09 * g_base, rel=1e-13)

    def test_zero_time(self):
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        assert general_decay_factor(model, QubitState.excited(), 0.0, binary_phases(2, 0)) == 0.0

    def test_negative_time_rejected(self):
        # like second_order_block and general_filter, not the value at |t|
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        with pytest.raises(ValueError, match="t must be"):
            general_decay_factor(model, QubitState.excited(), -0.4, binary_phases(1, 0))


# line shapes wide and narrow, Ohmic with and without a sqrt(w) edge, a
# narrow Gaussian peak and a custom J on the base class
_ORACLE_DENSITIES = {
    "lorentzian": LORENTZIAN,
    "narrow-line": Lorentzian(gamma0=1.0, lam=0.1, omega_q=50.0),
    "ohmic-s1": OHMIC,
    "ohmic-s0.5": Ohmic(eta=1.0 / 3.0, s=0.5, omega_c=1.0),
    "gaussian": GaussianPeak(4.0, 0.02),
    "custom": SmoothDensity(eta=1.0, omega_c=2.0, omega_max=8.0),
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
        block = second_order_block(model, rho0, 0.5)
        assert np.max(np.abs(block - oracle_block(model, rho0, 0.5))) <= 1e-14

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
            second_order_block(model, QubitState.excited(), 0.2)
        with pytest.raises(QuadratureError, match="did not converge"):
            general_decay_factor(model, QubitState.excited(), 0.4, binary_phases(1, 0))

    def test_degree_cap_is_reported(self, monkeypatch):
        # C's phase spans omega_max * t / 2 = 25 rad over the Chebyshev
        # interval, which takes degree 64; a cap of 16 must refuse, not
        # return the unresolved series
        monkeypatch.setattr(perturbation, "_DEGREES", (16,))
        model = dissipative_coupling_model(LORENTZIAN, omega_q=1.0)
        with pytest.raises(QuadratureError, match="Chebyshev degree"):
            second_order_block(model, QubitState.excited(), 0.5)
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
    """The frequency contraction as one product over all omega rows, c_ab scaling
    the phase matrix (the oracle of the blocks and of the folded sandwiches)."""
    phase = np.exp(-1j * omega[:, None] * tau)
    return sum((c_ab * phase) @ weighted[a, b] for (a, b), c_ab in np.ndenumerate(c))


def _filter_mesh_one_stack(model, psi0, t, omega_top):
    """``_filter_mesh`` with every node's t1 and t2 rotated in one stack (the chunks' oracle)."""
    nu = model.omega_scale + max(model.j.omega_max, omega_top)
    tau, W, t1, t2 = perturbation._mesh(model, t, nu)
    a1, a2 = every_node_operators(model, t1, t2)
    r = psi0.matrix
    p_perp = np.eye(2, dtype=complex) - r
    n_ops = len(model.operators)
    weighted = np.empty((n_ops, n_ops, tau.size), dtype=complex)
    for a, b in np.ndindex(n_ops, n_ops):
        weighted[a, b] = W * np.einsum("ij,pjk,kl,pli->p", p_perp, a2[b], r, a1[a])
    return tau, weighted


# both coupling models with a post-selection on each; meshes of 4,900 and
# 1,600 nodes at t = 0.2
_ENGINE_CASES = {
    "diss": (dissipative_coupling_model(LORENTZIAN, omega_q=1.0), QubitState.excited(),
             binary_phases(3, 1)),
    "deph": (dephasing_coupling_model(OHMIC), QubitState.plus(), binary_phases(4, 1)),
}


class TestRowBlockedContraction:
    """The omega rows go through in blocks and the mesh in node chunks, to the
    bits of one product over the whole mesh."""

    # rows per block from the byte budget: 1 still gives two-row blocks, 8
    # uneven splits, None the module's budget (3 and 10 rows a block here)
    @pytest.mark.parametrize("block_rows", [1, 8, None])
    @pytest.mark.parametrize("n_omega", [1, 2, 3, 5, 9, 17, 101, 201, 601])
    @pytest.mark.parametrize("name", sorted(_ENGINE_CASES))
    def test_general_filter_bits(self, name, n_omega, block_rows, monkeypatch):
        model, psi0, config = _ENGINE_CASES[name]
        omega = np.linspace(-2.0, 4.0, n_omega)
        tau, weighted = _filter_mesh(model, psi0, 0.2, np.max(np.abs(omega)))
        if block_rows is not None:
            monkeypatch.setattr(perturbation, "_PHASE_BLOCK_BYTES", 16 * tau.size * block_rows)
        blocked = general_filter(model, psi0, omega, 0.2, config)
        want = _prefactor(config) * _contract_one_product(model.correlations, omega, tau,
                                                           weighted).real
        assert blocked.tobytes() == want.tobytes()

    # nodes per chunk: 1, an uneven split, the module's and one chunk
    @pytest.mark.parametrize("chunk", [1, 7, None, 10**9])
    @pytest.mark.parametrize("name", sorted(_ENGINE_CASES))
    def test_filter_mesh_bits(self, name, chunk, monkeypatch):
        model, psi0, _ = _ENGINE_CASES[name]
        if chunk is not None:
            monkeypatch.setattr(perturbation, "_NODE_CHUNK", chunk)
        got = _filter_mesh(model, psi0, 0.2, 4.0)
        want = _filter_mesh_one_stack(model, psi0, 0.2, 4.0)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_general_filter_memory_is_bounded(self, pool_of):
        # the CLI default: 201 frequencies on the 28,900-node mesh of t = 0.5,
        # where the whole phase matrix alone takes 93 MB; 3.6 MB with 256 KiB
        # blocks (three rows) and 1,024-node operator chunks, 16.7 MB with
        # 4 MiB blocks, a scaled phase copy and whole-mesh operator stacks;
        # two workers hold a block and a chunk each
        pool_of(2)
        model, psi0, config = _ENGINE_CASES["diss"]
        omega = np.linspace(-2.0, 4.0, 201)
        tracemalloc.start()
        try:
            general_filter(model, psi0, omega, 0.5, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.4e6

    def test_second_order_block_memory_is_bounded(self, pool_of):
        # the same 28,900-node mesh: C is summed at the lags in O(P) memory,
        # with no (P x degree) interpolation matrix and no per-(a, b) copy of
        # the mesh; two workers hold a chunk each
        pool_of(2)
        model, psi0, _ = _ENGINE_CASES["diss"]
        tracemalloc.start()
        try:
            second_order_block(model, psi0, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    # nu = omega_max + omega_q = 102: 261 panels (6,812,100 nodes) is the largest
    # mesh the size budget admits, 262 panels and t = 20 (650 panels) are refused
    @pytest.mark.parametrize("t, nodes", [(261.5 * np.pi / 102.0, "6,864,400"),
                                          (20.0, "42,250,000")])
    @pytest.mark.parametrize("entry", ["general_filter", "second_order_block",
                                       "general_decay_factor"])
    def test_mesh_above_the_budget_is_refused_before_allocation(self, entry, t, nodes):
        model, psi0, config = _ENGINE_CASES["diss"]
        call = {"general_filter": lambda: general_filter(model, psi0, 1.0, t, config),
                "second_order_block": lambda: second_order_block(model, psi0, t),
                "general_decay_factor": lambda: general_decay_factor(model, psi0, t, config)}
        tracemalloc.start()
        try:
            with pytest.raises(NumericError, match=f"^{nodes} \\(t1, t2\\) mesh nodes, 157 bytes "
                                                   "each, exceed the size budget"):
                call[entry]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def _engine_bytes(name, omega, t=0.2):
    """general_filter, general_decay_factor and second_order_block of an engine case, as bytes."""
    model, psi0, config = _ENGINE_CASES[name]
    return (general_filter(model, psi0, omega, t, config).tobytes(),
            np.float64(general_decay_factor(model, psi0, t, config)).tobytes(),
            second_order_block(model, psi0, t).tobytes())


class TestEnginePool:
    """The mesh chunks and the omega row blocks run on the worker pool, each
    task writing its own slice, to the bits of running them in turn."""

    # nodes per chunk as in TestRowBlockedContraction; 201 frequencies make
    # 67 and 21 row blocks.  One-node chunks make every node a pool task, so
    # they run on the 2-panel mesh of t = 0.05 (400 nodes), the others on
    # t = 0.2's (4,900 and 1,600 nodes)
    @pytest.mark.parametrize("chunk", [1, 7, None, 10**9])
    @pytest.mark.parametrize("name", sorted(_ENGINE_CASES))
    def test_bits_do_not_depend_on_the_pool(self, name, chunk, monkeypatch, pool_of):
        if chunk is not None:
            monkeypatch.setattr(perturbation, "_NODE_CHUNK", chunk)
        omega = np.linspace(-2.0, 4.0, 201)
        t = 0.05 if chunk == 1 else 0.2
        pool_of(None)
        inline = _engine_bytes(name, omega, t)
        for workers in (1, 3):
            pool_of(workers)
            assert _engine_bytes(name, omega, t) == inline

    def test_disjoint_slices_hold_under_thread_switching(self, monkeypatch, pool_of):
        # more workers than cores, 7-node chunks and a thread switch every
        # microsecond: a task that wrote outside its own slice would move bits
        monkeypatch.setattr(perturbation, "_NODE_CHUNK", 7)
        omega = np.linspace(-2.0, 4.0, 201)
        pool_of(None)
        inline = {name: _engine_bytes(name, omega) for name in _ENGINE_CASES}
        pool_of(2 * (os.cpu_count() or 1) + 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = {name: _engine_bytes(name, omega) for name in _ENGINE_CASES}
        finally:
            sys.setswitchinterval(interval)
        assert pooled == inline

    # stage 0: the mesh chunks, 1: general_filter's row blocks
    @pytest.mark.parametrize("entry, stage", [("general_filter", 0), ("general_filter", 1),
                                              ("general_decay_factor", 0),
                                              ("second_order_block", 0)])
    def test_error_in_a_task_reaches_the_caller(self, entry, stage, monkeypatch, pool_of):
        pool_of(2)
        model, psi0, config = _ENGINE_CASES["diss"]
        pool_map, stages, raised_in = perturbation._pool_map, [], []

        def failing_map(fn, units):
            units, this = list(units), len(stages)
            stages.append(this)

            def task(unit):
                if this == stage and unit is units[2]:
                    raised_in.append(threading.current_thread())
                    raise FloatingPointError("task failed")
                return fn(unit)
            return pool_map(task, units)

        monkeypatch.setattr(perturbation, "_pool_map", failing_map)
        call = {"general_filter": lambda: general_filter(model, psi0, np.linspace(-2.0, 4.0, 201),
                                                         0.2, config),
                "general_decay_factor": lambda: general_decay_factor(model, psi0, 0.2, config),
                "second_order_block": lambda: second_order_block(model, psi0, 0.2)}
        with pytest.raises(FloatingPointError, match="task failed"):
            call[entry]()
        assert len(raised_in) == 1 and raised_in[0] is not threading.current_thread()

    def test_one_chunk_and_one_row_block_start_no_thread(self, monkeypatch):
        # 2 panels, 400 nodes, and 3 frequencies in one row block: every task
        # runs inline, and the pool is never asked for
        def no_pool():
            raise AssertionError("the pool was asked for")

        monkeypatch.setattr(numerics, "_worker_pool", no_pool)
        model, psi0, config = _ENGINE_CASES["diss"]
        t = 0.05
        assert perturbation._mesh(model, t, model.j.omega_max + model.omega_scale)[0].size == 400
        threads = threading.active_count()
        general_filter(model, psi0, np.array([-1.0, 0.5, 2.0]), t, config)
        general_decay_factor(model, psi0, t, config)
        second_order_block(model, psi0, t)
        assert threading.active_count() == threads
