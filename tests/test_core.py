"""Tests for the shared domain types and post-selection algebra."""

import functools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from custom_density import SmoothDensity
import dephasing_oracle
from postselect_oracle import PathBlockMatrix, postselect_general, superpose_identical
from zenotraj.core import (
    GaussianPeak,
    Lorentzian,
    Ohmic,
    QubitState,
    _PATH_BYTES,
    _binary_pair_sum,
    _finite_phases,
    binary_phases,
    normalize,
    phase_pair_sum,
    phase_weights,
    r_factor,
    trace_distance,
)
from zenotraj.dephasing import (
    DephasingParams,
    _coherence_offset,
    dephasing_exponent,
    modified_dephasing,
    postselected_state_deph,
)
from zenotraj.dicke import CollectiveRateMatrix, excited_population_analytic
from zenotraj.dissipative import postselected_state_diss, trace_distance_diss
from zenotraj.cli import _SCENARIO_DEFAULTS, parse_config
from zenotraj.errors import ConfigError, NullOutcome, NumericError
from zenotraj.filters import filter_deph, filter_diss, filter_traditional_zeno
from zenotraj.numerics import _SIZE_BUDGET
from zenotraj.perturbation import (
    dissipative_coupling_model,
    general_decay_factor,
    general_filter,
    second_order_block,
)


class TestRFactor:
    def test_single_path(self):
        assert r_factor(1, 0) == 1.0

    def test_three_paths_one_shift(self):
        assert_allclose(r_factor(3, 1), 1.0 / 9.0, rtol=0, atol=0)

    def test_balanced_shifts_are_null(self):
        assert r_factor(4, 2) == 0.0

    def test_shift_count_symmetry(self):
        for n_paths in range(1, 9):
            for n in range(n_paths + 1):
                assert r_factor(n_paths, n) == r_factor(n_paths, n_paths - n)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            r_factor(3, 4)
        with pytest.raises(ValueError):
            r_factor(0, 0)


def _filter_config(kind, n_tilde):
    return parse_config(["filter", "--kind", kind, "--n-tilde", repr(n_tilde)])


class TestOneOwnerPerRule:
    """The path range, the dark port, K = (N-2n)^2, c = NR - 1, the phi_T and initial-state
    windows and the pulse count n_tilde >= 1 each have one owner."""

    # every function of a binary (N, n) profile that has no value at n = N/2
    DARK_PORT_CALLS = {
        "filter_diss": lambda: filter_diss(1.0, 1.0, 4, 2, 1.0),
        "filter_deph": lambda: filter_deph(1.0, 1.0, 4, 2),
        "modified_dephasing": lambda: modified_dephasing(0.5, 4, 2),
        "trace_distance_diss": lambda: trace_distance_diss(0.5, 4, 2),
        "excited_population_analytic": lambda: excited_population_analytic(1.0, 4, 2, 1.0, 0.1),
    }

    @pytest.mark.parametrize("name", DARK_PORT_CALLS)
    def test_dark_port_is_refused_with_one_message(self, name):
        with pytest.raises(ValueError) as info:
            self.DARK_PORT_CALLS[name]()
        assert str(info.value) == ("null post-selection: with n = N/2 (n=2, N=4) the projected "
                                   "output port is dark and one obtains a null result")

    @pytest.mark.parametrize("n_paths, n_shifts, message", [
        (0, 0, "N must be a positive integer, got N=0"),
        (2, 3, "n must satisfy 0 <= n <= N, got n=3, N=2"),
        (3, -1, "n must satisfy 0 <= n <= N, got n=-1, N=3"),
    ])
    def test_path_range_is_refused_with_one_message(self, n_paths, n_shifts, message):
        for build in (r_factor, binary_phases):
            with pytest.raises(ValueError) as info:
                build(n_paths, n_shifts)
            assert str(info.value) == message

    def test_pair_sum_is_an_exact_integer(self):
        for n_paths in range(1, 11):
            for n in range(n_paths + 1):
                k = _binary_pair_sum(n_paths, n)
                assert type(k) is int and k == phase_pair_sum(binary_phases(n_paths, n))
                assert r_factor(n_paths, n) == k / n_paths**2

    def test_coherence_offset_is_n_r_minus_one(self):
        for n_paths in range(1, 11):
            for n in range(n_paths + 1):
                assert _coherence_offset(n_paths, n) == pytest.approx(
                    n_paths * r_factor(n_paths, n) - 1.0, rel=0, abs=1e-14)

    @pytest.mark.parametrize("phi, accepted", [
        (0.0, False), (-0.5, False), (1.0 + 2e-12, False), (math.nan, False),
        (1e-300, True), (1.0, True), (1.0 + 1e-13, True),
    ])
    def test_coherence_factor_window_has_one_owner(self, phi, accepted):
        # phi_T in (0, 1 + 1e-12], for the modified factor and the post-selected state
        for call in (lambda: modified_dephasing(phi, 3, 0),
                     lambda: postselected_state_deph(QubitState.plus(), phi, 3, 0)):
            if accepted:
                call()
            else:
                with pytest.raises(ValueError, match=r"phi_T must lie in \(0, 1\], got phi_T="):
                    call()

    @pytest.mark.parametrize("excess, accepted", [
        (2e-12, False), (-2e-12, False), (math.nan, False), (1e-13, True), (0.0, True),
    ])
    def test_amplitude_window(self, excess, accepted):
        # |c_e|^2 + |c_g|^2 = 1 to 1e-12 for a pure state
        c_e, c_g = math.sqrt(0.5 + excess), math.sqrt(0.5)
        if accepted:
            QubitState.pure(c_e, c_g)
        else:
            with pytest.raises(ValueError, match=r"\|c_e\|² \+ \|c_g\|² = 1, got"):
                QubitState.pure(c_e, c_g)

    @pytest.mark.parametrize("matrix, message", [
        (np.diag([0.5 + 2e-12, 0.5]), "an initial state must have unit trace, got 1.000000000002"),
        (np.diag([0.5 - 2e-12, 0.5]), "an initial state must have unit trace, got 0.999999999998"),
        (np.diag([0.8, 0.3]), "an initial state must have unit trace, got 1.1"),
        (np.diag([math.nan, 1.0]), "an initial state must have unit trace, got nan"),
        (np.array([[0.5, 0.5], [0.4, 0.5]]), "state is not Hermitian: deviation 0.1"),
        (np.array([[0.5, 0.6], [0.6, 0.5]]), "state is not PSD: min eigenvalue -0.1"),
        (np.diag([0.5 + 1e-13, 0.5]), None),
    ], ids=["trace-above", "trace-below", "trace-1.1", "nan", "non-hermitian", "non-psd",
            "in-window"])
    def test_initial_state_window_has_one_owner(self, matrix, message):
        # rho0 Hermitian, PSD and of unit trace to 1e-12, for both post-selection builders
        rho0 = QubitState(matrix)
        for call in (lambda: postselected_state_diss(rho0, 0.5, 3, 0),
                     lambda: postselected_state_deph(rho0, 0.5, 3, 0)):
            if message is None:
                call()
            else:
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == message

    @pytest.mark.parametrize("build", [
        *(functools.partial(_filter_config, kind) for kind in _SCENARIO_DEFAULTS["filter"]["kind"]),
        lambda n_tilde: filter_traditional_zeno(1.0, 1.0, n_tilde, 1.0),
    ], ids=[*_SCENARIO_DEFAULTS["filter"]["kind"], "filter_traditional_zeno"])
    def test_pulse_count_has_one_owner(self, build):
        # n_tilde >= 1 for every filter kind of the CLI, not only the traditional one
        build(1.0)
        with pytest.raises((ValueError, ConfigError)) as info:
            build(0.5)
        assert str(info.value) == "the traditional filter needs n_tilde >= 1, got n_tilde=0.5"

    @pytest.mark.parametrize("build, message", [
        (lambda: Lorentzian(math.nan, 1.0, 1.0), "Lorentzian needs gamma0 > 0, got gamma0=nan"),
        (lambda: CollectiveRateMatrix.from_factor(3, 0.1, math.nan),
         "CollectiveRateMatrix needs gamma0 > 0, got gamma0=nan"),
        (lambda: DephasingParams(Ohmic(1 / 3, 1.0, 1.0), math.nan),
         "temperature must be >= 0, got temperature=nan"),
        (lambda: filter_traditional_zeno(1.0, 2.0, math.nan, 1.0),
         "the traditional filter needs n_tilde >= 1, got n_tilde=nan"),
    ], ids=["lorentzian", "rate-matrix", "temperature", "pulse-count"])
    def test_nan_is_refused_by_the_rule_owner(self, build, message):
        # each check accepts a value, not refuses one, so nan fails it
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_infinite_elapsed_time_is_refused_by_the_size_budget(self):
        # t = inf has infinitely many half-periods: a NumericError, not a ZeroDivisionError
        with pytest.raises(NumericError, match=r"^inf half-periods at t = inf, "):
            dephasing_exponent(DephasingParams(Ohmic(1 / 3, 1.0, 1.0)), math.inf)

    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_elapsed_time_has_one_owner(self, t):
        # t >= 0 for the dephasing exponent and each second-order entry
        j, profile = Lorentzian(1.0, 1.0, 1.0), binary_phases(3, 0)
        model = dissipative_coupling_model(j, omega_q=1.0)
        for call in (lambda: dephasing_exponent(DephasingParams(Ohmic(0.1, 1.0, 1.0)), t),
                     lambda: second_order_block(model, QubitState.excited(), t),
                     lambda: general_filter(model, QubitState.excited(), 1.0, t, profile),
                     lambda: general_decay_factor(model, QubitState.excited(), t, profile)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"t must be >= 0, got t={t!r}"


class TestPhaseAlgebra:
    def test_binary_weights_are_exact_signs(self):
        w = phase_weights(binary_phases(5, 2))
        assert w.tolist() == [-1.0, -1.0, 1.0, 1.0, 1.0]

    def test_pair_sum_binary_identity_exact(self):
        for n_paths in range(1, 11):
            for n in range(n_paths + 1):
                assert phase_pair_sum(binary_phases(n_paths, n)) \
                    == float((n_paths - 2 * n) ** 2)

    def test_pair_sum_global_shift_invariance(self):
        rng = np.random.default_rng(7)
        phases = rng.uniform(-3, 3, size=6)
        a = phase_pair_sum(phases)
        b = phase_pair_sum(phases + 1.234)
        assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_weights_match_complex_exponential_generically(self):
        phases = np.array([0.3, -1.2, 2.9])
        assert_allclose(phase_weights(phases), np.exp(-1j * phases), atol=1e-15)


class TestSpectralDensity:
    def test_lorentzian_peak_value(self):
        j = Lorentzian(gamma0=2.0, lam=0.5, omega_q=1.0)
        assert_allclose(j(1.0), 2.0 / (2 * np.pi), rtol=1e-15)

    def test_ohmic_fig4_parameters(self):
        j = Ohmic(eta=1.0 / 3.0, s=1.0, omega_c=1.0)
        assert_allclose(j(1.0), np.exp(-1.0) / 3.0, rtol=1e-15)

    def test_ohmic_past_float_range_in_log_space(self):
        # w^170 overflows past w = 65 < omega_max = 500: J is the direct
        # product wherever that is finite, exp(log J) elsewhere
        j = Ohmic(eta=1e-300, s=170.0, omega_c=10.0)
        w = np.linspace(1.0, 500.0, 1000)
        with np.errstate(over="ignore", invalid="ignore"):
            direct = 1e-300 * w ** 170.0 * 10.0 ** -169.0 * np.exp(-w / 10.0)
        finite = np.isfinite(direct)
        assert 0 < finite.sum() < w.size
        got = j(w)
        np.testing.assert_array_equal(got[finite], direct[finite])
        with mpmath.workdps(30):
            for x in w[~finite][::25]:
                x = mpmath.mpf(x)
                want = (mpmath.mpf("1e-300") * x ** 170 * mpmath.mpf(10) ** -169
                        * mpmath.exp(-x / 10))
                assert float(j(float(x))) == pytest.approx(float(want), rel=1e-12)

    def test_gaussian_peak_center(self):
        j = GaussianPeak(omega_m=1.5, delta=0.2)
        assert j(1.5) == 1.0

    def test_truncation_beyond_omega_max(self):
        j = GaussianPeak(omega_m=1.5, delta=0.2, omega_max=4.0)
        assert j(4.5) == 0.0
        assert j(-1.0) == 0.0

    def test_vectorized_evaluation(self):
        j = GaussianPeak(omega_m=1.0, delta=0.5)
        grid = np.array([0.5, 1.0, 1.5])
        assert_allclose(j(grid), [np.exp(-0.5), 1.0, np.exp(-0.5)], rtol=1e-15)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Ohmic(eta=-1.0, s=1.0, omega_c=1.0)


def _frozen(values):
    """A read-only float copy: a function that writes into it raises."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


_FAMILIES = {
    "ohmic-s4": Ohmic(eta=1.0 / 3.0, s=4.0, omega_c=1.0),
    "ohmic-s1.7": Ohmic(eta=1.0 / 3.0, s=1.7, omega_c=2.0),
    "ohmic-s2": Ohmic(eta=0.5, s=2.0, omega_c=1.0),
    "ohmic-s0.5": Ohmic(eta=0.5, s=0.5, omega_c=1.0),
    "ohmic-log-space-s170": Ohmic(eta=1e-300, s=170.0, omega_c=10.0),
    # a coupling strength other than 1 is the family's own parameter
    "ohmic-s1.7-eta0.37": Ohmic(eta=0.37 / 3.0, s=1.7, omega_c=2.0),
    "lorentzian": Lorentzian(gamma0=1.0, lam=0.1, omega_q=50.0),
    "lorentzian-gamma4": Lorentzian(gamma0=4.0, lam=2.0, omega_q=1.0),
    "gaussian": GaussianPeak(omega_m=1.5, delta=0.2),
    # a custom J: the base class as the extension point
    "custom": SmoothDensity(eta=2.0, omega_c=2.0),
}


class TestSpectralDensityBytes:
    """J(omega) keeps the bytes of the shape with its masks."""

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_arrays_match_oracle(self, family):
        j = _FAMILIES[family]
        top = j.omega_max
        # fig4c-sized positive nodes, then grids with 0, negative and
        # beyond-cut nodes that take the masks
        grids = (np.linspace(top / 31_840, top * (1 - 1e-9), 31_840),
                 np.linspace(0.0, top, 1001),
                 np.linspace(-2.0, 1.5 * top, 1001),
                 np.array([np.nan, 0.5 * top, -1.0]),
                 np.array([]))
        for grid in grids:
            w = _frozen(grid)
            with np.errstate(invalid="ignore"):
                got, want = j(w), dephasing_oracle.spectral_density(j, w)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert w.tobytes() == _frozen(grid).tobytes()

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_scalars_match_oracle(self, family):
        j = _FAMILIES[family]
        for value in (0.7, 0.0, -0.5, 1.5 * j.omega_max, 0.999 * j.omega_max):
            for w in (value, np.float64(value), _frozen(value)):
                got, want = j(w), dephasing_oracle.spectral_density(j, w)
                assert type(got) is float and type(want) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("family", _FAMILIES)
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_float_node_has_the_bits_of_an_array_node(self, family, data):
        # QUADPACK hands J a Python float; a family that takes it past the
        # ndarray round trip must round it as the array route does
        j = _FAMILIES[family]
        top = j.omega_max
        omega = data.draw(st.one_of(st.floats(-top, 2.0 * top),
                                    st.sampled_from([0.0, top, math.nan, math.inf, -math.inf])))
        with np.errstate(invalid="ignore"):  # an Ohmic's array route at +inf
            got, want = j(float(omega)), j(np.array([omega]))[0]
        assert type(got) is float
        assert np.float64(got).tobytes() == want.tobytes()


class TestSpectralDensityOutsideSupport:
    """A node outside [0, omega_max] is 0.0, and its shape is never evaluated."""

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_outside_nodes_are_zero_without_a_warning(self, family):
        j = _FAMILIES[family]
        outside = (math.inf, -math.inf, math.nan, -1.0, -1e300, 1.5 * j.omega_max, 1e300)
        inside = (0.0, 0.5 * j.omega_max, j.omega_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for omega in outside:
                for node in (omega, np.float64(omega), np.array(omega), np.array([omega])):
                    got = j(node)
                    assert np.float64(got).tobytes() == np.zeros_like(got).tobytes()
            mixed = j(_frozen(outside + inside))
            in_support = j(_frozen(inside))
        assert mixed[:len(outside)].tobytes() == np.zeros(len(outside)).tobytes()
        # the inside nodes keep the bits of an in-support array
        assert mixed[len(outside):].tobytes() == in_support.tobytes()


class TestQubitState:
    def test_pure_state_projector(self):
        st = QubitState.pure(1.0, 0.0)
        assert_allclose(st.matrix, [[1, 0], [0, 0]])
        assert st.trace == 1.0

    def test_pure_requires_normalized_amplitudes(self):
        with pytest.raises(ValueError):
            QubitState.pure(1.0, 1.0)

    def test_validate_accepts_physical_states(self):
        QubitState.plus().validate()
        QubitState(np.diag([0.3, 0.2])).validate()

    def test_validate_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            QubitState(np.array([[0.5, 0.1], [0.3, 0.5]])).validate()

    def test_validate_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            QubitState(np.array([[0.0, 0.5], [0.5, 0.0]])).validate()

    def test_validate_rejects_overweight_trace(self):
        with pytest.raises(ValueError):
            QubitState(np.diag([0.9, 0.3])).validate()


class TestPostselectGeneral:
    def test_single_path_reduction(self):
        rho = QubitState.plus().matrix
        blocks = np.array([[rho]])
        out = postselect_general(blocks, np.zeros(1))
        assert_allclose(out.matrix, rho, rtol=0, atol=0)

    def test_uniform_blocks_zero_phases(self):
        rho = QubitState(np.diag([0.6, 0.4]))
        blocks = PathBlockMatrix.uniform(rho, rho, 4)
        out = postselect_general(blocks, np.zeros(4))
        assert_allclose(out.matrix, rho.matrix, rtol=0, atol=1e-15)

    def test_two_paths_opposite_phases_null(self):
        rho = QubitState.plus()
        blocks = PathBlockMatrix.uniform(rho, rho, 2)
        out = postselect_general(blocks, binary_phases(2, 1))
        assert_allclose(out.matrix, np.zeros((2, 2)), rtol=0, atol=0)

    def test_agrees_with_identical_environment_form(self):
        """General Eq.-level sum equals the collapsed two-term form."""
        rng = np.random.default_rng(3)
        for n_paths in range(1, 9):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            beta = 0.5 * (b + b.conj().T) * 0.1
            blocks = PathBlockMatrix.uniform(QubitState(rho), QubitState(beta), n_paths)
            for n in range(n_paths + 1):
                got = postselect_general(blocks, binary_phases(n_paths, n))
                want = superpose_identical(QubitState(rho), QubitState(beta), n_paths, n)
                assert np.max(np.abs(got.matrix - want.matrix)) < 1e-14

    def test_output_is_hermitian(self):
        rng = np.random.default_rng(11)
        blocks = np.empty((3, 3, 2, 2), dtype=complex)
        for i in range(3):
            for j in range(i, 3):
                m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                if i == j:
                    m = m @ m.conj().T
                blocks[i, j] = m
                blocks[j, i] = m.conj().T
        out = postselect_general(blocks, np.array([0.1, 0.7, -0.4]))
        assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-14


class TestSuperposeIdentical:
    def test_single_path_identity(self):
        rho = QubitState.plus()
        out = superpose_identical(rho, rho, 1, 0)
        assert_allclose(out.matrix, rho.matrix, rtol=0, atol=0)

    def test_balanced_shifts_null_result(self):
        rho = QubitState.plus()
        out = superpose_identical(rho, rho, 4, 2)
        assert_allclose(out.matrix, np.zeros((2, 2)), rtol=0, atol=1e-17)

    def test_shift_symmetry_n_vs_n_complement(self):
        rho = QubitState(np.diag([0.7, 0.3]))
        beta = QubitState(np.array([[0.1, 0.05], [0.05, 0.1]]))
        a = superpose_identical(rho, beta, 6, 2)
        b = superpose_identical(rho, beta, 6, 4)
        assert_allclose(a.matrix, b.matrix, rtol=0, atol=0)

    def test_initial_trace_equals_r(self):
        """At t = 0 (β = ρ, both trace one) the success probability is R."""
        rho = QubitState.pure(math.sqrt(0.3), math.sqrt(0.7))
        for n_paths in range(1, 9):
            for n in range(n_paths + 1):
                out = superpose_identical(rho, rho, n_paths, n)
                assert_allclose(out.trace, r_factor(n_paths, n),
                                rtol=5e-16, atol=1e-16)


class TestNormalize:
    def test_divides_out_trace(self):
        state, p = normalize(QubitState(np.diag([0.5, 0.25])))
        assert p == 0.75
        assert_allclose(state.matrix, np.diag([2.0 / 3.0, 1.0 / 3.0]), rtol=1e-15)
        assert state.trace == pytest.approx(1.0, rel=1e-15)

    def test_zero_state_raises_null_outcome(self):
        with pytest.raises(NullOutcome):
            normalize(QubitState(np.zeros((2, 2))))

    def test_idempotent_on_normalized_states(self):
        rho = QubitState.excited()
        state, p = normalize(rho)
        assert p == 1.0
        assert_allclose(state.matrix, rho.matrix, rtol=0, atol=0)
        # superposition amplitudes √½ carry one rounding in the projector trace
        _, p_plus = normalize(QubitState.plus())
        assert_allclose(p_plus, 1.0, rtol=1e-15)

    def test_success_probability_equals_input_trace(self):
        raw = QubitState(np.diag([0.11, 0.17]))
        _, p = normalize(raw)
        assert p == raw.trace


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        assert_allclose(
            trace_distance(QubitState.excited(), QubitState.ground()), 1.0)

    def test_identical_states(self):
        assert trace_distance(QubitState.plus(), QubitState.plus()) == 0.0

    def test_off_diagonal_pair(self):
        # ρ± = |±><±| differ only in coherence: D = 1
        assert_allclose(
            trace_distance(QubitState.plus(), QubitState.minus()), 1.0)

    def test_matches_eigenvalue_formula(self):
        a = QubitState(np.diag([0.8, 0.2]))
        b = QubitState(np.diag([0.5, 0.5]))
        assert_allclose(trace_distance(a, b), 0.3, rtol=1e-15)


class TestPhaseVector:
    """A phase profile is its phase vector: 1-d, non-empty and finite."""

    @pytest.mark.parametrize("phases, message", [
        (np.array([]), "a phase vector must be 1-d and non-empty, got shape (0,)"),
        (np.zeros((2, 2)), "a phase vector must be 1-d and non-empty, got shape (2, 2)"),
        (0.3, "a phase vector must be 1-d and non-empty, got shape ()"),
        (np.array([0.0, np.nan]), "phase entries must be finite"),
        ([0.0, -np.inf], "phase entries must be finite"),
    ], ids=["empty", "2-d", "scalar", "nan", "inf-list"])
    def test_malformed_vector_has_one_owner(self, phases, message):
        # _finite_phases refuses it for the phase algebra and both engine entries,
        # also at t = 0, where the engine's value needs no phases
        model = dissipative_coupling_model(Lorentzian(1.0, 1.0, 1.0), omega_q=1.0)
        psi0 = QubitState.excited()
        for call in (lambda: _finite_phases(phases), lambda: phase_pair_sum(phases),
                     lambda: general_filter(model, psi0, 1.0, 0.4, phases),
                     lambda: general_filter(model, psi0, 1.0, 0.0, phases),
                     lambda: general_decay_factor(model, psi0, 0.4, phases),
                     lambda: general_decay_factor(model, psi0, 0.0, phases)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    def test_binary_vector(self):
        assert binary_phases(4, 1).tolist() == [np.pi, 0.0, 0.0, 0.0]
        assert _finite_phases([0.0, 0.1, 0.2]).shape == (3,)
        largest = binary_phases(1_000_000, 1)  # within the size budget
        assert largest.shape == (1_000_000,) and phase_pair_sum(largest) == 999_998.0**2

    @pytest.mark.parametrize("n_paths", [_SIZE_BUDGET // _PATH_BYTES + 1, 2**31, 2**62])
    def test_binary_vector_past_the_budget_is_refused_before_allocation(self, n_paths):
        tracemalloc.start()
        try:
            with pytest.raises(NumericError) as info:
                binary_phases(n_paths, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (f"{n_paths:,} phase-vector paths, 72 bytes each, exceed the "
                                   "size budget of 1,073,741,824 bytes; shrink --N")
        assert peak < 1e6
