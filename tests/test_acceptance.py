"""End-to-end acceptance gate: eleven go/no-go checks at stated tolerances.

Each ``test_criterion_NN`` function is one criterion; conftest.py prints a
one-line PASS/FAIL verdict per criterion after the run.  Post-selected states
constructed along the way are collected in a module registry so the final
criterion audits every conditional state this suite produced.

Criterion 06 carries a known defect: the enhanced-decay ordering for the
all-equal-phase three-path configuration holds only up to Gamma0*t ~ 4.80,
not over the whole requested window (see the assertion message for the exact
crossing).  The check is kept as stated rather than weakened, so it reports
FAIL.
"""

import time

import numpy as np
import pytest
from scipy.optimize import brentq

from choi_oracle import cp_divisible_choi
from zenotraj.core import (
    GaussianPeak,
    Lorentzian,
    Ohmic,
    QubitState,
    binary_phases,
    normalize,
    phase_pair_sum,
    trace_distance,
)
from zenotraj.dephasing import (
    DephasingParams,
    dephasing_exponent_series,
    modified_dephasing,
    postselected_state_deph,
    single_path_factor,
)
from zenotraj.dicke import (
    CollectiveRateMatrix,
    evolve_collective,
    excited_population_analytic,
    excited_population_numeric,
    superposed_initial_state,
)
from zenotraj.dissipative import (
    decay_amplitude_closed_series,
    postselected_state_diss,
    trace_distance_diss,
)
from zenotraj.filters import (
    decay_factor_overlap,
    filter_diss,
    filter_traditional_zeno,
    fwhm,
    perturbative_consistency,
)
from zenotraj.numerics import TimeGrid
from zenotraj.perturbation import (
    dissipative_coupling_model,
    general_filter,
)

EXCITED = QubitState(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
PLUS = QubitState(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))

# Conditional states registered by earlier criteria and audited by the last.
_STATES = []


def _register(*states):
    _STATES.extend(states)


def test_criterion_01_decay_factor_scales_as_one_over_n():
    """gamma(N, 0) = gamma(1, 0)/N to 1e-12 relative for N in {2, 4, 8, 16}.

    Overlap-integral decay factor for a Gaussian spectral peak away from the
    qubit line; the whole scan must finish within one second.
    """
    start = time.perf_counter()
    j = GaussianPeak(1.5, 0.2)
    gamma = {
        n_paths: decay_factor_overlap(j, lambda w: filter_diss(w, 3.0, n_paths, 0, 1.0), 1.0)
        for n_paths in (1, 2, 4, 8, 16)
    }
    elapsed = time.perf_counter() - start
    assert gamma[1] == pytest.approx(5.596336455628841, rel=1e-12)
    for n_paths in (2, 4, 8, 16):
        expected = gamma[1] / n_paths
        assert abs(gamma[n_paths] - expected) <= 1e-12 * expected
    assert elapsed < 1.0


def test_criterion_02_filter_widths():
    """Superposed filter width is N-invariant (1e-9); the pulsed-measurement
    filter width grows linearly in the effective sample count (1e-6).

    Both families are sampled on one common frequency grid per family at
    t = 5, omega_q = 1, with N and N-tilde drawn from {1, 4, 8}; under one
    second total.
    """
    start = time.perf_counter()
    t, omega_q = 5.0, 1.0

    grid = np.linspace(omega_q - 1.5, omega_q + 1.5, 4001)
    widths = [fwhm(grid, filter_diss(grid, t, n_paths, 0, omega_q)) for n_paths in (1, 4, 8)]
    spread = max(widths) - min(widths)
    assert spread <= 1e-9 * widths[0]

    u = np.linspace(-13.0, 13.0, 40001)
    trad = {
        n_tilde: fwhm(omega_q + u, filter_traditional_zeno(omega_q + u, t, n_tilde, omega_q))
        for n_tilde in (1, 4, 8)
    }
    for n_tilde in (1, 4, 8):
        expected = n_tilde * trad[1]
        assert abs(trad[n_tilde] - expected) <= 1e-6 * expected

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0


def test_criterion_03_overlap_vs_exact_dynamics_converges_quadratically():
    """Halving the coupling scale eps divides the relative mismatch between
    the exact decay factor and the overlap-integral value by a factor in
    [2.5, 6] (the clean limit is 4), for eps in {0.2, 0.1, 0.05} at
    omega_q * t = 0.2; under ten seconds total.
    """
    start = time.perf_counter()
    j = Lorentzian(gamma0=4.0, lam=2.0, omega_q=1.0)
    mismatch = {}
    for eps in (0.2, 0.1, 0.05):
        gamma_exact, gamma_overlap = perturbative_consistency(j, 1.0, 0.2, 1, 0, eps)
        mismatch[eps] = abs(gamma_exact - gamma_overlap) / gamma_exact
    elapsed = time.perf_counter() - start
    for big, small in ((0.2, 0.1), (0.1, 0.05)):
        ratio = mismatch[big] / mismatch[small]
        assert 2.5 <= ratio <= 6.0, f"mismatch ratio {ratio} for eps {big}->{small}"
    assert elapsed < 10.0


def test_criterion_04_population_freezing_with_growing_n():
    """With a single phase shift (n = 1) and |G|^2 >= 0.3, the post-selected
    state's distance to the excited state drops below 1e-3 by N = 10^4, and
    each doubling of N shrinks it by at least 1.9x; under five seconds.
    """
    start = time.perf_counter()
    for g_sq in (0.3, 0.5, 0.8):
        g = np.sqrt(g_sq)

        def distance(n_paths):
            state = postselected_state_diss(EXCITED, g, n_paths, 1)
            _register(state)
            normalized, _ = normalize(state)
            return trace_distance(normalized, EXCITED)

        assert distance(10**4) < 1e-3
        d_prev = distance(10)
        for n_paths in (20, 40, 80):
            d_next = distance(n_paths)
            assert d_prev / d_next >= 1.9
            d_prev = d_next
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0


def test_criterion_05_collective_emission_cross_oracle():
    """Master-equation evolution (RK4, dt = 1e-3/Gamma0) reproduces the
    closed-form conditional excited population to 1e-6 over Gamma0*t in
    [0, 5] for (N, n) in {(2,0), (3,0), (3,1), (4,0), (4,1)} at collective
    factor s = 1/6; under thirty seconds total.
    """
    start = time.perf_counter()
    gamma0, s = 1.0, 1.0 / 6.0
    grid = TimeGrid(1e-3 / gamma0, 5001)
    for n_paths, n_shifts in ((2, 0), (3, 0), (3, 1), (4, 0), (4, 1)):
        rates = CollectiveRateMatrix.from_factor(n_paths, s, gamma0)
        states = evolve_collective(rates, superposed_initial_state(n_paths), grid)
        numeric = excited_population_numeric(states, n_paths, n_shifts)
        analytic = excited_population_analytic(grid.times, n_paths, n_shifts, gamma0, s)
        assert float(np.max(np.abs(numeric - analytic))) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


def test_criterion_06_collective_decay_orderings_and_spot_values():
    """At s = 1/6 the opposite-phase pair decays faster than the fast
    collective envelope and the equal-phase configuration slower than the
    slow one, for all Gamma0*t in (0, 5]; spot values at Gamma0*t = 1 match
    0.5670 and 0.1792 to 1e-4.

    KNOWN DEFECT (kept honest): the equal-phase lower bound fails beyond the
    crossing at Gamma0*t = 4.804444447645411 — see the final assert.
    """
    s = 1.0 / 6.0
    x = np.arange(1, 501) * 0.01
    pe_equal = excited_population_analytic(x, 3, 0, 1.0, s)
    pe_opposite = excited_population_analytic(x, 3, 1, 1.0, s)

    assert abs(pe_equal[99] - 0.5670) <= 1e-4
    assert abs(pe_opposite[99] - 0.1792) <= 1e-4

    fast_envelope = np.exp(-(1.0 + s) * x)
    slow_envelope = np.exp(-(1.0 - s) * x)
    assert np.all(pe_opposite < fast_envelope)

    violations = np.nonzero(pe_equal <= slow_envelope)[0]
    assert violations.size == 0, (
        "equal-phase ordering P_e(3,0) > e^{-(1-s) Gamma0 t} fails from "
        f"Gamma0*t = {x[violations[0]]:.2f} on: with s = 1/6 the inequality "
        "reduces to 9v - 5v^6 > 4 for v = e^{-Gamma0 t/6}, whose positive "
        "root v = 0.4489962508502286 puts the crossing at "
        "Gamma0*t = 4.804444447645411, inside the requested window (0, 5]. "
        "The bound holds below the crossing and is violated above it; this "
        "is a property of the stated inequality, not of the implementation."
    )


def test_criterion_07_small_sample_collapse_to_independent_decay():
    """As the collective factor approaches 1 (s = 1 - 1e-9), the conditional
    excited population collapses onto independent exponential decay e^{-x}
    to 1e-6 for N in {2, 3, 4}, both unshifted and single-shift profiles.
    """
    x = np.linspace(0.0, 5.0, 501)
    reference = np.exp(-x)
    for n_paths, n_shifts in ((2, 0), (3, 0), (3, 1), (4, 0), (4, 1)):
        pe = excited_population_analytic(x, n_paths, n_shifts, 1.0, 1.0 - 1e-9)
        assert float(np.max(np.abs(pe - reference))) < 1e-6


def test_criterion_08_nonmarkovian_revivals_and_divisibility():
    """Narrow-line dynamics (lambda = 0.1*gamma0) shows at least one strict
    local minimum of the pair trace distance followed by a revival of at
    least 1e-3, for (N, n) in {(1,0), (3,0), (3,1)}; broad-line dynamics
    (lambda = 4*gamma0) is monotone non-increasing within 1e-9; and the
    intermediate-map complete-positivity verdict agrees with the
    distance-derivative verdict at every step for every configuration.
    """
    grid_narrow = TimeGrid(0.01, 6001)
    g_narrow = decay_amplitude_closed_series(1.0, 0.1, grid_narrow)
    for n_paths, n_shifts in ((1, 0), (3, 0), (3, 1)):
        d = trace_distance_diss(g_narrow.values, n_paths, n_shifts)
        interior_minima = np.nonzero((d[1:-1] < d[:-2]) & (d[1:-1] < d[2:]))[0] + 1
        assert interior_minima.size >= 1
        first = int(interior_minima[0])
        assert float(np.max(d[first:]) - d[first]) >= 1e-3

    grid_broad = TimeGrid(0.01, 801)
    g_broad = decay_amplitude_closed_series(1.0, 4.0, grid_broad)
    for n_paths, n_shifts in ((1, 0), (3, 0), (3, 1)):
        d = trace_distance_diss(g_broad.values, n_paths, n_shifts)
        assert float(np.max(np.diff(d))) <= 1e-9

    for g in (g_narrow, g_broad):
        g_sq = np.abs(g.values) ** 2
        tol = 1e-9 * g_sq.max()
        derivative_ok = (np.diff(g_sq) / g.grid.dt) <= tol
        for n_paths, n_shifts in ((1, 0), (2, 0), (3, 0), (3, 1), (4, 1), (5, 2)):
            _, _, choi_ok = cp_divisible_choi(g, n_paths, n_shifts)
            assert np.array_equal(choi_ok, derivative_ok)

    amp = np.sqrt(0.5)
    plus, minus = QubitState.pure(amp, amp), QubitState.pure(amp, -amp)
    for k in range(0, grid_narrow.count, 500):
        g_val = g_narrow.values[k]
        for n_paths, n_shifts in ((1, 0), (3, 0), (3, 1)):
            _register(
                postselected_state_diss(plus, g_val, n_paths, n_shifts),
                postselected_state_diss(minus, g_val, n_paths, n_shifts),
            )


def test_criterion_09_dephasing_sudden_death_and_trapping():
    """The root of the modified coherence factor for the single-shift
    three-path profile agrees with the root of sqrt(phi) = 2/3 to 1e-6
    relative (Ohmic bath, eta = 1/3, T = 0: both equal sqrt(19/8)); for a
    super-Ohmic bath (s = 4) both the bare and the modified factor trap at a
    positive plateau whose variation over the final time decade is below
    1e-4.
    """
    params = DephasingParams(Ohmic(1.0 / 3.0, s=1.0, omega_c=1.0))

    def phi_series(params, grid):
        return single_path_factor(dephasing_exponent_series(params, grid).values)

    def phi_at(t):
        return phi_series(params, TimeGrid(t / 2.0, 3))[-1]

    def phi_mod_at(t):
        return modified_dephasing(phi_at(t), 3, 1)

    root_condition = brentq(lambda t: np.sqrt(phi_at(t)) - 2.0 / 3.0, 1.0, 2.0,
                            xtol=1e-13, rtol=8.9e-16)
    root_modified = brentq(phi_mod_at, 1.0, 2.0, xtol=1e-13, rtol=8.9e-16)
    assert abs(root_modified - root_condition) <= 1e-6 * root_condition
    assert abs(root_modified - np.sqrt(19.0 / 8.0)) <= 1e-6 * root_modified

    grid = TimeGrid(0.01, 401)
    phi = phi_series(params, grid)
    for k in range(0, grid.count, 40):
        if k == 0:
            continue
        _register(postselected_state_deph(PLUS, phi[k], 3, 1))
        _register(postselected_state_deph(PLUS, phi[k], 3, 0))

    params4 = DephasingParams(Ohmic(1.0 / 3.0, s=4.0, omega_c=1.0))
    grid4 = TimeGrid(0.2, 1001)
    phi4 = phi_series(params4, grid4)
    tail = grid4.times >= 20.0
    for values in (phi4, modified_dephasing(phi4, 3, 0)):
        segment = values[tail]
        assert segment[-1] > 0.0
        assert float(segment.max() - segment.min()) < 1e-4
    for k in range(0, grid4.count, 100):
        if k == 0:
            continue
        _register(postselected_state_deph(PLUS, phi4[k], 3, 0))


def test_criterion_10_general_engine_identities():
    """The general perturbative engine's filter reproduces the closed-form
    energy-exchange filter to 1e-6 relative on a 50-point frequency grid,
    and the binary phase pair sum equals (N - 2n)^2 exactly for every
    configuration with N <= 10.
    """
    j = Lorentzian(gamma0=4.0, lam=2.0, omega_q=1.0)
    model = dissipative_coupling_model(j, omega_q=1.0)
    omega = np.linspace(-2.0, 4.0, 50)
    t = 0.5
    for n_paths, n_shifts in ((1, 0), (3, 1)):
        got = general_filter(model, QubitState.excited(), omega, t, binary_phases(n_paths, n_shifts))
        expected = filter_diss(omega, t, n_paths, n_shifts, 1.0)
        assert np.all(np.abs(got - expected) <= 1e-6 * np.abs(expected))

    for n_paths in range(1, 11):
        for n_shifts in range(0, n_paths + 1):
            pair_sum = phase_pair_sum(binary_phases(n_paths, n_shifts))
            assert pair_sum == (n_paths - 2 * n_shifts) ** 2


def test_criterion_11_postselected_state_validity():
    """Every conditional state produced across the suite is Hermitian
    (to 1e-12), positive semidefinite (smallest eigenvalue >= -1e-10), has
    trace in [0, 1], and normalize() reports a success probability exactly
    equal to the pre-normalization trace.
    """
    states = list(_STATES)
    g_osc = decay_amplitude_closed_series(1.0, 0.1, TimeGrid(0.5, 21))
    amp = np.sqrt(0.5)
    for g_val in g_osc.values[1:]:
        states.append(postselected_state_diss(QubitState.pure(amp, amp), g_val, 4, 1))
        states.append(postselected_state_diss(EXCITED, g_val, 3, 0))
    assert len(states) >= 20

    for state in states:
        matrix = state.matrix
        assert float(np.max(np.abs(matrix - matrix.conj().T))) <= 1e-12
        assert float(np.min(np.linalg.eigvalsh(matrix))) >= -1e-10
        assert 0.0 <= state.trace <= 1.0 + 1e-12
        normalized, p = normalize(state)
        assert p == state.trace
        assert normalized.trace == pytest.approx(1.0, abs=1e-12)
