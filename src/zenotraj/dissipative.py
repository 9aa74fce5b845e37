"""Dissipative spin-boson dynamics under superposed trajectories.

Single-excitation sector: the excited amplitude obeys the memory-kernel
Volterra equation c'(t) = -∫₀ᵗ f(t-τ) c(τ) dτ with
f(t) = ∫ dω J(ω) e^{i(ω_q-ω)t}, so c(t) = c(0)·G(t) defines the dissipation
function G, returned as a ``Series`` checked against |G| <= 1.
Post-selecting an N-arm interferometer with n binary π-shifts turns the
single-path G into the conditional qubit states, survival probabilities,
trace-distance dynamics and CP-divisibility diagnostics implemented here.
"""

from dataclasses import dataclass

import numpy as np

from .core import (Lorentzian, QubitState, _binary_pair_sum, _initial_matrix, _refuse_dark_port,
                   _require_positive, r_factor)
from .errors import NullOutcome
from .numerics import Series, integrate_adaptive, solve_volterra

__all__ = [
    "MemoryKernel",
    "memory_kernel",
    "decay_amplitude",
    "decay_amplitude_lorentzian_closed",
    "decay_amplitude_closed_series",
    "decay_amplitude_auto",
    "postselected_state_diss",
    "survival_probability_diss",
    "decay_factor",
    "trace_distance_diss",
    "is_cp_divisible",
]

# relative and absolute tolerance of each memory-kernel sample
_KERNEL_REL_TOL = 1e-11
_KERNEL_ABS_TOL = 1e-13

# rounding slack of the contractivity bound |G| <= 1 that every G series meets
_G_SLACK = 1e-9


@dataclass(frozen=True)
class MemoryKernel:
    """Complex memory kernel f(t) with its provenance.

    ``f(0)`` equals the total spectral weight ∫ dω J(ω) (real, ≥ 0) within
    quadrature tolerance.
    """

    f: object
    provenance: str  # "numeric_from_J", or the label of a caller-supplied kernel

    def samples(self, grid):
        """The complex array f(t) at the grid times, one call of ``f`` per time."""
        return np.array([self.f(t) for t in grid.times], dtype=complex)


def memory_kernel(j, omega_q):
    """f(t) = ∫₀^{ω_max} dω J(ω) e^{i(ω_q-ω)t} by adaptive quadrature per t.

    Every t ≠ 0 takes QUADPACK's oscillatory weight: e^{i(ω_q-ω)t} =
    e^{iω_q t} (cos ωt - i sin ωt), one cos- and one sin-weighted integral
    of J.  These also converge at a few cycles of phase, where plain
    subdivision of the complex integrand fails for some line shapes.
    """
    omega_max = j.omega_max

    def f(t):
        if np.ndim(t) != 0:
            raise TypeError("memory kernel evaluates one time at a time")
        t = float(t)
        if t == 0.0:
            return complex(integrate_adaptive(j, 0.0, omega_max, _KERNEL_REL_TOL,
                                              _KERNEL_ABS_TOL), 0.0)
        re = integrate_adaptive(j, 0.0, omega_max, _KERNEL_REL_TOL, _KERNEL_ABS_TOL,
                                weight="cos", wvar=t)
        im = integrate_adaptive(j, 0.0, omega_max, _KERNEL_REL_TOL, _KERNEL_ABS_TOL,
                                weight="sin", wvar=t)
        return complex(np.exp(1j * omega_q * t) * (re - 1j * im))

    return MemoryKernel(f, "numeric_from_J")


def decay_amplitude(j, omega_q, grid):
    """G(t) on a grid by solving the Volterra equation for the kernel of J."""
    samples = memory_kernel(j, omega_q).samples(grid)
    return Series(grid, solve_volterra(samples, grid), "volterra").check(0.0, 1.0 + _G_SLACK)


def _sinhc(x):
    """sinh(x)/x with a series branch near 0 (complex-safe)."""
    x = np.asarray(x, dtype=complex)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 + x * x / 6.0 + x**4 / 120.0, np.sinh(safe) / safe)
    return out


def decay_amplitude_lorentzian_closed(gamma0, lam, t):
    """Closed-form G(t) = e^{-λt/2}[cosh(δt/2) + (λ/δ) sinh(δt/2)], δ=√(λ²-2γ₀λ).

    The δ → 0 (critical) limit is handled by the sinh series; δ may be real
    or imaginary depending on the sign of λ - 2γ₀. Vectorized over t.
    """
    _require_positive("the closed form", gamma0=gamma0, lam=lam)
    t = np.asarray(t, dtype=float)
    delta = np.sqrt(complex(lam * lam - 2.0 * gamma0 * lam))
    x = 0.5 * delta * t
    g = np.exp(-0.5 * lam * t) * (np.cosh(x) + 0.5 * lam * t * _sinhc(x))
    return complex(g) if g.ndim == 0 else g


def decay_amplitude_closed_series(gamma0, lam, grid):
    """Closed-form Lorentzian G sampled on a TimeGrid, G(0) pinned to exactly 1."""
    values = decay_amplitude_lorentzian_closed(gamma0, lam, grid.times)
    values[0] = 1.0 + 0.0j
    return Series(grid, values, "lorentzian_closed_form").check(0.0, 1.0 + _G_SLACK)


def decay_amplitude_auto(j, omega_q, grid):
    """Default dispatch for Lorentzian spectra.

    The closed pseudomode form assumes a line centred on the qubit over the
    full frequency axis; it is used for a resonant line (j.omega_q ==
    omega_q) with λ ≤ 0.02·ω_q, where it agrees with the truncated half-line
    kernel to better than 1e-3 relative. Otherwise Volterra is taken.
    """
    if isinstance(j, Lorentzian) and j.omega_q == omega_q and j.lam <= 0.02 * omega_q:
        return decay_amplitude_closed_series(j.gamma0, j.lam, grid)
    return decay_amplitude(j, omega_q, grid)


# ---------------------------------------------------------------------------
# post-selected states and survival probability
# ---------------------------------------------------------------------------

def postselected_state_diss(rho0, g_t, n_paths, n_shifts):
    """Unnormalized conditional state after post-selection (dissipative model).

    For the initial QubitState rho0 (unit trace, pure or mixed: the map is linear)
    and dissipation value G = g_t: ee = R|G|²ρ_ee, eg = R G ρ_eg, gg = R ρ_gg + (1/N)(1-|G|²)ρ_ee.
    """
    m0 = _initial_matrix(rho0)
    g2 = abs(g_t) ** 2
    out = r_factor(n_paths, n_shifts) * m0 * np.array([[g2, g_t], [np.conj(g_t), 1.0]])
    out[1, 1] += m0[0, 0] * (1.0 - g2) / n_paths
    return QubitState(out)


def survival_probability_diss(g_t, n_paths, n_shifts):
    """p(t) = R|G|² / (R|G|² + (1-|G|²)/N) for the |e⟩ initial state."""
    r = r_factor(n_paths, n_shifts)
    g2 = np.abs(np.asarray(g_t)) ** 2
    num = r * g2
    den = num + (1.0 - g2) / n_paths
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    p = float(p) if p.ndim == 0 else p
    if np.any(np.asarray(p) <= 0.0):
        raise NullOutcome("survival probability is not positive")
    return p


def decay_factor(p):
    """γ = -log p."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0):
        raise NullOutcome("decay factor undefined for p <= 0")
    out = -np.log(p)
    return float(out) if out.ndim == 0 else out


def trace_distance_diss(g_t, n_paths, n_shifts):
    """Trace distance between the conditional states evolved from ρ±(0).

    ρ±(0) = |±⟩⟨±| differ only in the sign of their coherence, which the
    post-selected dynamics multiplies by R·G(t); both states share the same
    trace, so D = 2K|G| / [(K-N)|G|² + K + N] with K = (N-2n)². Pointwise
    over an array or a scalar G value.
    """
    _refuse_dark_port(n_paths, n_shifts)
    g_abs = np.abs(np.asarray(g_t))
    k = _binary_pair_sum(n_paths, n_shifts)
    d = 2.0 * k * g_abs / ((k - n_paths) * g_abs**2 + k + n_paths)
    return float(d) if d.ndim == 0 else d


# ---------------------------------------------------------------------------
# divisibility
# ---------------------------------------------------------------------------

def is_cp_divisible(g):
    """CP divisibility of the conditional dissipative dynamics.

    The family of (trace-non-increasing) intermediate maps is completely
    positive exactly while d|G(t)|²/dt ≤ 0: the sole possibly-negative Choi
    eigenvalue of the map from t to t+τ is N̄(1-|G(t+τ)/G(t)|²) with
    N̄ = N/(N-2n)², so the verdict does not depend on (N, n).  The check uses
    pairwise differences on the grid (the centered derivative at each
    midpoint) against the tolerance 1e-9·max|G|².
    Returns (divisible, first_violation_time or None).
    """
    g2 = np.abs(g.values) ** 2
    dt = g.grid.dt
    tol = 1e-9 * float(np.max(g2))
    deriv = np.diff(g2) / dt
    bad = np.nonzero(deriv > tol)[0]
    if bad.size == 0:
        return True, None
    k = int(bad[0])
    return False, float(g.grid.times[k] + 0.5 * dt)
