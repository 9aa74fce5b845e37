"""Collective decay of a single emitter at a superposition of positions.

A control register C steers which of N positions the emitter occupies; the
vacuum couples the position branches, giving the master equation

    d rho / dt = Gamma0 sum_i [ L_i rho L_i^+ - 1/2 {L_i^+ L_i, rho} ]
               + Gamma0 sum_{i != j} sinc(q |r_i - r_j|) L_i rho L_j^+,

with L_i = |i><i| (x) sigma_-.  Because the control projectors are
orthogonal, L_j^+ L_i = 0 for i != j, so the printed cross term already is
the full non-diagonal Lindblad form.  Post-selecting C on the superposition
that prepared it yields a single-emitter analogue of sub- and
superradiance: the conditional excited population can decay slower than the
two-atom subradiant rate or faster than the superradiant one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _refuse_dark_port, _require_positive, binary_phases, phase_weights, r_factor
from .errors import NullOutcome, NumericError
from .numerics import _check_size, integrate_matrix_ode

__all__ = [
    "CollectiveRateMatrix",
    "build_master_generator",
    "evolve_collective",
    "excited_population_analytic",
    "excited_population_numeric",
    "superposed_initial_state",
]

# global minimum of sinc(x) = sin(x)/x, at the root x ~ 4.4934 of tan x = x,
# correctly rounded; entries of the collective matrix can never fall below it
SINC_MIN = -0.21723362821122166

# rounding tolerance of the smallest eigenvalue of a collective matrix
_PSD_TOL = 1e-12

# classical RK4 is stable on the negative real axis for h*|lambda| up to the
# real root of 1 + z + z^2/2 + z^3/6 + z^4/24 = 1, z = -2.7852935634...
_RK4_REAL_STABILITY = 2.785293563405282

# traced bytes per complex entry of evolve_collective's state history, which
# holds (steps + 1) (2N)^2 of them: a dicke --numeric table peaks at 16-21
# (N = 2 to 64, 250 to 200,000 steps)
_HISTORY_BYTES = 21


def _check_state_history(n_sites, count):
    """NumericError, before anything is allocated, past the size budget for ``count`` states."""
    _check_size(count * (2 * n_sites) ** 2, _HISTORY_BYTES, "state-history entries",
                ("--steps", "--N"))


def _check_reachable(entries):
    """ValueError unless every collective factor lies in sinc's range [SINC_MIN, 1]."""
    if np.any(entries < SINC_MIN) or np.any(entries > 1.0):
        raise ValueError(f"sinc(q d) entries must lie in the reachable range [{SINC_MIN!r}, 1]")


@dataclass(frozen=True)
class CollectiveRateMatrix:
    """Positive semidefinite N x N matrix M_ii = 1, M_ij = sinc(q d_ij), plus the rate."""

    matrix: np.ndarray
    gamma0: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("collective matrix must be square")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ValueError("collective matrix must be symmetric")
        if np.any(np.diag(m) != 1.0):
            raise ValueError("diagonal entries must be exactly 1")
        _check_reachable(m)
        _require_positive("CollectiveRateMatrix", gamma0=self.gamma0)
        object.__setattr__(self, "matrix", m)
        lowest = float(np.linalg.eigvalsh(m)[0])
        if lowest < -_PSD_TOL:
            raise ValueError(
                f"collective matrix is not positive semidefinite: smallest eigenvalue {lowest:.6g}")

    @property
    def n_sites(self):
        return self.matrix.shape[0]

    @classmethod
    def from_factor(cls, n_sites, s, gamma0):
        """Uniform cross factor s = sinc(q d) of an equal-distance geometry."""
        cls.check_factor(n_sites, s)
        m = np.full((n_sites, n_sites), float(s))
        np.fill_diagonal(m, 1.0)
        return cls(m, float(gamma0))

    @staticmethod
    def check_factor(n_sites, s):
        """Refuse s outside [SINC_MIN, 1], or below -1/(N-1) where M's eigenvalue 1 + (N-1)s < 0."""
        _check_reachable(s)
        if 1.0 + (n_sites - 1) * s < -_PSD_TOL:  # never for N = 1, where M = [1]
            raise ValueError(f"collective matrix is not positive semidefinite: a uniform factor"
                             f" needs s >= -1/(N-1) = {-1.0 / (n_sites - 1)!r} for N = {n_sites}")


def build_master_generator(rates):
    """Linear map rho -> d rho/dt for the collective equation.

    ``rates`` is a CollectiveRateMatrix.  The cross term is exactly the
    printed sandwich sum; trace preservation is asserted on a seeded random
    Hermitian matrix at build time and the build aborts with a diagnostic if
    it fails.
    """
    m, n, gamma0 = rates.matrix, rates.n_sites, rates.gamma0
    dim = 2 * n

    def rhs(rho):
        t = rho.reshape(n, 2, n, 2)
        out = np.zeros_like(t)
        # sum_ij M_ij L_i rho L_j^+ : excited-excited blocks drop to ground
        out[:, 1, :, 1] = m * t[:, 0, :, 0]
        # -1/2 {K, rho} with K = I_N (x) |e><e| (row/column qubit index e)
        out[:, 0, :, :] -= 0.5 * t[:, 0, :, :]
        out[:, :, :, 0] -= 0.5 * t[:, :, :, 0]
        return gamma0 * out.reshape(dim, dim)

    rng = np.random.default_rng(20240817)
    probe = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    probe = probe + probe.conj().T
    drift = abs(np.trace(rhs(probe)))
    if drift > 1e-12 * max(1.0, float(np.max(np.abs(probe)))) * gamma0:
        raise NumericError(
            f"collective generator is not trace-preserving: tr(d rho) = {drift:g}"
        )
    return rhs


def superposed_initial_state(n_paths):
    """|chi_C><chi_C| (x) |e><e| with chi_C the uniform position superposition.

    The phase pattern enters only at post-selection (see
    :func:`excited_population_numeric`); preparation is phase-free.  Returns
    the 2N x 2N density matrix in the basis |i> (x) {|e>, |g>}.
    """
    chi = np.full(n_paths, 1.0 / np.sqrt(n_paths), dtype=complex)
    vec = np.kron(chi, np.array([1.0, 0.0], dtype=complex))
    return np.outer(vec, vec.conj())


def evolve_collective(rates, rho0, grid):
    """RK4 evolution of a control (x) qubit state under the collective generator.

    The generator's spectrum is {0, -Gamma0/2, -Gamma0}, so a step with
    Gamma0*dt beyond RK4's real-axis stability limit would amplify instead
    of damp; such a grid raises NumericError, as does a state history past
    the size budget.
    """
    _check_state_history(rates.n_sites, grid.count)
    if rates.gamma0 * grid.dt > _RK4_REAL_STABILITY:
        raise NumericError(
            f"RK4 step is unstable: gamma0*dt = {rates.gamma0 * grid.dt:g} exceeds "
            f"the real-axis stability limit {_RK4_REAL_STABILITY:.4f}; use more steps")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (2 * rates.n_sites,) * 2:
        raise ValueError("initial state dimension does not match the rate matrix")
    gen = build_master_generator(rates)
    return integrate_matrix_ode(gen, rho0, grid)


def excited_population_analytic(t, n_paths, n_shifts, gamma0, s):
    """Closed-form conditional excited population for equal distances.

    P_e = R e^{-x} / [ 1/N + (R - 1/N) (e^{-x} + s (1 - e^{-x})) ],  x = Gamma0 t.
    """
    _refuse_dark_port(n_paths, n_shifts)
    x = gamma0 * np.asarray(t, dtype=float)
    r = r_factor(n_paths, n_shifts)
    e = np.exp(-x)
    den = 1.0 / n_paths + (r - 1.0 / n_paths) * (e + s * (1.0 - e))
    if np.any(den <= 0.0):
        raise NullOutcome("post-selection probability vanished")
    out = r * e / den
    return float(out) if out.ndim == 0 else out


def excited_population_numeric(states, n_paths, n_shifts):
    """Post-selected excited population along an evolved state series.

    ``states`` is the (count, 2N, 2N) array from :func:`evolve_collective`
    (or a single matrix).  The control is projected on the same binary-phase
    superposition used at preparation; the excited weight is normalized by
    the full post-selection probability.
    """
    arr = np.asarray(states, dtype=complex)
    single = arr.ndim == 2
    if single:
        arr = arr[None]
    dim = arr.shape[1]
    if dim != 2 * n_paths:
        raise ValueError("state dimension does not match n_paths")
    w = phase_weights(binary_phases(n_paths, n_shifts))
    chi = w / np.sqrt(n_paths)
    v_e = np.kron(chi, np.array([1.0, 0.0], dtype=complex))
    v_g = np.kron(chi, np.array([0.0, 1.0], dtype=complex))
    num = np.einsum("i,kij,j->k", v_e.conj(), arr, v_e).real
    den = num + np.einsum("i,kij,j->k", v_g.conj(), arr, v_g).real
    if np.any(den < 1e-14):
        raise NullOutcome("post-selection trace vanished along the evolution")
    p = num / den
    return float(p[0]) if single else p
