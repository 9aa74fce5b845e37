"""Shared domain types: spectral densities, phase profiles and qubit states.

A qubit traversing an N-arm interferometer accumulates per-path conditional
states ρ_{Q,i,j}; projecting the path register onto a phase profile
|χ_φ⟩ ∝ Σ_k e^{iφ_k}|k⟩ yields the (unnormalized) conditional qubit state

    ρ̃_Q = (1/N²) Σ_{i,j} e^{-i(φ_i-φ_j)} ρ_{Q,i,j}.

For identical environments all diagonal blocks equal ρ_Q(t), all off-diagonal
blocks equal a single cross block β(t), and the sum collapses to
ρ_Q(t)/N + (R - 1/N) β(t) with the post-selection factor
R(N, n) = (N - 2n)²/N² for binary phase profiles with n shifts of π.  The
model modules build their conditional states from that collapsed form; the
general block sum is kept in the tests as its oracle.  This module holds the
ingredients both share: the spectral-density families, the phase algebra
(R, phase weights, pair sums), the 2×2 qubit state, normalization and the
trace distance.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NullOutcome
from .numerics import _check_size

__all__ = [
    "SpectralDensity",
    "Lorentzian",
    "Ohmic",
    "GaussianPeak",
    "QubitState",
    "r_factor",
    "binary_phases",
    "phase_weights",
    "phase_pair_sum",
    "normalize",
    "trace_distance",
]


# a product whose factors' logarithms sum past this may overflow float64
_LOG_HUGE = math.log(np.finfo(float).max) - 1.0


def _require_positive(owner, **values):
    """ValueError naming the first of ``values`` that is not > 0 (nan included)."""
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{owner} needs {name} > 0, got {name}={value!r}")


def _require_elapsed(t):
    """ValueError unless the elapsed time t is >= 0 (nan included)."""
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got t={t!r}")


# ---------------------------------------------------------------------------
# spectral densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class SpectralDensity:
    """Coupling spectrum J(ω) ≥ 0 on [0, omega_max], zero outside.

    Each family subclass supplies J as ``_shape(omega)``, which is only
    ever called on nodes in [0, omega_max], and a default ``omega_max``; the
    coupling strength is a parameter of each family (γ₀, η), so J → ε²J is
    the same family with that parameter times ε².  A custom J is such a
    subclass too; it must be smooth on (0, omega_max), as no quadrature
    splits its interval at a kink of J.
    """

    omega_max: float | None = None

    def _resolve(self, default_omega_max):
        """Fill in the default omega_max and store the fields as floats."""
        if self.omega_max is None:
            object.__setattr__(self, "omega_max", default_omega_max)
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))

    # a family whose ``_shape`` rounds a Python float as it rounds an array sets
    # this, so QUADPACK's float nodes skip the ndarray round trip
    _float_shape = False

    def __call__(self, omega):
        if type(omega) is float and self._float_shape:
            return self._shape(omega) if 0.0 <= omega <= self.omega_max else 0.0
        omega = np.asarray(omega, dtype=float)
        # one min and one max pass when every node is in the support
        if omega.size and omega.min() >= 0 and omega.max() <= self.omega_max:
            out = self._shape(omega)
        else:  # the shape of the nodes inside only: none of the others warns
            inside = (omega >= 0) & (omega <= self.omega_max)
            out = np.zeros_like(omega)
            out[inside] = self._shape(omega[inside])
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Lorentzian(SpectralDensity):
    """γ₀λ²/(2π[(ω_q − ω)² + λ²]), cut at ω_q + 50λ by default."""

    gamma0: float
    lam: float
    omega_q: float

    def __post_init__(self):
        _require_positive("Lorentzian", gamma0=self.gamma0, lam=self.lam)
        self._resolve(self.omega_q + 50.0 * self.lam)
        try:  # a float power past float range raises instead of returning inf
            lam_sq = self.lam ** 2
        except OverflowError:
            lam_sq = math.inf
        object.__setattr__(self, "_lam_sq", lam_sq)
        # d * d + λ² > 0 unless λ² underflows, where a float 0/0 would raise
        object.__setattr__(self, "_float_shape", lam_sq > 0.0)

    def _shape(self, omega):
        # d * d, not d ** 2: a float power and an array square may round apart
        d = self.omega_q - omega
        return self.gamma0 * self._lam_sq / (2.0 * np.pi) / (d * d + self._lam_sq)


@dataclass(frozen=True)
class Ohmic(SpectralDensity):
    """η ω^s ω_c^{1−s} e^{−ω/ω_c} (s < 1 sub-, s > 1 super-Ohmic), cut at 50ω_c."""

    eta: float
    s: float
    omega_c: float

    def __post_init__(self):
        _require_positive("Ohmic", eta=self.eta, s=self.s, omega_c=self.omega_c)
        self._resolve(50.0 * self.omega_c)
        # w^s is largest at w = omega_max; where η w^s ω_c^{1−s} may pass float
        # range there, J is taken from log space at the nodes whose direct
        # product is not finite (every other node keeps the direct product)
        logs = (self.s * math.log(self.omega_max) if self.omega_max > 0 else 0.0,
                math.log(self.eta), (1.0 - self.s) * math.log(self.omega_c))
        object.__setattr__(self, "_log_space", sum(max(x, 0.0) for x in logs) > _LOG_HUGE)

    def _shape(self, omega):
        if self._log_space:
            return self._log_space_shape(omega)
        # η w^s ω_c^{1−s} e^{−w/ω_c} in the buffer of w^s, multiplied
        # left to right (another order rounds differently); 0 at w = 0
        shape = omega ** self.s
        shape *= self.eta
        shape *= self.omega_c ** (1.0 - self.s)
        decay = np.negative(omega, out=np.empty_like(omega))
        decay /= self.omega_c
        shape *= np.exp(decay, out=decay)
        return shape

    def _log_space_shape(self, w):
        """The direct product where it is finite, exp(log J) at the other w >= 0."""
        # at w = 0 the direct product is 0, or 0 * inf = nan, and log J = -inf
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            direct = (self.eta * w ** self.s * np.float64(self.omega_c) ** (1.0 - self.s)
                      * np.exp(-w / self.omega_c))
            log_j = (math.log(self.eta) + self.s * np.log(w)
                     + (1.0 - self.s) * math.log(self.omega_c) - w / self.omega_c)
        return np.where(np.isfinite(direct), direct, np.exp(log_j))


@dataclass(frozen=True)
class GaussianPeak(SpectralDensity):
    """e^{−(ω − ω_m)²/δ}, cut at ω_m + 12√δ by default."""

    omega_m: float
    delta: float

    def __post_init__(self):
        _require_positive("GaussianPeak", delta=self.delta)
        self._resolve(self.omega_m + 12.0 * math.sqrt(self.delta))

    def _shape(self, omega):
        with np.errstate(over="ignore"):  # the square past 1e154 is inf, and e^{-inf} = 0
            return np.exp(-(omega - self.omega_m) ** 2 / self.delta)


# ---------------------------------------------------------------------------
# phase profiles and their algebra
# ---------------------------------------------------------------------------

# traced bytes per path of a perturbation run's phase vector (72 at N = 10^6
# and 4*10^6); the closed forms take (N, n) and allocate nothing per path
_PATH_BYTES = 72


def _check_path_range(n_paths, n_shifts):
    """ValueError unless N >= 1 paths and 0 <= n <= N of them are shifted."""
    if n_paths < 1:
        raise ValueError(f"N must be a positive integer, got N={n_paths}")
    if not 0 <= n_shifts <= n_paths:
        raise ValueError(f"n must satisfy 0 <= n <= N, got n={n_shifts}, N={n_paths}")


def _refuse_dark_port(n_paths, n_shifts):
    """ValueError at n = N/2, where the projected port is dark (R = 0, a null result)."""
    if 2 * n_shifts == n_paths:
        raise ValueError(f"null post-selection: with n = N/2 (n={n_shifts}, N={n_paths}) the "
                         "projected output port is dark and one obtains a null result")


def _binary_pair_sum(n_paths, n_shifts):
    """K = (N - 2n)², the pair sum of a binary profile as an exact integer."""
    return (n_paths - 2 * n_shifts) ** 2


def r_factor(n_paths, n_shifts):
    """Post-selection factor R(N, n) = (N - 2n)²/N² for binary phase profiles."""
    _check_path_range(n_paths, n_shifts)
    return _binary_pair_sum(n_paths, n_shifts) / n_paths**2


def binary_phases(n_paths, n_shifts):
    """Phase vector with ``n_shifts`` entries of π and the rest zero.

    NumericError, before anything is allocated, past the size budget.
    """
    _check_path_range(n_paths, n_shifts)
    _check_size(n_paths, _PATH_BYTES, "phase-vector paths", ("--N",))
    phases = np.zeros(n_paths, dtype=float)
    phases[:n_shifts] = np.pi
    return phases


def _finite_phases(phases):
    """phases as a float array; ValueError unless it is 1-d, non-empty and finite."""
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or not phases.size:
        raise ValueError(f"a phase vector must be 1-d and non-empty, got shape {phases.shape}")
    if not np.all(np.isfinite(phases)):
        raise ValueError("phase entries must be finite")
    return phases


def phase_weights(phases):
    """e^{-iφ} per entry, with exact reduction of integer multiples of π.

    Arguments are reduced as φ = mπ + r with m = round(φ/π), so that
    e^{-iφ} = (-1)^m e^{-ir}. Near-π phases thereby avoid the sin(π) ≈ 1e-16
    residue of a naive complex exponential, and binary {0, π} profiles get
    exact ±1 weights.
    """
    phases = _finite_phases(phases)
    m = np.round(phases / np.pi)
    r = phases - m * np.pi
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    return sign * (np.cos(r) - 1j * np.sin(r))


def phase_pair_sum(phases):
    """Σ_{k,l} e^{-i(φ_k - φ_l)} = |Σ_k e^{-iφ_k}|², real and ≥ 0.

    For binary profiles with n π-shifts this equals (N - 2n)² exactly.
    """
    total = np.sum(phase_weights(phases))
    return float(total.real**2 + total.imag**2)


# ---------------------------------------------------------------------------
# qubit states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QubitState:
    """2×2 qubit operator in the {|e⟩, |g⟩} basis, the one form of a qubit state.

    May be unnormalized: the trace of a post-selected state is the success
    probability of the projective outcome, so traces in [0, 1] are
    first-class values here.
    """

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=complex)
        if matrix.shape != (2, 2):
            raise ValueError("QubitState requires a 2x2 matrix")
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def pure(cls, c_e, c_g):
        """|ψ⟩⟨ψ| from amplitudes (c_e, c_g); ValueError unless |c_e|² + |c_g|² = 1 to 1e-12."""
        norm = abs(c_e) ** 2 + abs(c_g) ** 2
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"amplitudes must satisfy |c_e|² + |c_g|² = 1, got {norm!r}")
        psi = np.array([c_e, c_g], dtype=complex)
        return cls(np.outer(psi, psi.conj()))

    @classmethod
    def excited(cls):
        return cls.pure(1.0, 0.0)

    @classmethod
    def ground(cls):
        return cls.pure(0.0, 1.0)

    @classmethod
    def plus(cls):
        return cls.pure(math.sqrt(0.5), math.sqrt(0.5))

    @classmethod
    def minus(cls):
        return cls.pure(math.sqrt(0.5), -math.sqrt(0.5))

    @property
    def trace(self):
        return float(np.trace(self.matrix).real)

    def validate(self):
        """Assert Hermiticity, positivity and the trace window to 1e-12; returns self."""
        dev = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        if dev > 1e-12:
            raise ValueError(f"state is not Hermitian: deviation {dev:g}")
        lo = float(np.linalg.eigvalsh(self.matrix)[0])
        if lo < -1e-12:
            raise ValueError(f"state is not PSD: min eigenvalue {lo:g}")
        tr = self.trace
        if not -1e-12 <= tr <= 1.0 + 1e-12:
            raise ValueError(f"trace {tr:g} outside [0, 1]")
        return self


def _initial_matrix(rho0):
    """The matrix of the initial state ``rho0``; ValueError unless it is Hermitian,
    positive semidefinite and of unit trace, each to 1e-12."""
    tr = rho0.trace
    if not abs(tr - 1.0) <= 1e-12:
        raise ValueError(f"an initial state must have unit trace, got {tr!r}")
    return rho0.validate().matrix


# ---------------------------------------------------------------------------
# normalization and distances
# ---------------------------------------------------------------------------

def normalize(state):
    """Divide out the trace; returns (normalized state, success probability)."""
    p = state.trace
    if p <= -1e-14:
        raise ValueError(f"state has negative trace {p:g}")
    if p < 1e-14:
        raise NullOutcome("post-selection probability is numerically zero")
    return QubitState(state.matrix / p), p


def trace_distance(a, b):
    """½‖a − b‖₁ of two qubit states."""
    diff = a.matrix - b.matrix
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))
