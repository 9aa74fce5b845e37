"""General second-order engine for arbitrary qubit-bath couplings.

The interaction is supplied in decomposed form: Hermitian qubit operators
A_alpha together with correlation kernels f_{alpha beta}(omega, t1, t2)
such that C_{alpha beta}(t1, t2) = int dw J(w) f_{alpha beta}(w, t1, t2).
From these the engine produces

  * the second-order correction block of the per-path density matrix,
  * the general filter function F(w, t, N, phases) whose overlap with J
    gives the post-selected decay factor, and
  * that decay factor itself, averaged over the N paths.

The two paper models are available as factories: the energy-exchange
coupling reproduces the sinc^2 filter exactly, and the pure-dephasing
coupling reproduces the (1 - cos wt)/w^2 shape up to an overall constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import QubitState, phase_pair_sum
from .errors import NullOutcome, QuadratureError
from .numerics import integrate_adaptive

__all__ = [
    "CouplingModel",
    "dissipative_coupling_model",
    "dephasing_coupling_model",
    "interaction_picture_operator",
    "second_order_block",
    "general_filter",
    "general_decay_factor",
]

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_GL_ORDER = 10


@dataclass(frozen=True)
class CouplingModel:
    """Free qubit Hamiltonian, coupling operators, decomposed correlations.

    ``kernel(alpha, beta, omega, t1, t2)`` must broadcast over ndarray
    omega/t1/t2 and is defined for 0 <= t2 <= t1.  ``spectral_densities``
    holds one entry per path; a single entry means all paths identical.
    """

    h_q: np.ndarray
    operators: tuple
    kernel: object
    spectral_densities: tuple

    def __post_init__(self):
        h = np.asarray(self.h_q, dtype=complex)
        if h.shape != (2, 2) or np.max(np.abs(h - h.conj().T)) > 1e-12:
            raise ValueError("h_q must be a 2x2 Hermitian matrix")
        ops = tuple(np.asarray(a, dtype=complex) for a in self.operators)
        if not ops:
            raise ValueError("at least one coupling operator is required")
        for a in ops:
            if a.shape != (2, 2) or np.max(np.abs(a - a.conj().T)) > 1e-12:
                raise ValueError("coupling operators must be 2x2 Hermitian")
        if not self.spectral_densities:
            raise ValueError("at least one spectral density is required")
        object.__setattr__(self, "h_q", h)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "spectral_densities", tuple(self.spectral_densities))

    def density_for_path(self, path_index):
        js = self.spectral_densities
        return js[0] if len(js) == 1 else js[path_index]

    @property
    def omega_scale(self):
        """Largest level splitting of h_q (phase rate of the rotating frame)."""
        ev = np.linalg.eigvalsh(self.h_q)
        return float(ev[-1] - ev[0])


def dissipative_coupling_model(j, omega_q):
    """Energy-exchange coupling in Hermitian-pair form.

    sigma_+ B + sigma_- B^+ = sigma_x (B + B^+)/2 + sigma_y i(B - B^+)/2;
    at zero temperature only <B B^+> survives, giving the kernel table
    f_xx = f_yy = 1/4 e^{-iw(t1-t2)}, f_xy = -i/4 ..., f_yx = +i/4 ... .
    """
    table = np.array([[0.25, -0.25j], [0.25j, 0.25]], dtype=complex)

    def kernel(alpha, beta, omega, t1, t2):
        return table[alpha, beta] * np.exp(-1j * np.asarray(omega) * (t1 - t2))

    h_q = 0.5 * omega_q * _SZ
    return CouplingModel(h_q, (_SX, _SY), kernel, (j,))


def dephasing_coupling_model(j, omega_q=0.0):
    """Pure-dephasing coupling A = sigma_z with the vacuum kernel e^{-iw(t1-t2)}."""

    def kernel(alpha, beta, omega, t1, t2):
        return np.exp(-1j * np.asarray(omega) * (t1 - t2))

    h_q = 0.5 * omega_q * _SZ
    return CouplingModel(h_q, (_SZ,), kernel, (j,))


def interaction_picture_operator(a, h_q, t):
    """A(t) = e^{i H_Q t} A e^{-i H_Q t} by exact 2x2 eigendecomposition."""
    a = np.asarray(a, dtype=complex)
    h = np.asarray(h_q, dtype=complex)
    if np.max(np.abs(h - h.conj().T)) > 1e-12:
        raise ValueError("h_q must be Hermitian")
    d, u = np.linalg.eigh(h)
    e = u @ np.diag(np.exp(1j * d * t)) @ u.conj().T
    return e @ a @ e.conj().T


def _rotated_operators(model, times):
    """Stack of A_alpha(t) for every t in ``times``: shape (n_ops, len, 2, 2)."""
    d, u = np.linalg.eigh(model.h_q)
    phase = np.exp(1j * np.outer(times, d))  # (m, 2)
    e = np.einsum("ij,mj,kj->mik", u, phase, u.conj())
    e_dag = np.conj(np.transpose(e, (0, 2, 1)))
    return np.stack([np.einsum("mij,jk,mkl->mil", e, a, e_dag) for a in model.operators])


def _triangle_mesh(t, nu, order=_GL_ORDER):
    """GL product mesh for the ordered double integral 0 <= t2 <= t1 <= t.

    ``nu`` is the fastest phase rate of the integrand; panels are one
    half-period long so fixed order-10 nodes resolve every oscillation.
    Returns flat arrays (t1, t2, weight).
    """
    n_pan = max(2, int(np.ceil(nu * t / np.pi)))
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, t, n_pan + 1)
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    t1 = (mid[:, None] + half[:, None] * x).ravel()
    w1 = (half[:, None] * w).ravel()
    # inner mesh on [0, t1] as the unit mesh scaled by t1
    ue = np.linspace(0.0, 1.0, n_pan + 1)
    uh = 0.5 * np.diff(ue)
    um = ue[:-1] + uh
    u = (um[:, None] + uh[:, None] * x).ravel()
    wu = (uh[:, None] * w).ravel()
    T1 = np.repeat(t1, u.size)
    T2 = np.outer(t1, u).ravel()
    W = np.outer(w1 * t1, wu).ravel()
    return T1, T2, W


def second_order_block(model, rho0, path_index, t, rel_tol=1e-10, abs_tol=1e-13):
    """Second-order correction of the path-``i`` density matrix at time t.

    sum_{ab} int_0^t dt1 int_0^{t1} dt2 C_{ab}(t1,t2)
        [A_b(t2) rho0 A_a(t1) - A_a(t1) A_b(t2) rho0]  + h.c.

    The double time integral runs on a phase-resolved Gauss-Legendre mesh;
    the frequency integral C_{ab} = int dw J(w) f_{ab} runs adaptively so
    sharp spectral features are resolved, with one subdivision shared by
    all matrix entries.  Off-diagonal path blocks vanish under the declared
    zero-first-moment assumption, so only the diagonal block is produced.
    """
    if not isinstance(rho0, QubitState):
        rho0 = QubitState(np.asarray(rho0, dtype=complex))
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return np.zeros((2, 2), dtype=complex)
    j = model.density_for_path(path_index)
    nu = j.omega_max + model.omega_scale
    T1, T2, W = _triangle_mesh(t, nu)

    a1 = _rotated_operators(model, T1)  # (n_ops, P, 2, 2)
    a2 = _rotated_operators(model, T2)
    r = rho0.matrix
    n_ops = len(model.operators)
    weighted_comm = []
    for alpha in range(n_ops):
        row = []
        for beta in range(n_ops):
            gain = np.einsum("pij,jk,pkl->pil", a2[beta], r, a1[alpha])
            loss = np.einsum("pij,pjk,kl->pil", a1[alpha], a2[beta], r)
            row.append(W[:, None, None] * (gain - loss))
        weighted_comm.append(row)

    def time_integral(w):
        acc = np.zeros((2, 2), dtype=complex)
        for alpha in range(n_ops):
            for beta in range(n_ops):
                fv = model.kernel(alpha, beta, w, T1, T2)
                acc += np.einsum("p,pil->il", fv, weighted_comm[alpha][beta])
        return j(w) * acc

    from scipy.integrate import quad_vec

    block, err = quad_vec(time_integral, 0.0, j.omega_max,
                          epsabs=abs_tol, epsrel=rel_tol, limit=400)
    scale = max(np.max(np.abs(block)), abs_tol)
    if err > max(abs_tol, 100.0 * rel_tol * scale):
        raise QuadratureError(
            "frequency integral for the second-order block did not converge",
            estimate=block, error_bound=err)
    return block + block.conj().T


def _filter_mesh(model, psi0, t):
    """Precompute the omega-independent part of the general filter."""
    if not isinstance(psi0, QubitState):
        psi0 = QubitState(np.asarray(psi0, dtype=complex))
    r = psi0.matrix
    if abs(np.trace(r @ r).real - 1.0) > 1e-10:
        raise ValueError("psi0 must be a pure state")
    p_perp = np.eye(2, dtype=complex) - r
    nu = model.omega_scale + max(ji.omega_max for ji in model.spectral_densities)
    T1, T2, W = _triangle_mesh(t, nu)
    a1 = _rotated_operators(model, T1)
    a2 = _rotated_operators(model, T2)
    # sandwich_{ab}(p) = tr[P_perp A_b(t2) rho0 A_a(t1)]
    n_ops = len(model.operators)
    sandwich = np.empty((n_ops, n_ops, T1.size), dtype=complex)
    for alpha in range(n_ops):
        for beta in range(n_ops):
            sandwich[alpha, beta] = np.einsum(
                "ij,pjk,kl,pli->p", p_perp, a2[beta], r, a1[alpha]
            )
    return T1, T2, W, sandwich


def general_filter(model, psi0, omega, t, config):
    """F(w, t, N, phases): the leakage filter of the post-selected dynamics.

    ``config`` is the InterferometerConfig the path register is post-selected
    on.  Returns a real scalar for scalar ``omega`` or an ndarray for an
    ndarray ``omega``.
    """
    if config.is_null:
        raise NullOutcome("null phase profile: the post-selection weight vanishes")
    pair_sum = phase_pair_sum(config.phase_vector)
    if t < 0:
        raise ValueError("t must be >= 0")
    scalar = np.ndim(omega) == 0
    w_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    if t == 0.0:
        out = np.zeros_like(w_arr)
        return float(out[0]) if scalar else out
    n_paths = config.n_paths
    T1, T2, W, sandwich = _filter_mesh(model, psi0, t)
    acc = np.zeros(w_arr.size, dtype=complex)
    n_ops = len(model.operators)
    for alpha in range(n_ops):
        for beta in range(n_ops):
            fvals = model.kernel(alpha, beta, w_arr[:, None], T1[None, :], T2[None, :])
            acc += fvals @ (W * sandwich[alpha, beta])
    out = (2.0 * n_paths / pair_sum) * acc.real
    return float(out[0]) if scalar else out


def general_decay_factor(model, psi0, t, config, rel_tol=1e-9):
    """Average over paths of int dw J_i(w) F_i(w, t, N, phases).

    ``config`` is the InterferometerConfig of the post-selection.  With
    identical spectral densities this is a single overlap integral.
    """
    if t == 0.0:
        return 0.0
    n_paths = config.n_paths
    js = model.spectral_densities
    if len(js) not in (1, n_paths):
        raise ValueError("spectral_densities must have one entry or one per path")

    # the filter mesh is J-independent; reuse it across paths
    if config.is_null:
        raise NullOutcome("null phase profile: the post-selection weight vanishes")
    pair_sum = phase_pair_sum(config.phase_vector)
    T1, T2, W, sandwich = _filter_mesh(model, psi0, t)
    n_ops = len(model.operators)

    def filter_at(w):
        acc = 0.0 + 0.0j
        for alpha in range(n_ops):
            for beta in range(n_ops):
                fv = model.kernel(alpha, beta, w, T1, T2)
                acc += np.dot(fv, W * sandwich[alpha, beta])
        return (2.0 * n_paths / pair_sum) * acc.real

    total = 0.0
    seen = {}
    for i in range(n_paths if len(js) > 1 else 1):
        j = model.density_for_path(i)
        key = id(j)
        if key not in seen:
            val = integrate_adaptive(
                lambda w: j(w) * filter_at(w), 0.0, j.omega_max,
                rel_tol, 0.0, complex_valued=False,
            )
            seen[key] = float(np.real(val))
        total += seen[key]
    return total / n_paths if len(js) > 1 else total
