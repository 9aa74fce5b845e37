"""General second-order engine for arbitrary qubit-bath couplings.

The interaction is supplied in decomposed form: Hermitian qubit operators
A_alpha together with a constant table c_ab of stationary bath correlations,

  C_ab(t1, t2) = c_ab int dw J(w) e^{-iw(t1 - t2)}.

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
from .numerics import panel_nodes, row_blocks

__all__ = [
    "CouplingModel",
    "dissipative_coupling_model",
    "dephasing_coupling_model",
    "second_order_block",
    "general_filter",
    "general_decay_factor",
]

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# phase-matrix bytes per row block of the frequency contraction
_PHASE_BLOCK_BYTES = 4 * 2**20

# tolerances of the frequency integral of the correction block and of the
# decay factor
_BLOCK_REL_TOL = 1e-10
_BLOCK_ABS_TOL = 1e-13
_DECAY_REL_TOL = 1e-9


@dataclass(frozen=True)
class CouplingModel:
    """Free qubit Hamiltonian, coupling operators, stationary correlations.

    ``correlations`` is the constant (n_ops x n_ops) table c_ab of
    C_ab(t1, t2) = c_ab int dw J(w) e^{-iw(t1 - t2)}.  ``spectral_densities``
    holds one entry per path; a single entry means all paths identical.
    """

    h_q: np.ndarray
    operators: tuple
    correlations: np.ndarray
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
        c = np.asarray(self.correlations, dtype=complex)
        if c.shape != (len(ops), len(ops)) or not np.all(np.isfinite(c)):
            raise ValueError("correlations must be a finite (n_ops x n_ops) table")
        if not self.spectral_densities:
            raise ValueError("at least one spectral density is required")
        object.__setattr__(self, "h_q", h)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "correlations", c)
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
    at zero temperature only <B B^+> survives, giving the correlation table
    c_xx = c_yy = 1/4, c_xy = -i/4, c_yx = +i/4.
    """
    table = [[0.25, -0.25j], [0.25j, 0.25]]
    return CouplingModel(0.5 * omega_q * _SZ, (_SX, _SY), table, (j,))


def dephasing_coupling_model(j, omega_q=0.0):
    """Pure-dephasing coupling A = sigma_z with the vacuum correlation c = 1."""
    return CouplingModel(0.5 * omega_q * _SZ, (_SZ,), [[1.0]], (j,))


def _rotated_operators(model, times):
    """Stack of A_alpha(t) for every t in ``times``: shape (n_ops, len, 2, 2)."""
    d, u = np.linalg.eigh(model.h_q)
    phase = np.exp(1j * np.outer(times, d))  # (m, 2)
    e = np.einsum("ij,mj,kj->mik", u, phase, u.conj())
    e_dag = np.conj(np.transpose(e, (0, 2, 1)))
    return np.stack([np.einsum("mij,jk,mkl->mil", e, a, e_dag) for a in model.operators])


def _mesh(model, t, nu):
    """GL product mesh for the ordered double integral 0 <= t2 <= t1 <= t.

    ``nu`` is the fastest phase rate of the integrand; panels are one
    half-period long so fixed order-10 nodes resolve every oscillation.
    Returns flat arrays of the lags tau = t1 - t2 and the weights, and the
    operator stacks A_alpha(t1), A_alpha(t2) of shape (n_ops, P, 2, 2).
    """
    n_pan = max(2, int(np.ceil(nu * t / np.pi)))
    t1, half, w = panel_nodes(np.linspace(0.0, t, n_pan + 1))
    # inner mesh on [0, t1] as the unit mesh scaled by t1
    u, uh, _ = panel_nodes(np.linspace(0.0, 1.0, n_pan + 1))
    t1, u = t1.ravel(), u.ravel()
    w1 = (half[:, None] * w).ravel()
    wu = (uh[:, None] * w).ravel()
    T1 = np.repeat(t1, u.size)
    T2 = np.outer(t1, u).ravel()
    W = np.outer(w1 * t1, wu).ravel()
    return T1 - T2, W, _rotated_operators(model, T1), _rotated_operators(model, T2)


def _contract(c, omega, tau, weighted):
    """sum_ab (c_ab e^{-i omega tau}) @ weighted[a, b], one row per omega.

    The omega rows go through in ``numerics.row_blocks`` of about
    ``_PHASE_BLOCK_BYTES`` of phase matrix each: a block's phase matrix is
    formed once, in place, and one buffer takes its c_ab-scaled copies, so
    memory is O(block x mesh) for any number of frequencies.  The blocks
    have at least two rows, so every row is the same matrix product, to the
    bit, as in one product over all rows.
    """
    out = np.empty(omega.shape + weighted.shape[3:], dtype=complex)
    blocks = row_blocks(omega.size, _PHASE_BLOCK_BYTES // (16 * tau.size))
    buf = np.empty((blocks[0].stop, tau.size), dtype=complex)  # the largest block
    for rows in blocks:
        phase = -1j * omega[rows, None] * tau
        np.exp(phase, out=phase)
        scaled = buf[:len(phase)]
        out[rows] = sum(np.multiply(c_ab, phase, out=scaled) @ weighted[a, b]
                        for (a, b), c_ab in np.ndenumerate(c))
    return out


def _omega_integral(j, c, tau, weighted, rel_tol, abs_tol):
    """int_0^{omega_max} dw J(w) sum_ab c_ab e^{-iw tau} @ weighted[a, b].

    Adaptive Gauss-Kronrod with one subdivision shared by all entries, so
    sharp spectral features are resolved; raises QuadratureError when the
    error bound exceeds the tolerance.
    """
    from scipy.integrate import quad_vec

    value, err = quad_vec(lambda w: j(w) * _contract(c, np.array([w]), tau, weighted)[0],
                          0.0, j.omega_max, epsabs=abs_tol, epsrel=rel_tol, limit=400)
    scale = max(np.max(np.abs(value)), abs_tol)
    if err > max(abs_tol, 100.0 * rel_tol * scale):
        raise QuadratureError(
            "frequency integral of the second-order engine did not converge",
            estimate=value, error_bound=err)
    return value


def second_order_block(model, rho0, path_index, t):
    """Second-order correction of the path-``i`` density matrix at time t.

    sum_{ab} int_0^t dt1 int_0^{t1} dt2 C_{ab}(t1,t2)
        [A_b(t2) rho0 A_a(t1) - A_a(t1) A_b(t2) rho0]  + h.c.

    The double time integral runs on a phase-resolved Gauss-Legendre mesh,
    the frequency integral adaptively.  Off-diagonal path blocks vanish
    under the declared zero-first-moment assumption, so only the diagonal
    block is produced.
    """
    if not isinstance(rho0, QubitState):
        rho0 = QubitState(np.asarray(rho0, dtype=complex))
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return np.zeros((2, 2), dtype=complex)
    j = model.density_for_path(path_index)
    tau, W, a1, a2 = _mesh(model, t, j.omega_max + model.omega_scale)
    r = rho0.matrix
    n_ops = len(model.operators)
    # W [A_b(t2) rho0 A_a(t1) - A_a(t1) A_b(t2) rho0], flattened per mesh node
    weighted = np.empty((n_ops, n_ops, tau.size, 4), dtype=complex)
    for a, b in np.ndindex(n_ops, n_ops):
        gain = np.einsum("pij,jk,pkl->pil", a2[b], r, a1[a])
        loss = np.einsum("pij,pjk,kl->pil", a1[a], a2[b], r)
        weighted[a, b] = (W[:, None, None] * (gain - loss)).reshape(-1, 4)
    block = _omega_integral(j, model.correlations, tau, weighted,
                            _BLOCK_REL_TOL, _BLOCK_ABS_TOL).reshape(2, 2)
    return block + block.conj().T


def _prefactor(config):
    """2N / |sum_k e^{-i phi_k}|^2 of the post-selection on ``config``."""
    if config.is_null:
        raise NullOutcome("null phase profile: the post-selection weight vanishes")
    return 2.0 * config.n_paths / phase_pair_sum(config.phase_vector)


def _filter_mesh(model, psi0, t):
    """Lags and W-weighted sandwiches tr[P_perp A_b(t2) rho0 A_a(t1)] (J-independent)."""
    if not isinstance(psi0, QubitState):
        psi0 = QubitState(np.asarray(psi0, dtype=complex))
    r = psi0.matrix
    if abs(np.trace(r @ r).real - 1.0) > 1e-10:
        raise ValueError("psi0 must be a pure state")
    p_perp = np.eye(2, dtype=complex) - r
    nu = model.omega_scale + max(ji.omega_max for ji in model.spectral_densities)
    tau, W, a1, a2 = _mesh(model, t, nu)
    n_ops = len(model.operators)
    weighted = np.empty((n_ops, n_ops, tau.size), dtype=complex)
    for a, b in np.ndindex(n_ops, n_ops):
        weighted[a, b] = W * np.einsum("ij,pjk,kl,pli->p", p_perp, a2[b], r, a1[a])
    return tau, weighted


def general_filter(model, psi0, omega, t, config):
    """F(w, t, N, phases): the leakage filter of the post-selected dynamics.

    ``config`` is the InterferometerConfig the path register is post-selected
    on.  Returns a real scalar for scalar ``omega`` or an ndarray for an
    ndarray ``omega``.  The frequencies are contracted with the (t1, t2)
    mesh in row blocks, so the number of frequencies does not multiply the
    peak memory; the mesh itself grows as (nu t)^2.
    """
    prefactor = _prefactor(config)
    if t < 0:
        raise ValueError("t must be >= 0")
    scalar = np.ndim(omega) == 0
    w_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    if t == 0.0:
        out = np.zeros_like(w_arr)
    else:
        tau, weighted = _filter_mesh(model, psi0, t)
        out = prefactor * _contract(model.correlations, w_arr, tau, weighted).real
    return float(out[0]) if scalar else out


def general_decay_factor(model, psi0, t, config):
    """Average over paths of int dw J_i(w) F_i(w, t, N, phases).

    ``config`` is the InterferometerConfig of the post-selection.  With
    identical spectral densities this is a single overlap integral.
    """
    if t == 0.0:
        return 0.0
    js = model.spectral_densities
    if len(js) not in (1, config.n_paths):
        raise ValueError("spectral_densities must have one entry or one per path")
    prefactor = _prefactor(config)
    # the filter mesh is J-independent; reuse it across paths.  quad_vec's
    # own absolute floor keeps the tolerance relative while an all-zero J
    # still converges at once
    tau, weighted = _filter_mesh(model, psi0, t)
    overlaps = {}
    for j in js:
        if id(j) not in overlaps:
            value = _omega_integral(j, model.correlations, tau, weighted, _DECAY_REL_TOL, 1e-200)
            overlaps[id(j)] = prefactor * float(value.real)
    return sum(overlaps[id(j)] for j in js) / len(js)
