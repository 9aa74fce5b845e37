"""General second-order engine for arbitrary qubit-bath couplings.

The interaction is supplied in decomposed form: Hermitian qubit operators
A_alpha together with a constant table c_ab of stationary bath correlations,

  C_ab(t1, t2) = c_ab C(t1 - t2),   C(tau) = int dw J(w) e^{-iw tau}.

From these the engine produces the second-order correction block of the
per-path density matrix, the general filter F(w, t, N, phases) whose overlap
with J gives the post-selected decay factor, and that decay factor.  In h_q's
eigenbasis each A_a(t) = sum_nu A_{a,nu} e^{i nu t} splits into Bohr parts, so
the block and the decay factor need only the pair weights
I[nu, mu] = t^2 int_0^{omega_max} J(w) e[0, i(nu - w)t, i(nu + mu)t] dw, one
frequency integral of J against the divided difference of exp, with no C(tau),
on the checked frequency rule it shares with the filter overlap; the filter
contracts its frequencies with a (t1, t2) mesh.  Every path couples to one
bath J.  Factories give the two paper models: the energy-exchange coupling
reproduces the sinc^2 filter exactly, the pure-dephasing coupling the
(1 - cos wt)/w^2 shape up to an overall constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SpectralDensity, _require_elapsed, phase_pair_sum
from .errors import NullOutcome, NumericError
from .numerics import _check_size, _frequency_integral, _pool_map, panel_nodes, row_blocks

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
_PHASE_BLOCK_BYTES = 256 * 2**10
# mesh nodes per chunk of rotated operators
_NODE_CHUNK = 1024
# traced bytes per (t1, t2) mesh node of general_filter, the mesh's one user: it takes at
# most 125, and 157 leaves every refusal where it was
_NODE_BYTES = 157
_J_KEYS = ("--t", "--lambda", "--omega-q")  # the options that set t and J's omega_max


@dataclass(frozen=True)
class CouplingModel:
    """Free qubit Hamiltonian, coupling operators, stationary correlations.

    ``correlations`` is the constant (n_ops x n_ops) table c_ab of
    C_ab(t1, t2) = c_ab int dw J(w) e^{-iw(t1 - t2)}, with the one spectral
    density ``j`` that every path couples to.
    """

    h_q: np.ndarray
    operators: tuple
    correlations: np.ndarray
    j: SpectralDensity

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
        if not isinstance(self.j, SpectralDensity):
            raise ValueError("j must be one SpectralDensity, the bath every path couples to")
        object.__setattr__(self, "h_q", h)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "correlations", c)

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
    return CouplingModel(0.5 * omega_q * _SZ, (_SX, _SY), table, j)


def dephasing_coupling_model(j):
    """Pure-dephasing coupling A = sigma_z with the vacuum correlation c = 1.

    sigma_z commutes with the qubit Hamiltonian, so the model takes h_q = 0:
    a splitting would only refine the tau rule and the (t1, t2) mesh.
    """
    return CouplingModel(np.zeros((2, 2)), (_SZ,), [[1.0]], j)


def _rotated_operators(model, times, eig):
    """Stack of A_alpha(t) for every t in ``times``: shape (n_ops, len, 2, 2).

    ``eig`` is ``np.linalg.eigh(model.h_q)``, taken once per mesh.
    """
    d, u = eig
    phase = np.exp(1j * np.outer(times, d))  # (m, 2)
    e = np.einsum("ij,mj,kj->mik", u, phase, u.conj())
    e_dag = np.conj(np.transpose(e, (0, 2, 1)))
    return np.stack([np.einsum("mij,jk,mkl->mil", e, a, e_dag) for a in model.operators])


def _mesh(model, t, nu, keys=_J_KEYS):
    """GL product mesh for the ordered double integral 0 <= t2 <= t1 <= t.

    ``nu`` is the fastest phase rate of the integrand; panels are one
    half-period long so fixed order-10 nodes resolve every oscillation.
    Returns flat arrays of the lags tau = t1 - t2 and the weights, the
    distinct outer times t1 and the inner time t2 of every node; node p
    lies at t1[p // (t2.size // t1.size)].
    ValueError for t < 0; NumericError, before anything is allocated, past
    the size budget, naming the ``keys`` that set t and nu.
    """
    _require_elapsed(t)
    # Python floats, so a count past float range is inf (no warning) and compares
    n_pan = float(max(np.ceil(float(nu) * float(t) / np.pi), 2.0))
    # order-10 nodes per panel on each axis
    _check_size((10.0 * n_pan) * (10.0 * n_pan), _NODE_BYTES, "(t1, t2) mesh nodes", keys)
    n_pan = int(n_pan)
    outer, unit = np.linspace(0.0, t, n_pan + 1), np.linspace(0.0, 1.0, n_pan + 1)
    t1, half, w = panel_nodes(outer[:-1], outer[1:])
    # inner mesh on [0, t1] as the unit mesh scaled by t1
    u, uh, _ = panel_nodes(unit[:-1], unit[1:])
    t1, u = t1.ravel(), u.ravel()
    w1 = (half[:, None] * w).ravel()
    wu = (uh[:, None] * w).ravel()
    T2 = np.outer(t1, u)
    tau = (t1[:, None] - T2).ravel()
    W = np.outer(w1 * t1, wu).ravel()
    return tau, W, t1, T2.ravel()


def _contract(omega, tau, weighted):
    """sum_ab e^{-i omega tau} @ weighted[a, b], one row per omega.

    ``weighted`` holds the sandwiches with c_ab folded in.  The omega rows go
    through in ``numerics.row_blocks`` of about ``_PHASE_BLOCK_BYTES`` of
    phase matrix each, formed in place in the block's own buffer, so memory
    is O(block x mesh x workers) for any number of frequencies; the blocks
    run on the worker pool and write disjoint rows.  The blocks have at
    least two rows, so every row is the same matrix product, to the bit, as
    in one product over all rows.
    """
    out = np.empty(omega.shape + weighted.shape[3:], dtype=complex)
    sandwiches = weighted.reshape((-1,) + weighted.shape[2:])

    def contract_block(rows):
        phase = np.multiply(-1j * omega[rows, None], tau)
        np.exp(phase, out=phase)
        out[rows] = sum(phase @ w_ab for w_ab in sandwiches)

    _pool_map(contract_block, row_blocks(omega.size, _PHASE_BLOCK_BYTES // (16 * tau.size)))
    return out


def _phi1(z):
    """(e^z - 1)/z, taken as 1 + z/2 where |z| < 1e-8, so also at 0 and at subnormal z."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        return np.where(np.abs(z) < 1e-8, 1.0 + 0.5 * z, np.expm1(z) / z)


def _exp_divided_difference(a, b):
    """e[0, a, b] = (phi1(b) - phi1(a))/(b - a) for imaginary a and b broadcast together, the
    integral of e^{au + bv} over the simplex u + v <= 1 (Hermite-Genocchi): direct where
    |b - a| >= 1/2; else e^a (phi1(b - a) - phi1(-a))/b where |a| or |b| >= 1, and 19 terms
    of sum_n h_n(a, b)/(n + 2)!, h_n = sum_k a^k b^(n - k), where both are smaller (McCurdy,
    Ng and Parlett, Math. Comp. 43, 501, 1984)."""
    a, b = np.broadcast_arrays(a, b)
    out = np.empty(a.shape, dtype=complex)
    direct = np.abs(b - a) >= 0.5
    small = ~direct & (np.maximum(np.abs(a), np.abs(b)) < 1.0)
    near = ~(direct | small)
    x, y = a[direct], b[direct]
    out[direct] = (_phi1(y) - _phi1(x)) / (y - x)
    x, y = a[near], b[near]
    out[near] = np.exp(x) * (_phi1(y - x) - _phi1(-x)) / y
    x, y = a[small], b[small]
    h, total = np.ones_like(x), np.full_like(x, 0.5)
    for n in range(1, 19):  # h_n = a h_(n-1) + b^n
        h = x * h + y**n
        total += h / math.factorial(n + 2)
    out[small] = total
    return out


def _bohr_weights(model, t):
    """Bohr parts A_{a,nu} = P_i A_a P_j (h_q = sum_i d_i P_i, nu = d_i - d_j) as an (n_ops,
    n_nu, 2, 2) stack, and their pair weights I[nu, mu] = t^2 int_0^{omega_max} J(w)
    e[0, i(nu - w)t, i(nu + mu)t] dw at time t, on numerics' frequency rule over panels of
    half a period of e^{-iwt}.  ValueError for t < 0."""
    _require_elapsed(t)
    j, (d, u) = model.j, np.linalg.eigh(model.h_q)
    half_periods = j.omega_max * t / math.pi
    if not math.isfinite(half_periods):
        raise NumericError(f"{half_periods} half-periods of the pair weights at t = {t!r}")
    parts = np.einsum("ik,jk,ajl,lm,rm->akmir", u, u.conj(), model.operators, u, u.conj())
    nu = np.subtract.outer(d, d).ravel()

    def kernel(omega):  # (panels, order, nu, mu)
        a, b = 1j * t * (nu[:, None] - omega[..., None, None]), 1j * t * np.add.outer(nu, nu)
        return (t * t) * j(omega)[..., None, None] * _exp_divided_difference(a, b)

    edges = np.linspace(0.0, j.omega_max, max(math.ceil(half_periods), 1) + 1)
    return parts.reshape(len(model.operators), nu.size, 2, 2), _frequency_integral(kernel, edges)


def second_order_block(model, rho0, t):
    """Second-order correction of each path's density matrix at time t, from the QubitState rho0.

    sum_{ab} int_0^t dt1 int_0^{t1} dt2 C_{ab}(t1,t2)
        [A_b(t2) rho0 A_a(t1) - A_a(t1) A_b(t2) rho0]  + h.c.

    which is sum_ab c_ab sum_{nu mu} I[nu, mu] [A_{b,mu} rho0 A_{a,nu} - A_{a,nu} A_{b,mu} rho0]
    + h.c. on ``_bohr_weights``.  Off-diagonal path blocks vanish under the declared
    zero-first-moment assumption, so only the diagonal block is produced.
    """
    parts, weights = _bohr_weights(model, t)
    c, r = model.correlations, rho0.matrix
    block = (np.einsum("ab,pq,bqij,jk,apkl->il", c, weights, parts, r, parts, optimize=True)
             - np.einsum("ab,pq,apij,bqjk->ik", c, weights, parts, parts, optimize=True) @ r)
    return block + block.conj().T


def _prefactor(phases):
    """2N / |sum_k e^{-i phi_k}|^2 of the post-selection on the N ``phases``."""
    pair_sum = phase_pair_sum(phases)
    if pair_sum < 1e-12:
        raise NullOutcome("null phase profile: the post-selection weight vanishes")
    return 2.0 * len(phases) / pair_sum


def _pure_matrix(psi0):
    """rho0 of the pure QubitState ``psi0`` and P_perp = 1 - rho0; ValueError if mixed."""
    r = psi0.matrix
    if abs(np.trace(r @ r).real - 1.0) > 1e-10:
        raise ValueError("psi0 must be a pure state")
    return r, np.eye(2, dtype=complex) - r


def _filter_mesh(model, psi0, t, omega_top):
    """Lags and W-weighted sandwiches tr[P_perp A_b(t2) rho0 A_a(t1)] (J-independent).

    The panels resolve the phase rate omega_scale + max(J's omega_max,
    ``omega_top``), the contraction at |omega| <= ``omega_top`` oscillating at
    |omega|; omega_max keeps the bits of ``general_filter`` and serves the
    tests' decay-factor oracle.  The sandwiches are built on the worker pool in
    chunks of ``_NODE_CHUNK`` nodes; each distinct t1 is rotated once.
    """
    r, p_perp = _pure_matrix(psi0)
    keys = ("--t", "--omega-min", "--omega-max") if omega_top > model.j.omega_max else _J_KEYS
    tau, W, t1, t2 = _mesh(model, t, model.omega_scale + max(model.j.omega_max, omega_top), keys)
    n_ops = len(model.operators)
    weighted = np.empty((n_ops, n_ops, tau.size), dtype=complex)
    eig = np.linalg.eigh(model.h_q)
    a1_all = _rotated_operators(model, t1, eig)

    def sandwich_chunk(nodes):
        a1 = a1_all[:, np.arange(nodes.start, nodes.stop) // (t2.size // t1.size)]
        a2 = _rotated_operators(model, t2[nodes], eig)
        for a, b in np.ndindex(n_ops, n_ops):
            weighted[a, b, nodes] = W[nodes] * np.einsum("ij,pjk,kl,pli->p",
                                                         p_perp, a2[b], r, a1[a])

    _pool_map(sandwich_chunk, [slice(start, min(start + _NODE_CHUNK, t2.size))
                               for start in range(0, t2.size, _NODE_CHUNK)])
    return tau, weighted


def general_filter(model, psi0, omega, t, phases):
    """F(w, t, N, phases): the leakage filter of the post-selected dynamics.

    ``phases`` is the 1-d vector of the N path phases the register is
    post-selected on (``binary_phases(N, n)`` for a binary profile).  Returns
    a real scalar for scalar ``omega`` or an ndarray for an ndarray
    ``omega``.  The frequencies are contracted with the (t1, t2)
    mesh in row blocks, so the number of frequencies does not multiply the
    peak memory; the mesh itself grows as (nu t)^2.
    """
    prefactor = _prefactor(phases)
    scalar = np.ndim(omega) == 0
    w_arr = np.atleast_1d(np.asarray(omega, dtype=float))
    if t == 0.0:
        out = np.zeros_like(w_arr)
    else:
        tau, weighted = _filter_mesh(model, psi0, t, np.max(np.abs(w_arr), initial=0.0))
        weighted *= model.correlations[:, :, None]  # c_ab folded in, no scaled phase copy
        out = prefactor * _contract(w_arr, tau, weighted).real
    return float(out[0]) if scalar else out


def general_decay_factor(model, psi0, t, phases):
    """The overlap int dw J(w) F(w, t, N, phases) of the model's J with the filter.

    ``phases`` is the phase vector of the post-selection, as for ``general_filter``.
    It is the prefactor times Re sum_ab c_ab sum_{nu mu} I[nu, mu]
    tr[P_perp A_{b,mu} rho0 A_{a,nu}] on ``_bohr_weights``.
    """
    prefactor = _prefactor(phases)
    r, p_perp = _pure_matrix(psi0)
    parts, weights = _bohr_weights(model, t)
    return prefactor * float(np.einsum("ab,pq,ij,bqjk,kl,apli->", model.correlations, weights,
                                       p_perp, parts, r, parts, optimize=True).real)
