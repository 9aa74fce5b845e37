"""Mesh route of the second-order engine's block and decay factor: the tolerance oracle.

The engine splits the coupling operators into Bohr parts and integrates J
against the divided difference of exp on its own panel rule.  This oracle
does neither: it integrates over the (t1, t2) mesh that ``general_filter``
uses, rotating the operators at every node; an adaptive ``quad_vec`` over
omega contracts every omega node's phase row e^{-i omega tau} with the whole
mesh.  So it shares no quadrature with the engine's frequency rule.
"""

import numpy as np
from scipy.integrate import quad_vec

from zenotraj.errors import QuadratureError
from zenotraj.perturbation import _contract, _filter_mesh, _mesh, _prefactor, _rotated_operators


def every_node_operators(model, t1, t2):
    """A_alpha(t1), A_alpha(t2) at every node of ``_mesh``'s (t1, t2), each in one stack."""
    eig = np.linalg.eigh(model.h_q)
    return (_rotated_operators(model, np.repeat(t1, t2.size // t1.size), eig),
            _rotated_operators(model, t2, eig))


def omega_integral(j, c, tau, weighted, rel_tol, abs_tol):
    """int_0^{omega_max} dw J(w) sum_ab c_ab e^{-iw tau} @ weighted[a, b], checked."""
    folded = c.reshape(c.shape + (1,) * (weighted.ndim - 2)) * weighted
    value, err = quad_vec(lambda w: j(w) * _contract(np.array([w]), tau, folded)[0],
                          0.0, j.omega_max, epsabs=abs_tol, epsrel=rel_tol, limit=400)
    scale = max(np.max(np.abs(value)), abs_tol)
    if err > max(abs_tol, 100.0 * rel_tol * scale):
        raise QuadratureError("oracle frequency integral did not converge",
                              estimate=value, error_bound=err)
    return value


def oracle_block(model, rho0, t):
    """second_order_block by the frequency integral (rho0 a QubitState, t > 0)."""
    tau, W, t1, t2 = _mesh(model, t, model.j.omega_max + model.omega_scale)
    a1, a2 = every_node_operators(model, t1, t2)
    r = rho0.matrix
    n_ops = len(model.operators)
    weighted = np.empty((n_ops, n_ops, tau.size, 4), dtype=complex)
    for a, b in np.ndindex(n_ops, n_ops):
        gain = np.einsum("pij,jk,pkl->pil", a2[b], r, a1[a])
        loss = np.einsum("pij,pjk,kl->pil", a1[a], a2[b], r)
        weighted[a, b] = (W[:, None, None] * (gain - loss)).reshape(-1, 4)
    block = omega_integral(model.j, model.correlations, tau, weighted, 1e-10, 1e-13).reshape(2, 2)
    return block + block.conj().T


def oracle_decay_factor(model, psi0, t, phases):
    """general_decay_factor by the frequency integral (t > 0)."""
    prefactor = _prefactor(phases)
    tau, weighted = _filter_mesh(model, psi0, t, 0.0)
    overlap = omega_integral(model.j, model.correlations, tau, weighted, 1e-9, 1e-200)
    return prefactor * float(overlap.real)
