"""Frequency-integral route of the second-order engine: the tolerance oracle.

The engine reads the bath correlation C(tau) from one Chebyshev table.  This
oracle never forms C: an adaptive ``quad_vec`` over omega contracts every
omega node's phase row e^{-i omega tau} with the whole (t1, t2) mesh, which
is the engine's route before the table.  It shares the engine's mesh and
contraction, so a disagreement isolates the table.
"""

import numpy as np
from scipy.integrate import quad_vec

from zenotraj.errors import QuadratureError
from zenotraj.perturbation import _contract, _filter_mesh, _mesh, _prefactor


def omega_integral(j, c, tau, weighted, rel_tol, abs_tol):
    """int_0^{omega_max} dw J(w) sum_ab c_ab e^{-iw tau} @ weighted[a, b], checked."""
    value, err = quad_vec(lambda w: j(w) * _contract(c, np.array([w]), tau, weighted)[0],
                          0.0, j.omega_max, epsabs=abs_tol, epsrel=rel_tol, limit=400)
    scale = max(np.max(np.abs(value)), abs_tol)
    if err > max(abs_tol, 100.0 * rel_tol * scale):
        raise QuadratureError("oracle frequency integral did not converge",
                              estimate=value, error_bound=err)
    return value


def oracle_block(model, rho0, path_index, t):
    """second_order_block by the frequency integral (rho0 a QubitState, t > 0)."""
    j = model.density_for_path(path_index)
    tau, W, a1, a2 = _mesh(model, t, j.omega_max + model.omega_scale)
    r = rho0.matrix
    n_ops = len(model.operators)
    weighted = np.empty((n_ops, n_ops, tau.size, 4), dtype=complex)
    for a, b in np.ndindex(n_ops, n_ops):
        gain = np.einsum("pij,jk,pkl->pil", a2[b], r, a1[a])
        loss = np.einsum("pij,pjk,kl->pil", a1[a], a2[b], r)
        weighted[a, b] = (W[:, None, None] * (gain - loss)).reshape(-1, 4)
    block = omega_integral(j, model.correlations, tau, weighted, 1e-10, 1e-13).reshape(2, 2)
    return block + block.conj().T


def oracle_decay_factor(model, psi0, t, phases):
    """general_decay_factor by the frequency integral (t > 0)."""
    prefactor = _prefactor(phases)
    tau, weighted = _filter_mesh(model, psi0, t, 0.0)
    js = model.spectral_densities
    overlaps = [prefactor * float(omega_integral(j, model.correlations, tau, weighted,
                                                 1e-9, 1e-200).real) for j in js]
    return sum(overlaps) / len(js)
