"""Choi-matrix oracle for the CP-divisibility verdict of the dissipative model.

The runtime verdict :func:`zenotraj.dissipative.is_cp_divisible` tests the
sign of d|G|²/dt.  This module reaches the same verdict the long way, from
the smallest eigenvalue of the Choi matrix of every intermediate conditional
map on the grid (Rivas, Huelga and Plenio, PRL 105, 050403, 2010), so the
tests can check the two against each other.
"""

import numpy as np

from zenotraj.errors import NumericError


def choi_intermediate_map(g_t, g_t_tau, n_paths, n_shifts):
    """Choi matrix of the intermediate conditional map between t and t+τ.

    With r = G(t+τ)/G(t) and N̄ = N/(N-2n)², the nonzero entries are
    (1,1) = 1, (1,4) = r*, (4,1) = r, (4,4) = |r|², (2,2) = N̄(1-|r|²).
    The map is completely positive iff |r| ≤ 1, i.e. iff |G| did not grow.
    """
    if 2 * n_shifts == n_paths:
        raise ValueError("intermediate map undefined for the null configuration")
    if abs(g_t) < 1e-14:
        raise NumericError("intermediate map undefined where |G(t)| vanishes")
    r = g_t_tau / g_t
    nbar = n_paths / (n_paths - 2 * n_shifts) ** 2
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0
    m[0, 3] = np.conj(r)
    m[3, 0] = r
    m[3, 3] = abs(r) ** 2
    m[1, 1] = nbar * (1.0 - abs(r) ** 2)
    return m


def cp_divisible_choi(g, n_paths=1, n_shifts=0, tol=None):
    """Divisibility via the Choi eigenvalue of every consecutive grid pair.

    The sole possibly-negative Choi eigenvalue is N̄(1-|r|²) ≈ -N̄·Δ|G|²/|G|²,
    so the derivative tolerance of ``is_cp_divisible`` (default
    1e-9·max|G|²) is mapped onto the eigenvalue scale pair by pair.  Returns
    the same tuple as ``is_cp_divisible`` plus the per-pair boolean array.
    """
    g2 = np.abs(g.values) ** 2
    dt = g.grid.dt
    if tol is None:
        tol = 1e-9 * float(np.max(g2))
    nbar = n_paths / (n_paths - 2 * n_shifts) ** 2
    ok = np.empty(g2.size - 1, dtype=bool)
    for k in range(g2.size - 1):
        choi = choi_intermediate_map(g.values[k], g.values[k + 1],
                                     n_paths, n_shifts)
        eig_tol = nbar * tol * dt / g2[k]
        ok[k] = np.linalg.eigvalsh(choi)[0] >= -eig_tol
    bad = np.nonzero(~ok)[0]
    if bad.size == 0:
        return True, None, ok
    k = int(bad[0])
    return False, float(g.grid.times[k] + 0.5 * dt), ok
