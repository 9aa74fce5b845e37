"""General N×N block post-selection, the oracle for the collapsed closed forms.

Projecting the path register onto |χ_φ⟩ ∝ Σ_k e^{iφ_k}|k⟩ maps the per-path
conditional blocks ρ_{Q,i,j} to (1/N²) Σ_{i,j} e^{-i(φ_i-φ_j)} ρ_{Q,i,j}.  For
identical environments the sum collapses to ρ/N + (R - 1/N) β, the form the
model modules use; the tests check one against the other.
"""

from dataclasses import dataclass

import numpy as np

from zenotraj.core import QubitState, phase_weights, r_factor


def _matrix(state):
    return np.asarray(state.matrix if isinstance(state, QubitState) else state, dtype=complex)


@dataclass(frozen=True)
class PathBlockMatrix:
    """N×N array of 2×2 conditional-state blocks ρ_{Q,i,j}(t)."""

    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=complex)
        if blocks.ndim != 4 or blocks.shape[0] != blocks.shape[1] \
                or blocks.shape[2:] != (2, 2):
            raise ValueError("blocks must have shape (N, N, 2, 2)")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def uniform(cls, rho_diagonal, beta, n_paths):
        """Identical environments: ρ on the diagonal, β on every off-diagonal."""
        blocks = np.tile(_matrix(beta), (n_paths, n_paths, 1, 1))
        for i in range(n_paths):
            blocks[i, i] = _matrix(rho_diagonal)
        return cls(blocks)


def postselect_general(blocks, phases):
    """(1/N²) Σ_{i,j} e^{-i(φ_i-φ_j)} ρ_{Q,i,j}: unnormalized conditional state."""
    if isinstance(blocks, PathBlockMatrix):
        blocks = blocks.blocks
    blocks = np.asarray(blocks, dtype=complex)
    n = blocks.shape[0]
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (n,):
        raise ValueError("phase vector length must match the path count")
    w = phase_weights(phases)
    out = np.einsum("i,j,ijab->ab", w, w.conj(), blocks) / n**2
    return QubitState(out)


def superpose_identical(rho_single, beta, n_paths, n_shifts):
    """ρ/N + (R - 1/N) β for identical environments and the binary profile (N, n)."""
    r = r_factor(n_paths, n_shifts)
    out = _matrix(rho_single) / n_paths + (r - 1.0 / n_paths) * _matrix(beta)
    return QubitState(out)
