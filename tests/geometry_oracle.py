"""Emitter geometries, the oracle for the uniform collective-factor shortcut.

The CLI and the demos build the collective rate matrix from one factor
s = sinc(q d) (``CollectiveRateMatrix.from_factor``).  Here the matrix is built
from explicit site positions instead, and s from a root search of sinc, so
the tests can check that an equal-distance geometry gives the same matrix.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from zenotraj.dicke import CollectiveRateMatrix
from zenotraj.filters import sinc


@dataclass(frozen=True)
class Geometry:
    """Emitter positions as a pairwise-distance matrix plus wavenumber q."""

    distance_matrix: np.ndarray
    q: float

    def __post_init__(self):
        d = np.asarray(self.distance_matrix, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.allclose(d, d.T, atol=1e-12):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.diag(d) != 0.0):
            raise ValueError("self-distances must be zero")
        if np.any(d < 0):
            raise ValueError("distances must be >= 0")
        if self.q < 0:
            raise ValueError("wavenumber must be >= 0")
        object.__setattr__(self, "distance_matrix", d)

    @property
    def n_sites(self):
        return self.distance_matrix.shape[0]

    @classmethod
    def from_positions(cls, positions, q):
        r = np.asarray(positions, dtype=float)
        if r.ndim != 2 or r.shape[1] != 3:
            raise ValueError("positions must be an (N, 3) array")
        diff = r[:, None, :] - r[None, :, :]
        return cls(np.linalg.norm(diff, axis=-1), float(q))

    @classmethod
    def equal_distance(cls, n_sites, d, q):
        """Segment (N=2), equilateral triangle (N=3), regular tetrahedron (N=4)."""
        if n_sites == 1:
            return cls(np.zeros((1, 1)), float(q))
        if n_sites == 2:
            pos = [[0.0, 0.0, 0.0], [d, 0.0, 0.0]]
        elif n_sites == 3:
            pos = [[0.0, 0.0, 0.0], [d, 0.0, 0.0], [d / 2.0, d * np.sqrt(3.0) / 2.0, 0.0]]
        elif n_sites == 4:
            pos = [
                [0.0, 0.0, 0.0],
                [d, 0.0, 0.0],
                [d / 2.0, d * np.sqrt(3.0) / 2.0, 0.0],
                [d / 2.0, d * np.sqrt(3.0) / 6.0, d * np.sqrt(2.0 / 3.0)],
            ]
        else:
            raise ValueError("equal-distance geometries exist only for N <= 4")
        return cls.from_positions(pos, q)


def rates_from_geometry(geometry, gamma0):
    """CollectiveRateMatrix with M_ij = sinc(q d_ij) for the given positions."""
    m = np.atleast_2d(sinc(geometry.q * geometry.distance_matrix))
    np.fill_diagonal(m, 1.0)
    return CollectiveRateMatrix(m, float(gamma0))


def qd_for_collective_factor(s, bracket=(1e-9, np.pi)):
    """The qd in (0, pi) with sinc(qd) = s, for s in (0, 1)."""
    if not 0.0 < s < 1.0:
        raise ValueError("collective factor must lie in (0, 1)")
    return float(brentq(lambda x: sinc(x) - s, *bracket, xtol=1e-14, rtol=8.9e-16))


def dicke_rates_two_atom(gamma0, qd):
    """Two-atom Dicke rates (Gamma_plus, Gamma_minus) = Gamma0 (1 +- sinc(qd))."""
    if gamma0 <= 0:
        raise ValueError("gamma0 must be > 0")
    s = sinc(qd)
    return gamma0 * (1.0 + s), gamma0 * (1.0 - s)
