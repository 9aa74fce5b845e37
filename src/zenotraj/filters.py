"""Filter functions and overlap-integral decay factors.

To leading order in the coupling, the post-selected decay factor is an
overlap integral gamma(t) = int dw J(w) F(w, t, N, n) between the bath
spectral density and a filter set by the evolution time and the path
superposition.  More paths scale the filter down by N/(N-2n)^2 without
broadening it, unlike the traditional pulsed-measurement filter whose width
grows with the number of interruptions at fixed elapsed time.  The overlap
runs on the second-order engine's checked frequency rule, without scipy.
"""

from __future__ import annotations

import numpy as np

from .core import _binary_pair_sum, _refuse_dark_port
from .dissipative import decay_factor, memory_kernel, survival_probability_diss
from .errors import NumericError
from .numerics import TimeGrid, _frequency_integral, solve_volterra

__all__ = [
    "filter_diss",
    "filter_deph",
    "filter_traditional_zeno",
    "decay_factor_overlap",
    "perturbative_consistency",
    "fwhm",
    "sinc",
]


_CONSISTENCY_STEPS = 200  # Volterra steps of perturbative_consistency's exact dynamics


def sinc(x):
    """sin(x)/x with sinc(0) = 1; series branch below |x| = 1e-4."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    out = np.sin(safe) / safe
    if small.any():  # the series term only where it is used: x * x overflows past 1e154
        x2 = np.where(small, x, 0.0)
        x2 *= x2
        out = np.where(small, 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0), out)
    return float(out) if out.ndim == 0 else out


def _prefactor(n_paths, n_shifts):
    _refuse_dark_port(n_paths, n_shifts)
    return n_paths / _binary_pair_sum(n_paths, n_shifts)


def filter_diss(omega, t, n_paths, n_shifts, omega_q):
    """F_diss = N/(N-2n)^2 * t^2 sinc^2((w - wq) t / 2)."""
    pref = _prefactor(n_paths, n_shifts)
    s = sinc((np.asarray(omega, dtype=float) - omega_q) * t / 2.0)
    # group the N-independent shape first so the prefactor law is bitwise
    out = pref * (t * t * s * s)
    return float(out) if np.ndim(out) == 0 else out


def filter_deph(omega, t, n_paths, n_shifts):
    """F_deph = 1/2 * N/(N-2n)^2 * (1 - cos wt)/w^2, limit N/(N-2n)^2 t^2/4 at w=0.

    Implemented as (N/(N-2n)^2) (t^2/4) sinc^2(wt/2), which is the same
    function with the w -> 0 limit built in.
    """
    pref = _prefactor(n_paths, n_shifts)
    s = sinc(np.asarray(omega, dtype=float) * t / 2.0)
    out = pref * (0.25 * t * t * s * s)
    return float(out) if np.ndim(out) == 0 else out


def _check_pulse_count(n_tilde):
    """ValueError unless the sequential protocol has n_tilde >= 1 pulses (nan included)."""
    if not n_tilde >= 1:
        raise ValueError(f"the traditional filter needs n_tilde >= 1, got n_tilde={n_tilde!r}")


def filter_traditional_zeno(omega, t, n_tilde, omega_q):
    """F_trad = (t^2/Ntilde) sinc^2((w - wq) t / (2 Ntilde)).

    The measurement-interruption filter: more interruptions at fixed t widen
    the sinc by Ntilde while the total spectral weight stays 2 pi t.
    """
    _check_pulse_count(n_tilde)
    s = sinc((np.asarray(omega, dtype=float) - omega_q) * t / (2.0 * n_tilde))
    out = (t * t / n_tilde) * s * s
    return float(out) if np.ndim(out) == 0 else out


def decay_factor_overlap(j, f, peak):
    """gamma(t) = int_0^{omega_max} dw J(w) f(w), a float, for a filter ``f`` of an ndarray of
    w, on numerics' frequency rule.  The filter's centre ``peak`` (omega_q for ``filter_diss``
    and ``filter_traditional_zeno``, 0 for ``filter_deph``) splits the integral where it lies
    inside, so the panels are graded toward it from both sides.  Scaling f by a power of two
    scales the result by exactly that: the 1/N law is bitwise for power-of-two N."""
    ends = [0.0, peak, j.omega_max] if 0.0 < peak < j.omega_max else [0.0, j.omega_max]
    return float(sum(_frequency_integral(lambda w: j(w) * f(w), ends[k:k + 2])
                     for k in range(len(ends) - 1)))


def perturbative_consistency(j, omega_q, t, n_paths, n_shifts, eps):
    """(gamma_exact, gamma_overlap) for the coupling-rescaled density eps^2 J.

    gamma_exact follows the full memory-kernel dynamics; gamma_overlap is the
    filter-overlap value.  Their relative mismatch vanishes as eps^2.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    if eps == 0.0:
        return 0.0, 0.0
    grid = TimeGrid(t / _CONSISTENCY_STEPS, _CONSISTENCY_STEPS + 1)
    # The memory kernel and the overlap are linear in J, so both are formed
    # at full coupling and scaled by eps^2: the quadratures then resolve the
    # same integrands for every eps instead of chasing an eps^2-small target.
    samples = eps * eps * memory_kernel(j, omega_q).samples(grid)
    g_t = solve_volterra(samples, grid)[-1]
    gamma_exact = decay_factor(survival_probability_diss(g_t, n_paths, n_shifts))
    f = lambda w: filter_diss(w, t, n_paths, n_shifts, omega_q)
    return gamma_exact, eps * eps * decay_factor_overlap(j, f, omega_q)


def fwhm(omega, values):
    """Full width at half maximum of a sampled single-peak curve.

    Crossings of the half-maximum level are located by linear interpolation
    on each side of the (unique) maximum.
    """
    omega = np.asarray(omega, dtype=float)
    values = np.asarray(values, dtype=float)
    if omega.ndim != 1 or omega.shape != values.shape or omega.size < 3:
        raise ValueError("fwhm needs matching 1-d arrays with at least 3 samples")
    if np.any(np.diff(omega) <= 0):
        raise ValueError("omega samples must be strictly increasing")
    k = int(np.argmax(values))
    half = 0.5 * values[k]

    def _cross(idx_range):
        for i in idx_range:
            lo, hi = sorted((values[i], values[i + 1]))
            if lo <= half <= hi and values[i] != values[i + 1]:
                frac = (half - values[i]) / (values[i + 1] - values[i])
                return omega[i] + frac * (omega[i + 1] - omega[i])
        return None

    left = _cross(range(k - 1, -1, -1))
    right = _cross(range(k, omega.size - 1))
    if left is None or right is None:
        raise NumericError("no half-maximum crossing inside the sampled window")
    return float(right - left)
