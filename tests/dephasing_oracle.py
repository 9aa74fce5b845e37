"""Tolerance oracle for the dephasing exponent: the full coth integrand by QUADPACK.

Gamma_T(t) = 4 int_0^{omega_max} J(w) w^{-2} coth(w/2T) (1 - cos wt) dw with
one adaptive integral per time point, breakpoints at the half-periods k*pi/t
and the tolerances rel 1e-11 / abs 1e-13.  This is the route zenotraj took
for every spectral family below omega_max * t = 64 pi before the Ohmic
closed form; it shares no code with ``zenotraj.dephasing``.  The vectorised
Bose integrand below is the oracle of the scalar callback that integrates
the thermal correction to that closed form.

The last block keeps the Gauss-Legendre branch's integrand as it was written
before it was evaluated in place: J(w) with the masks of
``SpectralDensity.__call__`` and the Ohmic product as one expression, the
coth factor, the integrand body and the panel nodes, each with its own
temporaries.  The in-place code must match it to the byte.
"""

import math

import numpy as np
from scipy.integrate import quad

from zenotraj.core import Ohmic


def oracle_exponent(params, t):
    """Gamma_T(t) of ``DephasingParams`` by one QUADPACK integral of the full integrand."""
    if t == 0.0:
        return 0.0
    j, temperature = params.j, params.temperature

    def h(w):
        if w <= 0.0:
            return 0.0
        wt = w * t
        osc = 0.5 * t * t * (1.0 - wt * wt / 12.0) if wt < 1e-3 else (1.0 - math.cos(wt)) / (w * w)
        coth = 1.0 if temperature == 0.0 else 1.0 + 2.0 / math.expm1(min(w / temperature, 700.0))
        return 4.0 * j(w) * osc * coth

    half_period = math.pi / t
    n_half = int(np.floor(j.omega_max / half_period - 1e-12))
    kwargs = {"points": half_period * np.arange(1, n_half + 1)} if n_half >= 1 else {}
    val, err = quad(h, 0.0, j.omega_max, epsabs=1e-13, epsrel=1e-11,
                    limit=max(200, 4 * (n_half + 2)), **kwargs)
    assert err <= max(1e-13, 1e-11 * abs(val)), (val, err)
    return val


def bose_factor(w, temperature):
    """2/(e^{w/T} - 1) = coth(w/2T) - 1, with w/T capped at 700 below float overflow."""
    return 2.0 / np.expm1(np.minimum(w / temperature, 700.0))


def bose_integrand(j, temperature, t, w):
    """Vectorised Bose part 4 J(w) w^{-2} (1 - cos wt) bose_factor(w, T) at w > 0."""
    w = np.asarray(w, dtype=float)
    wt = w * t
    osc = np.where(wt < 1e-3, 0.5 * t * t * (1.0 - wt * wt / 12.0), (1.0 - np.cos(wt)) / (w * w))
    return 4.0 * j(w) * osc * bose_factor(w, temperature)


def ohmic_shape(j, omega):
    """``Ohmic._shape``: eta w^s w_c^{1-s} e^{-w/w_c} at w > 0, 0 elsewhere."""
    pos = None if omega.size and omega.min() > 0 else omega > 0
    w = omega if pos is None else omega[pos]
    if j._log_space:
        shape = j._log_space_shape(w)
    else:
        shape = (j.eta * w ** j.s * j.omega_c ** (1.0 - j.s)
                 * np.exp(-w / j.omega_c))
    if pos is None:
        return shape
    out = np.zeros_like(omega)
    out[pos] = shape
    return out


def spectral_density(j, omega):
    """``SpectralDensity.__call__``: the shape, 0 outside [0, omega_max].

    The other families' shapes are unchanged, so they come from ``j._shape``.
    """
    omega = np.asarray(omega, dtype=float)
    raw = ohmic_shape(j, omega) if isinstance(j, Ohmic) else j._shape(omega)
    if omega.size and omega.min() >= 0 and omega.max() <= j.omega_max:
        out = raw
    else:
        out = np.where((omega >= 0) & (omega <= j.omega_max), raw, 0.0)
    return out if out.ndim else float(out)


def coth_factor(x):
    """coth(x) = 1 + 2/(e^{2x} - 1) with 2x capped at 700."""
    return 1.0 + 2.0 / np.expm1(np.minimum(2.0 * x, 700.0))


def thermal_integrand(j, t, temperature, w):
    """4 J(w) w^{-2} coth(w/2T) (1 - cos wt), coth -> 1 at T = 0; series near w t = 0."""
    w = np.asarray(w, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    wt = w * t
    if wt.min() >= 1e-3:
        osc = (1.0 - np.cos(wt)) / (w * w)
    else:
        osc = np.where(
            wt < 1e-3,
            0.5 * t * t * (1.0 - wt * wt / 12.0),
            (1.0 - np.cos(wt)) / (w * w),
        )
    th = 1.0 if temperature == 0.0 else coth_factor(
        np.minimum(w, 1400.0 * temperature) / (2.0 * temperature))
    out = 4.0 * spectral_density(j, w) * osc * th
    return out[0] if scalar else out


def gauss_legendre_nodes(edges, x):
    """Order-len(x) Gauss-Legendre nodes of the panels between ``edges``, (panels, order)."""
    lo = edges[:-1]
    half = 0.5 * (edges[1:] - lo)
    mid = lo + half
    return mid[:, None] + half[:, None] * x[None, :]
