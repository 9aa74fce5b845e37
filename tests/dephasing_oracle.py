"""Tolerance oracle for the dephasing exponent: the full coth integrand by QUADPACK.

Gamma_T(t) = 4 int_0^{omega_max} J(w) w^{-2} coth(w/2T) (1 - cos wt) dw with
one adaptive integral per time point, breakpoints at the half-periods k*pi/t
and the tolerances rel 1e-11 / abs 1e-13.  This is the route zenotraj took
for every spectral family below omega_max * t = 64 pi before the Ohmic
closed form; it shares no code with ``zenotraj.dephasing``.  The vectorised
Bose integrand below is the oracle of the scalar callback that integrates
the thermal correction to that closed form.
"""

import math

import numpy as np
from scipy.integrate import quad


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
