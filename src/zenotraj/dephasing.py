"""Exact finite-temperature pure-dephasing dynamics under superposed paths.

The qubit-bath coupling commutes with the qubit Hamiltonian, so populations
never move; only the coherence is multiplied by factors built from the
dephasing exponent

    Gamma_T(t) = 4 * int_0^{omega_max} dw J(w) w^{-2} coth(w/(2T)) (1 - cos wt)

(T = 0 replaces coth by 1).  A single path suppresses the coherence by
phi_T = exp(-Gamma_T); a post-selected N-path superposition with n sign
flips turns this into the modified factor

    Phi = (phi_T + c*sqrt(phi_T)) / (1 + c*sqrt(phi_T)),   c = N*R - 1,

which can vanish and change sign (sudden death and revival of the coherence
and of state distinguishability) even though phi_T itself is monotone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .core import (Ohmic, QubitState, _initial_matrix, _refuse_dark_port, _require_elapsed,
                   r_factor)
from .errors import NumericError
from .numerics import Series, _check_size, gauss_legendre_panels, integrate_adaptive

__all__ = [
    "DephasingParams",
    "dephasing_exponent",
    "single_path_factor",
    "modified_dephasing",
    "postselected_state_deph",
    "dephasing_exponent_series",
]

# below this many accumulated phase radians the plain adaptive rule (with
# breakpoints at the half-periods) is still efficient; beyond it we switch
# to fixed Gauss-Legendre panels between consecutive half-periods
_ADAPTIVE_PHASE_LIMIT = 64.0 * np.pi

# points past this phase (about 1,500 Gauss-Legendre panels) go to the worker
# pool; on fewer panels each numpy call is too short to win back the cost of
# handing the GIL between worker threads (on a 2-vCPU Xeon VM, points of 500
# panels ran 10-25 % slower on two workers than inline, points of 2,000-2,800
# panels 15-33 % faster)
_POOL_PHASE_LIMIT = 1500.0 * np.pi

# traced bytes per half-period k*pi/t of a Gauss-Legendre panel point (340 at T = 0,
# 416 at T > 0, at 10^5 and 4*10^5 half-periods); the check is per point, so the
# verdict does not depend on the worker pool's size
_HALF_PERIOD_BYTES = 416


@dataclass(frozen=True)
class DephasingParams:
    """Bath spectral density plus temperature (k_B absorbed into T).

    NumericError at T > 0 for J(0) > 0 or a sub-Ohmic J: the exponent diverges.
    """

    j: object
    temperature: float = 0.0

    def __post_init__(self):
        if not self.temperature >= 0:  # nan included
            raise ValueError(f"temperature must be >= 0, got temperature={self.temperature!r}")
        if self.temperature > 0 and (
                (isinstance(self.j, Ohmic) and self.j.s < 1.0) or self.j(0.0) > 0):
            raise NumericError(
                "finite-temperature dephasing exponent refused: its integrand is "
                "infrared-divergent for J(0) > 0 (so is the exponent) and for a sub-Ohmic J")


def _capped_coth(temperature, w):
    """coth(w/2T) = 1 + 2/(e^{2x} - 1) at x = w/2T, stable for tiny and huge x.

    w is capped at 1400 T before dividing, which keeps a denormal T from
    overflowing w/2T, and 2x at 700, which keeps expm1 below float64
    overflow (2x ≈ 709.78); past either cap coth is exactly 1.0 anyway.
    ``w`` is an ndarray; the steps run in place in one new buffer.
    """
    x = np.minimum(w, 1400.0 * temperature)
    x /= 2.0 * temperature
    x *= 2.0
    np.minimum(x, 700.0, out=x)
    np.expm1(x, out=x)
    np.divide(2.0, x, out=x)
    np.add(1.0, x, out=x)
    return x


def _thermal_integrand(j, t, weight=None):
    """Vectorized 4 J(w) w^{-2} weight(w) (1 - cos wt); series near w=0.

    ``weight`` maps positive frequencies to a thermal factor such as
    coth(w/2T); None stands for 1 (T = 0).  Away from the series the
    product is formed in place in two new buffers (the arguments are never
    written), with the operations of ``4 J osc th`` in their order.
    """

    def h(w):
        w = np.asarray(w, dtype=float)
        scalar = w.ndim == 0
        w = np.atleast_1d(w)
        spectrum = j(w)  # first, so that J's temporary buffer is free again below
        osc = np.multiply(w, t)
        out = np.multiply(w, w)
        # (1 - cos wt)/w^2 with a two-term series where the difference would
        # cancel; the truncation error at the switch point is ~(wt)^4/360
        if osc.min() >= 1e-3:
            np.cos(osc, out=osc)
            np.subtract(1.0, osc, out=osc)
            np.divide(osc, out, out=osc)
        else:
            osc = np.where(
                osc < 1e-3,
                0.5 * t * t * (1.0 - osc * osc / 12.0),
                (1.0 - np.cos(osc)) / out,
            )
        np.multiply(4.0, spectrum, out=out)
        out *= osc
        if weight is not None:
            out *= weight(w)
        return out[0] if scalar else out

    return h


def _bose_integrand(j, temperature, t):
    """Scalar 4 J(w) w^{-2} (2/(e^{w/T} - 1)) (1 - cos wt) of an Ohmic J.

    A plain-float callback for QUADPACK: J is written out from Ohmic's
    formula with its constants and the 4 * 2 folded into
    c = 8 eta w_c^{1-s}, and the Bose factor is capped like
    ``_capped_coth``.
    """
    c = 8.0 * j.eta * j.omega_c ** (1.0 - j.s)
    s, omega_c = j.s, j.omega_c
    cos, exp, expm1 = math.cos, math.exp, math.expm1

    def h(w):
        if w <= 0.0:
            return 0.0
        wt = w * t
        osc = 0.5 * t * t * (1.0 - wt * wt / 12.0) if wt < 1e-3 else (1.0 - cos(wt)) / (w * w)
        return c * w ** s * exp(-w / omega_c) * osc / expm1(min(w / temperature, 700.0))

    return h


def _panel_edges(upper, t):
    """0, the half-periods k*pi/t below ``upper``, and ``upper``.

    NumericError, before anything is allocated, past the size budget, as at t = inf.
    """
    half_period = math.pi / float(t)  # Python floats overflow to inf without a warning
    count = float(upper) / half_period - 1e-12 if half_period else math.inf
    _check_size(count, _HALF_PERIOD_BYTES, f"half-periods at t = {float(t)!r}",
                ("--tmax", "--omega-c"))
    n_half = math.floor(count)
    return np.concatenate(([0.0], half_period * np.arange(1, n_half + 1), [upper]))


def _half_period_quad(h, upper, t, abs_tol):
    """Adaptive quadrature of h over [0, upper] with breakpoints at k*pi/t."""
    return integrate_adaptive(h, 0.0, upper, 1e-11, abs_tol, points=_panel_edges(upper, t)[1:-1])


def _ohmic_zero_temperature(j, t):
    """T = 0 exponent of an Ohmic J, integrated over [0, inf) in closed form.

    Gamma_0 = 4 eta Gamma(s-1) [1 - Re(1 + i w_c t)^{1-s}] (Addis et al.,
    PRA 89, 024101, 2014).  With x = 1 - s, L = log|1 + i w_c t| and
    theta = arg(1 + i w_c t) it is evaluated as

        4 eta Gamma(s) [expm1(x L) cos(x theta) - 2 sin^2(x theta/2)] / x,

    which holds for every s > 0, does not cancel at small w_c t and has no
    pole at s = 1, where it equals 4 eta L.
    """
    x = 1.0 - j.s
    u = j.omega_c * t
    log_mod = 0.5 * math.log1p(u * u)
    prefactor = 4.0 * j.eta
    if x == 0.0:
        return prefactor * log_mod
    x_theta = x * math.atan(u)
    bracket = math.expm1(x * log_mod) * math.cos(x_theta) - 2.0 * math.sin(0.5 * x_theta) ** 2
    return prefactor * math.gamma(j.s) * bracket / x


def _ohmic_tail_bound(j, w, decay):
    """Upper bound on 8 eta w_c^{1-s} int_w^inf v^{s-2} e^{-v/decay} dv.

    With decay = w_c this bounds the T = 0 integral 4 int J v^{-2}(1 - cos vt)
    beyond w.  Returns inf where the incomplete-gamma estimate does not
    apply (w <= (s - 2) decay).
    """
    room = 1.0 - max(j.s - 2.0, 0.0) * decay / w
    if room <= 0.0:
        return math.inf
    return (8.0 * j.eta * j.omega_c ** (1.0 - j.s) * w ** (j.s - 2.0)
            * decay * math.exp(-w / decay) / room)


def _ohmic_split(j, temperature, t):
    """Gamma_T(t) of an Ohmic J as the T = 0 closed form plus a Bose correction.

    coth(w/2T) = 1 + 2/(e^{w/T} - 1): the 1 gives the closed form, and the
    Bose part, unless bounded below tolerance as a whole, is integrated up to
    the first window W = tau * 1.25^k past which its tail bound is below
    tolerance.  Returns None when the closed form's cut at omega_max is not
    below tolerance, or when the parameters overflow float arithmetic.
    """
    try:
        gamma0 = _ohmic_zero_temperature(j, t)
        tol = max(1e-13, 1e-11 * gamma0)
        if not _ohmic_tail_bound(j, j.omega_max, j.omega_c) < tol:
            return None
        # 2/(e^x - 1) <= 2/x and (1 - cos wt)/w^2 <= t^2/2 bound the whole
        # Bose part by 4 eta Gamma(s) w_c t^2 T, which is 0 at T = 0
        bose_bound = 4.0 * j.eta * math.gamma(j.s) * j.omega_c * t * t * temperature
        if not bose_bound >= 0.5 * tol:
            return gamma0
        # past W the Bose factor is at most 2 e^{-w/T} / (1 - e^{-W/T}), so the
        # integrand decays like e^{-w/tau} with tau = (1/T + 1/w_c)^{-1}
        tau = temperature * j.omega_c / (temperature + j.omega_c)
        window = tau
        while window < j.omega_max and not (
                2.0 * _ohmic_tail_bound(j, window, tau) / -math.expm1(-window / temperature)
                < 0.5 * tol):
            window *= 1.25
        upper = min(window, j.omega_max)
        h = _bose_integrand(j, temperature, t)
        h(upper)  # w^s is largest at upper: it overflows there or nowhere
    except OverflowError:
        return None
    return gamma0 + _half_period_quad(h, upper, t, 0.5 * tol)


def dephasing_exponent(params, t):
    """Gamma_T(t) in closed form where the cut allows it, else by quadrature.

    Up to omega_max * t = 64 pi an Ohmic J takes ``_ohmic_split`` when its
    cut at omega_max is below tolerance; every other case integrates the
    full coth integrand, adaptively there and on fixed Gauss-Legendre
    panels beyond, both split at the half-periods.
    """
    _require_elapsed(t)
    if t == 0.0:
        return 0.0
    j, temperature = params.j, params.temperature
    omega_max = j.omega_max
    coth = None if temperature == 0.0 else functools.partial(_capped_coth, temperature)
    h = _thermal_integrand(j, t, coth)
    if float(omega_max) * float(t) <= _ADAPTIVE_PHASE_LIMIT:  # Python floats overflow silently
        split = _ohmic_split(j, temperature, t) if isinstance(j, Ohmic) else None
        return split if split is not None else _half_period_quad(h, omega_max, t, 1e-13)
    return gauss_legendre_panels(h, _panel_edges(omega_max, t))


def single_path_factor(gamma):
    """phi_T = exp(-Gamma_T) in (0, 1]; NumericError where it underflows to 0."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0):
        raise ValueError("dephasing exponent must be >= 0")
    out = np.exp(-gamma)
    if np.any(out == 0.0):
        raise NumericError(
            f"coherence factor exp(-Gamma) underflows to 0 (Gamma up to {np.max(gamma):.6g})")
    return float(out) if out.ndim == 0 else out


def _check_coherence_factor(phi_t):
    """phi_T as a float array; ValueError unless each value lies in (0, 1 + 1e-12]."""
    phi = np.asarray(phi_t, dtype=float)
    bad = ~((phi > 0.0) & (phi <= 1.0 + 1e-12))
    if np.any(bad):
        raise ValueError(f"phi_T must lie in (0, 1], got phi_T={float(phi[bad][0])!r}")
    return phi


def _coherence_offset(n_paths, n_shifts):
    """c = N*R - 1 = (N-1) - (4n/N)(N-n); negative c makes Phi change sign."""
    return (n_paths - 1) - (4.0 * n_shifts / n_paths) * (n_paths - n_shifts)


def modified_dephasing(phi_t, n_paths, n_shifts):
    """Phi = (phi + c sqrt(phi)) / (1 + c sqrt(phi)), c = (N-1) - (4n/N)(N-n).

    Equals the coherence ratio <e|rho(t)|g> / <e|rho(0)|g> of the normalized
    post-selected state.  The denominator is provably positive for n != N/2
    and phi in (0, 1]; a non-positive value signals a non-physical regime.
    """
    _refuse_dark_port(n_paths, n_shifts)
    phi = _check_coherence_factor(phi_t)
    c = _coherence_offset(n_paths, n_shifts)
    root = np.sqrt(phi)
    den = 1.0 + c * root
    if np.any(den <= 0):
        raise NumericError("modified dephasing denominator is not positive")
    out = (phi + c * root) / den
    return float(out) if out.ndim == 0 else out


def postselected_state_deph(rho0, phi_t, n_paths, n_shifts):
    """Unnormalized conditional state: (1/N) rho(t) + (R - 1/N) sqrt(phi) rho(0).

    rho(t) is rho0, a QubitState of unit trace, with its coherence times phi_T
    (populations untouched).  The normalized state keeps rho0's populations exactly.
    """
    m0 = _initial_matrix(rho0)
    _check_coherence_factor(phi_t)
    r = r_factor(n_paths, n_shifts)
    m_t = m0.copy()
    m_t[0, 1] *= phi_t
    m_t[1, 0] *= phi_t
    out = m_t / n_paths + (r - 1.0 / n_paths) * np.sqrt(phi_t) * m0
    return QubitState(out)


def _exponent_series(params, times):
    """[dephasing_exponent(params, t) for t in times], long panel points on the pool.

    Points past ``_POOL_PHASE_LIMIT`` spend their time in numpy ufuncs on
    long arrays, which release the GIL, so they overlap across worker
    threads; every other point runs inline meanwhile (the closed-form and
    QUADPACK points hold the GIL in their Python callbacks).  ``times``
    increases, so the pooled points are its tail.  Every point makes the
    same call as the serial loop, so the values are identical, and the
    exception raised is that of the earliest failing t.
    """
    with np.errstate(over="ignore"):  # a product past float range is inf, and compares so
        pooled = params.j.omega_max * times > _POOL_PHASE_LIMIT
    pool = numerics._worker_pool() if pooled.any() else None
    if pool is None:
        return [dephasing_exponent(params, t) for t in times]
    futures = [pool.submit(dephasing_exponent, params, t) for t in times[pooled]]
    try:
        gamma = [dephasing_exponent(params, t) for t in times[~pooled]]
        return gamma + [future.result() for future in futures]
    finally:
        for future in futures:
            future.cancel()


def dephasing_exponent_series(params, grid):
    """Gamma_T on a time grid as a Series checked on [0, inf); it is (N, n)-free.

    The time points on about 1,500 or more Gauss-Legendre panels
    (omega_max * t > 1500 pi) run on the package's one worker pool
    (``numerics._worker_pool``: one thread per core of the CPU affinity
    mask; there is no option for it, and on one core they run inline), and
    the series is identical to the byte to evaluating every point in turn.
    """
    gamma = np.array(_exponent_series(params, grid.times))
    return Series(grid, gamma, "dephasing_exponent").check(0.0, np.inf)
