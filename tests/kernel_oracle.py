"""Closed form of the memory kernel of a Lorentzian line cut to [0, omega_max].

    f(t) = ∫₀^{ω_max} dω γ₀λ²/(2π[(ω_q − ω)² + λ²]) e^{i(ω_q − ω)t}

splits at the poles ω = ω_q ± iλ into partial fractions; each is an integral
of e^{-ivt}/v along a line, a difference of exponential integrals E1 at
it(u − a) for u = ω − ω_q at the two ends and a = ±iλ.  For t > 0 the line
of a = −iλ crosses E1's branch cut (the negative real axis) where u = 0 lies
inside the cut window, and the principal E1 jumps by 2πi there: that residue
is the full-line pseudomode term.  mpmath evaluates it at 30 digits,
independent of QUADPACK.
"""

import mpmath


def truncated_lorentzian_kernel(gamma0, lam, omega_q, omega_max, t):
    """f(t) of ``Lorentzian(gamma0, lam, omega_q)`` cut at ``omega_max``, as a complex."""
    with mpmath.workdps(30):
        lam, t = mpmath.mpf(lam), mpmath.mpf(t)
        u1, u2 = -mpmath.mpf(omega_q), mpmath.mpf(omega_max) - omega_q
        if t == 0:  # the total weight (γ₀λ/2π)[atan(u2/λ) − atan(u1/λ)]
            return complex(gamma0 * lam / (2 * mpmath.pi)
                           * (mpmath.atan(u2 / lam) - mpmath.atan(u1 / lam)))

        def pole(a, jump):
            # ∫_{u1}^{u2} e^{-iut}/(u − a) du, continued across the cut by ``jump``
            return mpmath.exp(-1j * a * t) * (mpmath.e1(1j * t * (u1 - a))
                                              - mpmath.e1(1j * t * (u2 - a)) + jump)

        # 1/(u² + λ²) = [1/(u − iλ) − 1/(u + iλ)]/(2iλ)
        total = pole(1j * lam, 0) - pole(-1j * lam, -2j * mpmath.pi if u1 < 0 < u2 else 0)
        return complex(gamma0 * lam / (4j * mpmath.pi) * total)
