"""References for the filter overlap int J(w) f(w) dw, independent of the package's rule.

The package integrates J against the filter, and against the engine's
divided-difference kernel, on one checked Gauss-Legendre panel rule.  These
references share no quadrature with it:

- ``oracle_overlap`` is the QUADPACK route the overlap took before: one
  adaptive integral over [0, omega_max] with the filter's peak as its one
  breakpoint, at relative tolerance 1e-11 and no absolute tolerance.  It
  raises QuadratureError where 200 subintervals do not resolve the sinc^2
  oscillations (Lorentzian(4, 2, 1) at t = 60), and it misses a line of J
  that falls between its nodes (GaussianPeak(1, 1e-8) gives 6e-23 at t = 1
  for a true 4.07e-5);
- ``order20_sum`` is fixed order-20 Gauss-Legendre on given panels, dense
  enough to serve where QUADPACK does not: ``quarter_period_sum`` at long
  times, and many panels across a narrow line.
"""

import numpy as np

from zenotraj.numerics import integrate_adaptive

OVERLAP_REL_TOL = 1e-11


def oracle_overlap(j, f, peak):
    """int_0^{omega_max} J(w) f(w) dw by QUADPACK, checked to ``OVERLAP_REL_TOL``."""
    points = [peak] if 0.0 < peak < j.omega_max else []
    return integrate_adaptive(lambda w: j(w) * f(w), 0.0, j.omega_max, OVERLAP_REL_TOL, 0.0,
                              points=points)


def order20_sum(j, f, edges):
    """int J f dw over [edges[0], edges[-1]] by order-20 Gauss-Legendre on each panel."""
    x, w = np.polynomial.legendre.leggauss(20)
    half = 0.5 * np.diff(edges)
    nodes = (edges[:-1] + half)[:, None] + half[:, None] * x
    return float(np.sum(half * ((j(nodes) * f(nodes)) @ w)))


def quarter_period_sum(j, f, t):
    """int_0^{omega_max} J f dw on panels of pi/(2t), a quarter period of sinc^2(w t/2): the
    long-time reference."""
    return order20_sum(j, f, np.linspace(0.0, j.omega_max,
                                         int(np.ceil(2.0 * j.omega_max * t / np.pi)) + 1))
