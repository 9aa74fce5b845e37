"""Spectral filters of superposed trajectories vs pulsed measurements.

To leading order in the coupling, the post-selected decay factor is the
overlap gamma(t) = integral dw J(w) F(w) between the bath spectral density
and a filter function.  Splitting the evolution over N interferometer paths
scales the filter down by N/(N-2n)^2 without changing its width, whereas the
traditional pulsed-measurement (Zeno) filter keeps its weight and *broadens*
by the number of interruptions.  Suppression by superposition therefore comes
from losing weight at fixed shape -- a qualitatively different mechanism that
this script makes quantitative.

Run:  python demos/filter_narrowing.py
"""

import numpy as np

from zenotraj import (
    FilterSpec,
    GaussianPeak,
    decay_factor_overlap,
    filter_diss,
    filter_traditional_zeno,
    fwhm,
)

T = 5.0          # elapsed evolution time
OMEGA_Q = 1.0    # qubit transition frequency (units of omega_q)


def main():
    print(__doc__)

    # -- widths: superposed filter vs pulsed filter --------------------------
    grid = np.linspace(OMEGA_Q - 1.5, OMEGA_Q + 1.5, 4001)
    wide = np.linspace(OMEGA_Q - 13.0, OMEGA_Q + 13.0, 40001)

    print(f"filter widths at t = {T} (FWHM around omega_q):")
    print(f"{'N':>4s} {'superposed':>14s} {'pulsed (N interruptions)':>26s}")
    for n in (1, 4, 8):
        w_sup = fwhm(grid, filter_diss(grid, T, n, 0, OMEGA_Q))
        w_trad = fwhm(wide, filter_traditional_zeno(wide, T, n, OMEGA_Q))
        print(f"{n:>4d} {w_sup:>14.6f} {w_trad:>26.6f}")
    print("-> the superposed width is N-independent; the pulsed width is ~N x wider.\n")

    # -- weight: overlap decay factor for a detuned Gaussian environment -----
    j = GaussianPeak(1.5, 0.2)
    print("overlap decay factor gamma(N) for a Gaussian bath peaked at w = 1.5:")
    print(f"{'N':>4s} {'gamma(N)':>16s} {'N * gamma(N)':>16s}")
    for n in (1, 2, 4, 8, 16):
        gamma = decay_factor_overlap(j, FilterSpec("diss", 3.0, OMEGA_Q, n, 0))
        print(f"{n:>4d} {gamma:>16.12f} {n * gamma:>16.12f}")
    print("-> N * gamma(N) is constant: exact 1/N suppression at fixed filter shape.")


if __name__ == "__main__":
    main()
