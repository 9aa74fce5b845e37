"""Collective decay of a single emitter at an indefinite position.

One two-level emitter is prepared in a uniform superposition of N sites and
coupled to the free field.  Because the *which-site* information is erased at
post-selection, emission from the different sites interferes exactly as in an
N-atom Dicke problem: the conditional excited population decays between the
super- and sub-radiant envelopes e^{-Gamma0 (1 +/- s) t}, where s is the
sinc-like overlap factor of the site geometry.  Choosing the post-selection
phases switches the same stored photon statistics between enhanced and
suppressed emission after the fact.

The closed form is cross-checked against RK4 integration of the full
collective master equation.

Run:  python demos/collective_emission.py
"""

import numpy as np

from zenotraj import (
    CollectiveRateMatrix,
    TimeGrid,
    evolve_collective,
    excited_population_analytic,
    excited_population_numeric,
    superposed_initial_state,
)

N_SITES = 3
S_FACTOR = 1.0 / 6.0   # equal-distance geometry: s = sinc(q d)
GAMMA0 = 1.0


def main():
    print(__doc__)

    grid = TimeGrid(1e-2, 501)   # Gamma0 t in [0, 5]
    rates = CollectiveRateMatrix.from_factor(N_SITES, S_FACTOR, GAMMA0)
    states = evolve_collective(rates, superposed_initial_state(N_SITES), grid)

    configs = ((3, 0), (3, 1))
    numeric = {c: excited_population_numeric(states, *c) for c in configs}
    analytic = {c: excited_population_analytic(grid.times, *c, GAMMA0, S_FACTOR) for c in configs}
    for c in configs:
        worst = float(np.max(np.abs(numeric[c] - analytic[c])))
        print(f"master equation vs closed form, (N, n) = {c}: max |diff| = {worst:.2e}")

    x = grid.times * GAMMA0
    fast = np.exp(-(1.0 + S_FACTOR) * x)
    slow = np.exp(-(1.0 - S_FACTOR) * x)
    independent = np.exp(-x)

    print(f"\nconditional excited population, s = 1/6, N = {N_SITES}:")
    header = f"{'G0*t':>6s} {'P(3,0)':>10s} {'P(3,1)':>10s} {'e^-(1-s)x':>10s} {'e^-x':>10s} {'e^-(1+s)x':>10s}"
    print(header)
    for k in range(0, grid.count, 100):
        print(f"{x[k]:>6.2f} {analytic[(3, 0)][k]:>10.6f} {analytic[(3, 1)][k]:>10.6f} "
              f"{slow[k]:>10.6f} {independent[k]:>10.6f} {fast[k]:>10.6f}")

    print(
        "\n-> equal phases (n = 0) decay slower than independent emission and the\n"
        "   opposite-phase profile (n = 1) decays faster than the superradiant\n"
        "   envelope.  Note the slow-envelope ordering is not global: P(3,0)\n"
        "   crosses e^{-(1-s)x} at Gamma0 t = 4.8044 (visible in the last rows)."
    )


if __name__ == "__main__":
    main()
