"""Information backflow and CP-divisibility of the post-selected channel.

For a Lorentzian bath the decay amplitude G(t) is known in closed form.  On
resonance with a *narrow* line (lambda << gamma0) the qubit and its
pseudomode exchange excitation coherently: |G| oscillates, the trace distance
between post-selected states revives, and the intermediate (two-time) map
loses complete positivity exactly where |G|^2 grows.  A *broad* line
(lambda >> gamma0) gives monotone decay: no revivals, CP-divisible at every
step.  Both diagnostics - the distance derivative and the smallest Choi
eigenvalue of the intermediate map - must agree, and this script prints them
side by side.

Run:  python demos/nonmarkovian_revivals.py
"""

import numpy as np

from zenotraj import (
    TimeGrid,
    decay_amplitude_closed_series,
    is_cp_divisible,
    trace_distance_diss,
)

GAMMA0 = 1.0


def report(label, lam, grid):
    g = decay_amplitude_closed_series(GAMMA0, lam, grid)
    print(f"{label}: lambda = {lam} gamma0")
    for n_paths, n_shifts in ((1, 0), (3, 0), (3, 1)):
        d = trace_distance_diss(g.values, n_paths, n_shifts)
        minima = np.nonzero((d[1:-1] < d[:-2]) & (d[1:-1] < d[2:]))[0] + 1
        if minima.size:
            k = int(minima[0])
            revival = float(np.max(d[k:]) - d[k])
            print(f"  (N,n)=({n_paths},{n_shifts}): first distance minimum at "
                  f"t = {grid.times[k]:.2f}, revival height {revival:.4f}")
        else:
            print(f"  (N,n)=({n_paths},{n_shifts}): distance is monotone "
                  f"(max step {np.max(np.diff(d)):+.2e})")
    divisible, t_violation = is_cp_divisible(g)
    if divisible:
        print("  intermediate map: CP at every step (divisible)\n")
    else:
        print(f"  intermediate map: first CP violation at t = {t_violation:.3f}\n")


def main():
    print(__doc__)
    report("narrow line", 0.1, TimeGrid(0.01, 6001))
    report("broad line", 4.0, TimeGrid(0.01, 801))
    print(
        "-> revivals of the pair distance, the growth of |G|^2 and the negative\n"
        "   Choi eigenvalue of the intermediate map all flag the same times:\n"
        "   post-selection reshapes the dynamics but cannot hide the memory of\n"
        "   the bath.  Superposition changes the distance scale, not the\n"
        "   divisibility verdict."
    )


if __name__ == "__main__":
    main()
