"""Engineered dephasing: sudden death and trapping of coherence.

Pure dephasing multiplies the qubit coherence by phi(t) = e^{-Gamma(t)}.
After evolving on N superposed paths and post-selecting a binary phase
profile, the *effective* factor becomes

    Phi = (phi + c sqrt(phi)) / (1 + c sqrt(phi)),   c = NR - 1,

which is controlled by the sign of c.  For the single-shift three-path
profile c = -2/3 < 0, and Phi crosses zero in finite time when
sqrt(phi) = -1/c: coherence dies suddenly even though the underlying
dephasing is gradual (Ohmic bath at T = 0).  For a super-Ohmic bath (s = 4)
Gamma(t) saturates, phi traps at a positive plateau, and post-selection with
c > 0 *raises* the trapped coherence.

Run:  python demos/dephasing_sudden_death.py
"""

import numpy as np

from zenotraj import (
    DephasingParams,
    Ohmic,
    TimeGrid,
    dephasing_exponent_series,
    modified_dephasing,
    single_path_factor,
)

ETA = 1.0 / 3.0


def coherence_factors(params, grid, n_paths, n_shifts):
    """phi = e^{-Gamma} and Phi(N, n) on the grid, from one exponent series."""
    phi = single_path_factor(dephasing_exponent_series(params, grid).values)
    return phi, modified_dephasing(phi, n_paths, n_shifts)


def main():
    print(__doc__)

    # -- Ohmic bath (s = 1): sudden death for (N, n) = (3, 1) ----------------
    params = DephasingParams(Ohmic(ETA, s=1.0, omega_c=1.0))
    grid = TimeGrid(0.0, 0.02, 201)   # omega_c t in [0, 4]
    phi, phi_mod = coherence_factors(params, grid, 3, 1)

    sign_change = np.nonzero(phi_mod[:-1] * phi_mod[1:] < 0.0)[0]
    t_death = grid.times[sign_change[0] + 1] if sign_change.size else np.nan
    print("Ohmic bath, eta = 1/3, T = 0, profile (N, n) = (3, 1):")
    print(f"{'w_c t':>6s} {'phi':>10s} {'Phi(3,1)':>10s}")
    for k in range(0, grid.count, 25):
        print(f"{grid.times[k]:>6.2f} {phi[k]:>10.6f} {phi_mod[k]:>10.6f}")
    print(f"-> Phi hits zero near t = {t_death:.2f}; the exact root of "
          "sqrt(phi) = 2/3 is sqrt(19/8) = 1.5411.\n")

    # -- super-Ohmic bath (s = 4): trapping and its enhancement --------------
    params4 = DephasingParams(Ohmic(ETA, s=4.0, omega_c=1.0))
    grid4 = TimeGrid(0.0, 0.2, 1001)   # omega_c t in [0, 200]
    phi4, phi_mod4 = coherence_factors(params4, grid4, 3, 0)

    tail = grid4.times >= 20.0
    phi_plateau = float(phi4[tail].mean())
    mod_plateau = float(phi_mod4[tail].mean())
    print("super-Ohmic bath, s = 4, profile (N, n) = (3, 0):")
    print(f"  bare coherence plateau      phi(inf)  = {phi_plateau:.6f}")
    print(f"  post-selected plateau       Phi(inf)  = {mod_plateau:.6f}")
    print(f"  plateau variation over t in [20, 200]: "
          f"{float(np.ptp(phi4[tail])):.1e} (bare), "
          f"{float(np.ptp(phi_mod4[tail])):.1e} (post-selected)")
    print(
        "\n-> the same interferometer that kills coherence in finite time for\n"
        "   c < 0 lifts the trapped plateau by ~5.6x for the equal-phase\n"
        "   profile: the dephasing exponent is engineered, not just rescaled."
    )


if __name__ == "__main__":
    main()
