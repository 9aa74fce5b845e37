"""The accuracy ledger's references: sampled rows of three golden tables against
independent high-precision routes.

    PYTHONPATH=src python tests/reference_oracle.py

rewrites ``tests/reference_values.json`` (about 25 s, mostly the 30-digit
thermal quadratures up to t = 100, so it runs outside the test suite).  For each golden
configuration the file holds at most 8 rows: their times, each column's
reference at 25 significant digits and the absolute error today's table has
there.  ``test_golden.py`` holds every sampled value to its recorded error; a
change that lowers an error re-records the file, and none may raise one.

- ``dynamics-deph --s 1.7 --temperature 0.4``: Gamma_T by 30-digit
  ``mpmath.quad`` of 4 J(w) w^-2 coth(w/2T) 2 sin^2(wt/2) over [0, omega_max],
  split at the half-periods k pi/t.
- ``nonmarkov --model deph --s 4``: Gamma_0 by the closed form of Addis et al.
  (PRA 89, 024101, 2014), 4 eta Gamma(s-1) [1 - Re(1 + i w_c t)^(1-s)], less its
  tail past the cut in upper incomplete gamma functions.
- ``dynamics-diss --tmax 0.8 --steps 16``: G by the Richardson limit
  (16 G_16 - G_4)/15 of the Volterra solve on grids 4 and 16 times finer,
  fed with the E1 kernel of ``kernel_oracle``; ``reference_spread`` is its
  distance from the same limit on grids 2 and 8 times finer.

The other columns follow from Gamma or G by their formulas, in mpmath:
phi = e^-Gamma, Phi = (phi + c sqrt(phi))/(1 + c sqrt(phi)) with
c = (N-1) - (4n/N)(N-n), and p = R|G|^2/(R|G|^2 + (1-|G|^2)/N), -log p and
D = 2K|G|/((K-N)|G|^2 + K + N) with K = (N-2n)^2 and R = K/N^2.
"""

import json
import pathlib
import re

import mpmath
import numpy as np

from zenotraj.cli import parse_config, run
from zenotraj.numerics import TimeGrid, solve_volterra

from kernel_oracle import truncated_lorentzian_kernel

PATH = pathlib.Path(__file__).resolve().parent / "reference_values.json"
DIGITS = 25

# (argv, sampled rows): both sides of the switch to Gauss-Legendre panels
# (omega_max t = 64 pi at t = 4.02) in the second
LEDGER = (
    ("dynamics-deph --s 1.7 --temperature 0.4 --tmax 100 --steps 20", [1, 2, 4, 6, 9, 12, 16, 20]),
    ("nonmarkov --model deph --s 4 --tmax 40 --steps 100", [1, 5, 10, 11, 25, 50, 75, 100]),
    ("dynamics-diss --tmax 0.8 --steps 16", [1, 2, 4, 6, 8, 10, 13, 16]),
)


def ohmic_exponent(j, temperature, t):
    """Gamma_T(t) of the Ohmic ``j`` cut at omega_max, at 30 digits."""
    eta, s, wc, t = (mpmath.mpf(x) for x in (j.eta, j.s, j.omega_c, t))
    if temperature == 0:
        a, u, cut = s - 1, wc * t, mpmath.mpf(j.omega_max) / wc
        z = 1 + 1j * u
        full = mpmath.gamma(a) * (1 - mpmath.re(z**-a))
        tail = mpmath.gammainc(a, cut) - mpmath.re(z**-a * mpmath.gammainc(a, z * cut))
        return 4 * eta * (full - tail)
    temperature = mpmath.mpf(temperature)

    def h(w):
        j_w = eta * w**s * wc ** (1 - s) * mpmath.exp(-w / wc)
        return 8 * j_w * mpmath.coth(w / (2 * temperature)) * mpmath.sin(w * t / 2) ** 2 / w**2

    half_periods = int(mpmath.floor(j.omega_max * t / mpmath.pi))
    points = [k * mpmath.pi / t for k in range(half_periods + 1)] + [mpmath.mpf(j.omega_max)]
    value, error = mpmath.quad(h, points, error=True)
    assert error < 1e-25 * value, (t, value, error)
    return value


def coherence(gamma, n_paths, n_shifts):
    """phi = e^-Gamma and Phi of the (N, n) profile."""
    phi = mpmath.exp(-gamma)
    c = (n_paths - 1) - mpmath.mpf(4 * n_shifts) / n_paths * (n_paths - n_shifts)
    return phi, (phi + c * mpmath.sqrt(phi)) / (1 + c * mpmath.sqrt(phi))


def deph_references(config, times):
    params, p = config.inputs["bath"], config.params
    gammas = [ohmic_exponent(params.j, params.temperature, t) for t in times]
    if config.scenario == "dynamics-deph":
        pairs = [coherence(g, p["N"], p["n"]) for g in gammas]
        return {"gamma_exponent": gammas, "phi": [phi for phi, _ in pairs],
                "phi_modified": [mod for _, mod in pairs], "d_pair": [abs(mod) for _, mod in pairs]}
    return {f"d_N{N}_n{n}": [abs(coherence(g, N, n)[1]) for g in gammas]
            for N, n in [(1, 0), (3, 0), (3, 1)]}


def diss_references(config, rows):
    j, p, grid = config.inputs["lorentzian"], config.params, config.inputs["grid"]
    assert j.omega_q == p["omega_q"], "the E1 oracle puts the line on the qubit"
    fine = TimeGrid(grid.dt / 16, 16 * (grid.count - 1) + 1)
    samples = np.array([truncated_lorentzian_kernel(j.gamma0, j.lam, j.omega_q, j.omega_max, t)
                        for t in fine.times])

    def limit(k):  # Richardson limit on the grids k and 4k times finer, at the table's times
        coarse, finer = (solve_volterra(samples[::16 // m],
                                        TimeGrid(grid.dt / m, m * (grid.count - 1) + 1))
                         for m in (k, 4 * k))
        return ((16 * finer[::4] - coarse) / 15)[::k]

    g = limit(4)
    spread = float(np.max(np.abs(g - limit(2))))
    n_paths, n_shifts = p["N"], p["n"]
    k = (n_paths - 2 * n_shifts) ** 2
    r = mpmath.mpf(k) / n_paths**2
    g_abs = [abs(mpmath.mpc(g[row])) for row in rows]
    p_surv = [r * x**2 / (r * x**2 + (1 - x**2) / n_paths) for x in g_abs]
    return {"g_abs": g_abs, "p_survival": p_surv, "gamma_decay": [-mpmath.log(x) for x in p_surv],
            "d_pair": [2 * k * x / ((k - n_paths) * x**2 + k + n_paths) for x in g_abs]}, spread


def entry(argv, rows):
    config = parse_config(argv.split())
    table = run(config)
    times = [float(table.values[row, 0]) for row in rows]
    record = {"rows": rows, "t": times}
    with mpmath.workdps(30):
        if config.scenario == "dynamics-diss":
            references, record["reference_spread"] = diss_references(config, rows)
        else:
            references = deph_references(config, times)
        record["columns"] = {}
        for name, values in references.items():
            got = table.values[rows, table.columns.index(name)]
            record["columns"][name] = {
                "reference": [mpmath.nstr(v, DIGITS) for v in values],
                "error": [float(abs(mpmath.mpf(x) - v)) for x, v in zip(got, values)]}
    return record


def main():
    ledger = {argv: entry(argv, rows) for argv, rows in LEDGER}
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: f"[{' '.join(m[1].split())}]",
                  json.dumps(ledger, indent=1))  # each list of values on one line
    PATH.write_text(text + "\n", encoding="utf-8")
    for argv, record in ledger.items():
        for name, column in record["columns"].items():
            scale = max(abs(float(v)) for v in column["reference"])
            print(f"{argv}: {name} off by up to {max(column['error']):.2g} "
                  f"({max(column['error']) / scale:.2g} of the column's scale)")


if __name__ == "__main__":
    main()
