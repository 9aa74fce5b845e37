"""Seeded workload generators: each returns the CLI argument lists of one pass.

The program only ever receives these argument lists.  Every workload is
built from strata (one table recipe each); a run holds ``reps`` copies of
every stratum and each copy draws its parameters from its own slice of the
stratum's range (Latin-hypercube style), so that the cost of a pass, and
with it ``tables_per_s``, changes little from one seed to the next while the
parameter values themselves do.

Ranges stay inside the region where zenotraj 0.1.0 succeeds.  The faults
known outside it are run as a separate probe (``KNOWN_FAULTS``) and reported
as counts instead of being mixed into the timed tables.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("diss-sweep", "deph-sweep", "cli-recipes")
WARM = ("diss-sweep", "deph-sweep")
DEFAULT_SEED = 0

# Seconds one rep of a workload's tables takes with zenotraj 0.1.0 on a
# 2-vCPU Intel Xeon VM (deph-sweep: on top of fig4b and fig4c, which run once
# per pass).  reps = ceil(seconds / unit), so one pass fills the run time with
# distinct draws there, and a faster program repeats the pass.
REP_SECONDS = {"diss-sweep": 2.3, "deph-sweep": 2.2, "cli-recipes": 5.5}

# (N, n) pairs: n = N/2 is the dark port and is never drawn.  c = (N-1) -
# 4n(N-n)/N is negative for (3,1), (5,2) and (7,3), where the modified
# coherence factor changes sign (sudden death).
PATHS = ((1, 0), (2, 0), (3, 0), (3, 1), (4, 1), (5, 1), (5, 2), (7, 3))
# Collective decay needs an equal-distance geometry, which exists for N <= 4;
# the cross factor then comes from --qd, so the rate matrix stays physical.
DICKE_PATHS = ((2, 0), (3, 0), (3, 1), (4, 0), (4, 1))

# Configurations that hit faults of zenotraj 0.1.0.  ``cause`` names the
# fault; the probe counts how many still exit 0 with a bad table (silent)
# and how many are refused with an error.
KNOWN_FAULTS = (
    (["dynamics-diss", "--tmax", "1.9568627450980391", "--steps", "2"],
     "memory-kernel quadrature (plain branch) does not converge just below the "
     "oscillatory-weight switch: default line, omega_max*t = 49.9"),
    (["dynamics-diss", "--lambda", "0.7", "--tmax", "0.39166666666666666", "--steps", "1"],
     "memory-kernel quadrature (plain branch) does not converge for lambda/omega_q = 0.7 "
     "at omega_max*t = 14.1"),
    (["dynamics-diss", "--omega-q", "1", "--lambda", "0.1", "--tmax", "10", "--steps", "100"],
     "memory-kernel quadrature does not converge for a narrow line (lambda/omega_q = 0.1)"),
    (["dicke", "--sinc", "0.99", "--numeric", "--steps", "3", "--tmax", "5"],
     "RK4 on a coarse grid is stable but wrong (ROADMAP item 4)"),
    (["dicke", "--sinc", "0.99", "--numeric", "--steps", "3", "--tmax", "50"],
     "RK4 beyond its stability limit emits pe_numeric > 1 (ROADMAP item 4)"),
    (["dicke", "--gamma0", "nan"], "NaN input passes validation (ROADMAP item 4)"),
    (["filter", "--t", "nan"], "NaN input passes validation (ROADMAP item 4)"),
    (["dicke", "--tmax", "inf"], "infinite input passes validation (ROADMAP item 4)"),
)


def _num(x):
    """Shortest repr that round-trips, so configs are exact and stable."""
    return repr(float(x))


def _slices(rng, reps):
    """One uniform draw in each of ``reps`` equal slices of [0, 1), shuffled."""
    u = [(k + rng.random()) / reps for k in range(reps)]
    rng.shuffle(u)
    return u


def _log(u, lo, hi):
    return lo * (hi / lo) ** u


def _lin(u, lo, hi):
    return lo + (hi - lo) * u


class _Draw:
    """Stratified draws: ``u(name, k)`` is rep k's uniform for parameter ``name``;
    over the reps each name takes one value in each of ``reps`` equal slices."""

    def __init__(self, rng, reps):
        self._rng = rng
        self._reps = reps
        self._cols = {}

    def u(self, name, k):
        if name not in self._cols:
            self._cols[name] = _slices(self._rng, self._reps)
        return self._cols[name][k]

    def pick(self, options, k, name):
        return options[int(self.u(name, k) * len(options))]


def _paths(d, k, name="paths"):
    n_paths, n_shifts = d.pick(PATHS, k, name)
    return ["--N", str(n_paths), "--n", str(n_shifts)]


# A pass is built from three cost classes per rep: cheap tables, a middle
# class holding the median (table_p50_s) and a top class of about 30% holding
# the 90th percentile (table_p90_s), each class made of tables of similar
# cost, so that neither percentile sits on the edge between two classes.

def _diss_numeric(d, k, command, work, tag):
    """Volterra-route table with the CLI's default line shape lambda = omega_q.

    Every time point stays on the plain QUADPACK branch (omega_max * t <= 45):
    for other shapes, and just below the oscillatory-weight switch at
    omega_max * t = 50, the memory kernel of zenotraj 0.1.0 does not converge
    (see KNOWN_FAULTS).  Sampling the kernel at phase p = omega_max * t costs
    about (1.6 + 0.32 p) ms there, so steps = work / (10 + p_max) gives every
    table of a class about the same cost, on grids of varied length.
    """
    omega_q = _log(d.u("wq" + tag, k), 0.5, 5.0)
    phase = _lin(d.u("phase" + tag, k), 20.0, 45.0)
    argv = [command] + (["--model", "diss"] if command == "nonmarkov" else []) + [
        "--gamma0", _num(omega_q * _log(d.u("g0" + tag, k), 0.3, 3.0)),
        "--lambda", _num(omega_q), "--omega-q", _num(omega_q),
        "--tmax", _num(phase / (51.0 * omega_q)), "--steps", str(round(work / (10.0 + phase)))]
    return argv + (_paths(d, k, "paths" + tag) if command == "dynamics-diss" else [])


def _perturbation(d, k, panels, tag):
    """General second-order engine with a fixed mesh size.

    Its (t1, t2) mesh has (10 * panels)^2 nodes with panels = ceil(nu t / pi);
    t is placed inside a fixed panel count so the dense (omega x mesh) kernel,
    and with it the peak memory, has the same size for every seed.
    """
    omega_q = _log(d.u("wq" + tag, k), 0.5, 2.0)
    lam = _log(d.u("lam" + tag, k), 0.5, 2.5)
    nu = 2.0 * omega_q + 50.0 * lam
    t = (panels - _lin(d.u("frac" + tag, k), 0.1, 0.9)) * math.pi / nu
    return ["perturbation", "--gamma0", _num(_log(d.u("g0" + tag, k), 1.0, 4.0)),
            "--lambda", _num(lam), "--omega-q", _num(omega_q), "--t", _num(t),
            "--omega-min", _num(omega_q - 3.0), "--omega-max", _num(omega_q + 3.0),
            "--omega-points", "101"] + _paths(d, k, "paths" + tag)


def _diss_rep(d, k):
    out = []
    # cheap: closed-form route (lambda <= 0.02 omega_q) on long grids
    omega_q = _log(d.u("wq", k), 5.0, 50.0)
    g0 = _log(d.u("g0", k), 0.3, 3.0)
    out.append(["dynamics-diss", "--gamma0", _num(g0),
                "--lambda", _num(omega_q * _log(d.u("ratio", k), 0.004, 0.02)),
                "--omega-q", _num(omega_q),
                "--tmax", _num(_lin(d.u("gt", k), 5.0, 40.0) / g0),
                "--steps", str(d.pick((2000, 4000, 6000), k, "steps"))]
               + _paths(d, k))
    omega_q = _log(d.u("wq2", k), 20.0, 80.0)
    out.append(["nonmarkov", "--model", "diss",
                "--gamma0", _num(_log(d.u("g02", k), 0.3, 3.0)),
                "--lambda", _num(omega_q * _log(d.u("ratio2", k), 0.001, 0.02)),
                "--omega-q", _num(omega_q),
                "--tmax", _num(_lin(d.u("t2", k), 20.0, 80.0)), "--steps", "6000",
                "--format", "json" if k % 2 else "csv"])
    # middle: Volterra tables of 20 to 40 steps and a small engine mesh
    out.append(_diss_numeric(d, k, "dynamics-diss", 1100, "a"))
    out.append(_diss_numeric(d, k, "dynamics-diss", 1100, "b"))
    out.append(_diss_numeric(d, k, "nonmarkov", 1100, "c"))
    out.append(_perturbation(d, k, 9, "p1"))
    # top: Volterra tables of 40 to 75 steps (CP-divisibility on the
    # nonmarkov one)
    out.append(_diss_numeric(d, k, "dynamics-diss", 2200, "d"))
    out.append(_diss_numeric(d, k, "dynamics-diss", 2200, "e"))
    out.append(_diss_numeric(d, k, "nonmarkov", 2200, "f"))
    # the default-mesh engine (17 panels, as the CLI's perturbation
    # default) in every third rep: it sets peak_rss_mb and stays above p90
    if k % 3 == 0:
        out.append(_perturbation(d, k, 17, "p2"))
    return out


def _deph(d, k, command, tag, s_range, thermal, steps=None, work=None,
          ct_range=(2.5, 4.0)):
    """Dephasing table.  Below the GL-panel switch (omega_c * t <= 4.02) the
    adaptive rule's cost per point grows about as (omega_c * t)^1.4 in
    zenotraj 0.1.0, so steps = work / (omega_c * tmax)^1.4 gives every table
    of a class about the same cost."""
    omega_c = _log(d.u("wc" + tag, k), 0.5, 2.0)
    ct = _log(d.u("ct" + tag, k), *ct_range)
    temperature = omega_c * _log(d.u("temp" + tag, k), 0.05, 2.0) if thermal else 0.0
    argv = [command] + (["--model", "deph"] if command == "nonmarkov" else []) + [
        "--eta", _num(_log(d.u("eta" + tag, k), 0.1, 0.5)),
        "--s", _num(_log(d.u("s" + tag, k), *s_range)), "--omega-c", _num(omega_c),
        "--temperature", _num(temperature), "--tmax", _num(ct / omega_c),
        "--steps", str(steps or round(work / ct ** 1.4))]
    return argv + (_paths(d, k, "paths" + tag) if command == "dynamics-deph" else [])


def _deph_rep(d, k):
    out = []
    # cheap: omega_c * tmax above the switch, late points on GL panels
    out.append(_deph(d, k, "dynamics-deph", "a", (1.0, 4.0), thermal=k % 2 == 1,
                     steps=20, ct_range=(20.0, 100.0)))
    # middle: T = 0 and T > 0 (Ohmic and super-Ohmic: sub-Ohmic diverges
    # at T > 0), and nonmarkov, where the (3, 1) sudden-death root is
    # searched with brentq whenever Gamma_T reaches ln(9/4) in the window
    out.append(_deph(d, k, "dynamics-deph", "b", (1.0, 4.0), thermal=False, work=50))
    out.append(_deph(d, k, "dynamics-deph", "c", (1.0, 4.0), thermal=True, work=50))
    out.append(_deph(d, k, "nonmarkov", "d", (1.0, 4.0), thermal=k % 2 == 0, work=50))
    # top: sub-Ohmic at T = 0, whose integrand needs more subdivisions
    out.append(_deph(d, k, "dynamics-deph", "e", (0.5, 0.9), thermal=False, work=75))
    return out


def _cli_rep(d, k):
    out = []
    fmt, other = ("json", "csv") if k % 2 else ("csv", "json")
    out.append(["filter", "--recipe", "fig2", "--format", fmt])
    out.append(["dicke", "--recipe", "fig3", "--format", other])
    out.append(["nonmarkov", "--recipe", "fig4a", "--format", fmt])
    kind = d.pick(("diss", "deph", "traditional"), k, "kind")
    spectral = d.pick(("lorentzian", "ohmic", "gaussian"), k, "spectral")
    out.append(["filter", "--kind", kind, "--spectral", spectral,
                "--t", _num(_log(d.u("t", k), 1.0, 20.0)),
                "--omega-q", _num(_log(d.u("wq", k), 0.5, 2.0)),
                "--n-tilde", _num(_lin(d.u("nt", k), 1.0, 8.0)),
                "--omega-points", str(int(_lin(d.u("pts", k), 201, 1201))),
                "--format", other] + _paths(d, k))
    # 100 to 200 RK4 steps per 1/gamma0, the CLI default resolution or finer
    tmax = _lin(d.u("tmax", k), 2.0, 8.0)
    n_paths, n_shifts = d.pick(DICKE_PATHS, k, "paths2")
    out.append(["dicke", "--numeric", "--N", str(n_paths), "--n", str(n_shifts),
                "--qd", _num(_lin(d.u("qd", k), 0.2, 8.0)),
                "--gamma0", _num(_log(d.u("g0", k), 0.2, 5.0)),
                "--tmax", _num(tmax),
                "--steps", str(int(tmax * _lin(d.u("res", k), 100.0, 200.0))),
                "--format", fmt])
    return out


_REPS = {"diss-sweep": _diss_rep, "deph-sweep": _deph_rep, "cli-recipes": _cli_rep}
# deph-sweep also holds the canonical sweeps once per pass, fig4b on a coarser
# grid so that it costs what fig4c does
_FIXED = {"deph-sweep": (["nonmarkov", "--recipe", "fig4b", "--steps", "60"],
                         ["nonmarkov", "--recipe", "fig4c"])}


def reps_for(workload, seconds):
    return max(1, math.ceil(seconds / REP_SECONDS[workload]))


def generate(workload, seed, seconds, trace=False):
    """The argument lists of one pass of ``workload`` for ``seed``.

    A traced run makes an untraced and a traced pass, so its list is the
    first half of the reps of the timed run's list (same draws), plus the
    fixed tables.
    """
    if workload not in _REPS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    reps = reps_for(workload, seconds)
    draw = _Draw(rng, reps)
    configs = [list(argv) for argv in _FIXED.get(workload, ())]
    for k in range(math.ceil(reps / 2) if trace else reps):
        configs += _REPS[workload](draw, k)
    rng.shuffle(configs)
    return configs


def digest(configs):
    """SHA-256 of a config list, for the same-seed / other-seed self-tests."""
    return hashlib.sha256(json.dumps(configs).encode()).hexdigest()
