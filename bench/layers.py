"""Per-layer tracing for the traced run, installed from outside the package.

``Tracer.install`` wraps public functions of the zenotraj modules at every
site that binds them (``cli`` imports ``decay_amplitude_auto`` and
``dephasing_exponent``, ``filters`` imports ``memory_kernel`` and so on), so
a call is seen however the package reaches it.  Each call becomes a span
``(id, name, start, end, parent, table, extra)`` kept in memory; the layer
metrics are computed from the spans when the run ends.  Calls of J(omega),
one per quadrature node (about a million in a pass), are leaves: they are
kept as a count and a total time per parent span instead of one span each.

A span's self time is its duration minus the part of it covered by its
child spans (the union of their intervals: the CLI fans some columns out to
worker threads, whose spans overlap).
"""

from __future__ import annotations

import functools
import itertools
import re
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (home module, attribute, span name, extra(args, kwargs, result) or None)
_FUNCTIONS = (
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "run", "cli.run", None),
    ("cli", "emit", "cli.emit", lambda a, k, r: len(r.encode("utf-8"))),
    ("dissipative", "survival_probability_diss", "core.postselect", None),
    ("dissipative", "trace_distance_diss", "core.postselect", None),
    ("dissipative", "decay_factor", "core.postselect", None),
    ("dephasing", "modified_dephasing", "core.postselect", None),
    ("dicke", "excited_population_analytic", "core.postselect", None),
    ("dicke", "excited_population_numeric", "core.postselect", None),
    ("numerics", "solve_volterra", "numerics.volterra", lambda a, k, r: a[1].count - 1),
    ("numerics", "gauss_legendre_panels", "numerics.gl_panels", None),
    ("numerics", "integrate_matrix_ode", "numerics.rk4", lambda a, k, r: a[2].count - 1),
    ("dissipative", "decay_amplitude_auto", "dissipative.route", lambda a, k, r: r.source),
    ("dissipative", "is_cp_divisible", "dissipative.cp_divisible", None),
    ("dephasing", "dephasing_exponent", "dephasing.exponent",
     lambda a, k, r: a[0].temperature > 0),
    ("filters", "filter_diss", "filters.filter", None),
    ("filters", "filter_deph", "filters.filter", None),
    ("filters", "filter_traditional_zeno", "filters.filter", None),
    ("filters", "decay_factor_overlap", "filters.overlap", None),
    ("dicke", "evolve_collective", "dicke.evolve", None),
    ("perturbation", "general_filter", "perturbation.general_filter", None),
)

# Layer claims checked on the traced run.  "majority": these metrics hold
# more than half of the traced time ("majority_of_p50": of the median child
# wall time); "spans": these spans must occur; "bypass": these metrics stay
# below BYPASS_SHARE of the traced time.
CLAIMS = {
    "diss-sweep": {
        "majority": ("dissipative.kernel_s",),
        "spans": ("cli.run", "core.spectral_density", "core.postselect", "numerics.quad",
                  "numerics.volterra", "dissipative.kernel", "dissipative.cp_divisible",
                  "filters.overlap", "perturbation.general_filter"),
        "bypass": ("dephasing.exponent_s", "numerics.gl_panels_s", "numerics.rk4_s"),
    },
    "deph-sweep": {
        "majority": ("dephasing.exponent_s",),
        "spans": ("cli.run", "core.spectral_density", "core.postselect", "numerics.quad",
                  "numerics.gl_panels", "dephasing.exponent", "dephasing.root"),
        "bypass": ("dissipative.kernel_s", "numerics.volterra_s",
                   "perturbation.general_filter_s", "numerics.rk4_s"),
    },
    "cli-recipes": {
        "majority_of_p50": ("import.scipy_s", "import.numpy_s", "import.zenotraj_s",
                            "import.other_s"),
        "spans": ("cli.parse_config", "cli.run", "cli.emit", "core.postselect",
                  "numerics.rk4", "filters.filter", "dicke.evolve"),
        "bypass": ("dissipative.kernel_s", "dephasing.exponent_s"),
    },
}
BYPASS_SHARE = 0.01

# Every per-layer metric of the traced run, with its unit.
UNITS = {
    "import.scipy_s": "s", "import.numpy_s": "s", "import.zenotraj_s": "s",
    "import.other_s": "s",
    "cli.parse_config_s": "s", "cli.run_s": "s", "cli.emit_s": "s", "cli.emit_bytes": "bytes",
    "core.spectral_density_s": "s", "core.spectral_density_calls": "count",
    "core.postselect_s": "s",
    "numerics.quad_s": "s", "numerics.quad_calls": "count", "numerics.integrand_evals": "count",
    "numerics.evals_per_row": "evals/row", "numerics.volterra_s": "s",
    "numerics.volterra_steps": "count", "numerics.gl_panels_s": "s", "numerics.rk4_s": "s",
    "numerics.rk4_steps": "count", "numerics.plain_share": "ratio",
    "numerics.osc_share": "ratio", "numerics.gl_share": "ratio",
    "dissipative.kernel_s": "s", "dissipative.kernel_samples": "count",
    "dissipative.cp_divisible_s": "s", "dissipative.route_closed_share": "ratio",
    "dephasing.exponent_s": "s", "dephasing.exponent_calls": "count", "dephasing.root_s": "s",
    "dephasing.thermal_share": "ratio",
    "filters.filter_s": "s", "filters.overlap_s": "s",
    "dicke.evolve_s": "s",
    "perturbation.general_filter_s": "s",
    "check.reference_tables": "count", "check.bytes_identical": "count",
    "check.max_rel_dev": "ratio", "check.probe_silent": "count", "check.probe_refused": "count",
    "trace.overhead_frac": "ratio", "trace.unattributed_s": "s",
}


class _QuadModule:
    """Stand-in for ``scipy.integrate`` inside ``numerics`` with a traced ``quad``."""

    def __init__(self, module, quad):
        self._module = module
        self.quad = quad

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self.spans = []
        self.leaves = defaultdict(lambda: [0, 0.0])  # (name, parent, table) -> [count, s]
        self.table = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, extra=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack()
        # a worker thread of the CLI's column fan-out starts with an empty
        # stack; its spans belong to whatever the main thread is running
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        result = note = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if extra is not None:
                note = extra(args, kwargs, result)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.table, note))

    def wrap(self, name, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra)
        return traced

    def wrap_leaf(self, name, fn):
        """Like ``wrap`` for a function that calls nothing traced, aggregated per parent."""
        main_stack = self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack() or main_stack
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc = self.leaves[(name, stack[-1] if stack else None, self.table)]
                acc[0] += 1
                acc[1] += perf_counter() - start
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement, modules=None):
        """Replace ``original`` in every zenotraj module namespace that binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "zenotraj" or mod_name.startswith("zenotraj.")):
                continue
            if modules is not None and mod_name not in modules:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self):
        from zenotraj import cli, core, dissipative, numerics

        pkg = sys.modules
        for home, attr, name, extra in _FUNCTIONS:
            original = getattr(pkg[f"zenotraj.{home}"], attr)
            self._rebind(original, self.wrap(name, original, extra))

        self._set(core.SpectralDensity, "__call__",
                  self.wrap_leaf("core.spectral_density", core.SpectralDensity.__call__))
        # only the root search of the CLI; dicke binds brentq for another job
        self._rebind(cli.brentq, self.wrap("dephasing.root", cli.brentq),
                     modules=("zenotraj.cli",))

        memory_kernel = dissipative.memory_kernel
        kernel_type = dissipative.MemoryKernel

        def traced_memory_kernel(*args, **kwargs):
            mk = memory_kernel(*args, **kwargs)
            return kernel_type(self.wrap("dissipative.kernel", mk.f), mk.provenance)
        self._rebind(memory_kernel, functools.wraps(memory_kernel)(traced_memory_kernel))

        real_quad = numerics.integrate.quad

        def traced_quad(func, a, b, *args, **kwargs):
            evals = [0]

            def counted(x, *xargs):
                evals[0] += 1
                return func(x, *xargs)
            branch = "osc" if kwargs.get("weight") else "plain"
            return self.call("numerics.quad", real_quad, (counted, a, b) + args, kwargs,
                             lambda *_: (branch, evals[0]))
        self._set(numerics, "integrate", _QuadModule(numerics.integrate, traced_quad))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans, leaves):
    """span id -> self time; a leaf runs between its parent's other children."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    leaf_time = defaultdict(float)
    for (_, parent, _), (_, seconds) in leaves.items():
        leaf_time[parent] += seconds
    return {sid: (end - start) - _covered(children.get(sid, ()), start, end) - leaf_time[sid]
            for sid, _, start, end, _, _, _ in spans}


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer, rows, traced_s):
    """Per-layer metrics of one traced pass that emitted ``rows`` rows in ``traced_s``."""
    spans = tracer.spans
    total = defaultdict(float)
    count = defaultdict(int)
    notes = defaultdict(list)
    for _, name, start, end, _, _, note in spans:
        total[name] += end - start
        count[name] += 1
        notes[name].append(note)
    for (name, _, _), (calls, seconds) in tracer.leaves.items():
        total[name] += seconds
        count[name] += calls
    selfs = self_times(spans, tracer.leaves)
    volterra_self = sum(selfs[s[0]] for s in spans if s[1] == "numerics.volterra")
    run_self = sum(selfs[s[0]] for s in spans if s[1] == "cli.run")
    roots = sum(s[3] - s[2] for s in spans if s[4] is None)
    quad_notes = notes["numerics.quad"]
    evals = sum(n for _, n in quad_notes)
    osc = sum(1 for b, _ in quad_notes if b == "osc")
    quadratures = len(quad_notes) + count["numerics.gl_panels"]
    routes = notes["dissipative.route"]
    thermal = notes["dephasing.exponent"]
    return {
        "cli.parse_config_s": total["cli.parse_config"],
        "cli.run_s": total["cli.run"],
        "cli.emit_s": total["cli.emit"],
        "cli.emit_bytes": sum(notes["cli.emit"]),
        "core.spectral_density_s": total["core.spectral_density"],
        "core.spectral_density_calls": count["core.spectral_density"],
        "core.postselect_s": total["core.postselect"],
        "numerics.quad_s": total["numerics.quad"],
        "numerics.quad_calls": len(quad_notes),
        "numerics.integrand_evals": evals,
        "numerics.evals_per_row": _share(evals, rows),
        "numerics.volterra_s": volterra_self,
        "numerics.volterra_steps": sum(notes["numerics.volterra"]),
        "numerics.gl_panels_s": total["numerics.gl_panels"],
        "numerics.rk4_s": total["numerics.rk4"],
        "numerics.rk4_steps": sum(notes["numerics.rk4"]),
        "numerics.plain_share": _share(len(quad_notes) - osc, quadratures),
        "numerics.osc_share": _share(osc, quadratures),
        "numerics.gl_share": _share(count["numerics.gl_panels"], quadratures),
        "dissipative.kernel_s": total["dissipative.kernel"],
        "dissipative.kernel_samples": count["dissipative.kernel"],
        "dissipative.cp_divisible_s": total["dissipative.cp_divisible"],
        "dissipative.route_closed_share": _share(
            sum(1 for r in routes if r == "lorentzian_closed_form"), len(routes)),
        "dephasing.exponent_s": total["dephasing.exponent"],
        "dephasing.exponent_calls": count["dephasing.exponent"],
        "dephasing.root_s": total["dephasing.root"],
        "dephasing.thermal_share": _share(sum(1 for t in thermal if t), len(thermal)),
        "filters.filter_s": total["filters.filter"],
        "filters.overlap_s": total["filters.overlap"],
        "dicke.evolve_s": total["dicke.evolve"],
        "perturbation.general_filter_s": total["perturbation.general_filter"],
        "trace.unattributed_s": max(0.0, traced_s - roots) + run_self,
    }, count


def check_claims(workload, metrics, span_counts, traced_s, child_p50_s=None):
    """List of broken layer claims (empty when the trace covers what it should)."""
    claims = CLAIMS[workload]
    broken = []
    for name in claims["spans"]:
        if not span_counts.get(name):
            broken.append(f"no {name} spans")
    if "majority" in claims:
        held = sum(metrics[m] for m in claims["majority"])
        if not held > 0.5 * traced_s:
            broken.append(f"{'+'.join(claims['majority'])} holds {_share(held, traced_s):.0%} "
                          "of the traced time, not most of it")
    if "majority_of_p50" in claims:
        held = sum(metrics[m] for m in claims["majority_of_p50"])
        if not held > 0.5 * child_p50_s:
            broken.append(f"{'+'.join(claims['majority_of_p50'])} is "
                          f"{_share(held, child_p50_s):.0%} of table_p50_s, not most of it")
    for name in claims["bypass"]:
        if metrics[name] > BYPASS_SHARE * traced_s:
            broken.append(f"{name} is {_share(metrics[name], traced_s):.1%} "
                          f"of the traced time, not about zero")
    return broken


_IMPORT_GROUPS = ("scipy", "numpy", "zenotraj")
_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def import_times(env, repeats):
    """Median self time (s) of the modules a fresh interpreter loads for
    ``import zenotraj.cli``, by package (``-X importtime``): scipy, numpy,
    zenotraj, and every other module together."""
    samples = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import zenotraj.cli"],
                              capture_output=True, text=True, env=env, timeout=120, check=True)
        acc = defaultdict(float)
        for line in proc.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if match:
                top = match.group(3).strip().split(".")[0]
                acc[top if top in _IMPORT_GROUPS else "other"] += int(match.group(1)) * 1e-6
        for group in _IMPORT_GROUPS + ("other",):
            samples[group].append(acc[group])
    return {f"import.{group}_s": statistics.median(v) for group, v in samples.items()}


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ":".join(map(str, value))
    return str(value)


def write_spans(path, tracer):
    """Write spans and aggregated leaves as CSV.

    A span row has ``extra`` (its count or route, if any); a leaf row has no
    id, start or end, and gives its call count and total seconds as extra.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start,end,parent,table,extra\n")
        for sid, name, start, end, parent, table, note in tracer.spans:
            fh.write(f"{sid},{name},{start:.9f},{end:.9f},{_cell(parent)},"
                     f"{_cell(table)},{_cell(note)}\n")
        for (name, parent, table), (calls, seconds) in tracer.leaves.items():
            fh.write(f",{name},,,{_cell(parent)},{_cell(table)},{calls}:{seconds:.9f}\n")
