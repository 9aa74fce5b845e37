"""One workload process: set up, report ready, then run the timed or traced phase.

Started by ``run.py``, which times the set-up from process start until the
``ready`` line.  The worker then reads one line from stdin: ``exit`` ends a
set-up probe, ``go`` runs the phase and prints one JSON result line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
from zenotraj import cli  # noqa: E402

CHILD_TIMEOUT_S = 120
IMPORT_PROBES = 5


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_in_process(argv):
    """config -> emitted text through the public entry points; (text, error)."""
    try:
        config = cli.parse_config(argv)
        return cli.emit(cli.run(config), config.fmt, config.out), None
    except (Exception, SystemExit) as exc:  # a failing table is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def run_child(argv, env):
    """One cold ``python -m zenotraj.cli`` process; (text, error)."""
    try:
        proc = subprocess.run([sys.executable, "-m", "zenotraj.cli", *argv],
                              capture_output=True, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timeout after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return None, f"exit {proc.returncode}: {' '.join(tail)}"
    return proc.stdout.decode("utf-8"), None


def one_pass(configs, runner, probes=None):
    """Run every config once: list of (latency_s, text, error).  With a
    ``probes`` list, run the host probe after each table and append its time."""
    out = []
    for argv in configs:
        start = perf_counter()
        text, error = runner(argv)
        out.append((perf_counter() - start, text, error))
        if probes is not None:
            probes.append(probe.host_probe())
    return out


def check_pass(configs, results, reference):
    """Check a pass's tables; returns (verdicts, failure reasons by table index)."""
    verdicts, failures = [], {}
    for i, (argv, (_, text, error)) in enumerate(zip(configs, results)):
        if error is not None:
            verdicts.append(None)
            failures[i] = error
            continue
        verdict = check.check_table(argv, text, reference)
        verdicts.append(verdict)
        if not verdict.ok:
            failures[i] = "; ".join(verdict.reasons)
    return verdicts, failures


def timed_phase(workload, configs, seconds):
    """Whole passes over ``configs``, as many as fit in ``seconds`` (at least one).

    The pass count is fixed after the first pass, so that a pass taking a
    little less or more than ``seconds`` does not double the work at random.
    In the warm workloads a host probe runs before the first table and after
    every table, and each table's wall time is normalised by the probes
    nearest to it (probe.around); the raw wall-time figures are given in the
    notes.  cli-recipes reports wall time: the probe follows the speed of
    in-process computation, not that of starting a process and importing.
    """
    warm = workload in workloads.WARM
    env = child_env()
    runner = run_in_process if warm else (lambda argv: run_child(argv, env))
    # the first calls warm the probe up
    probes = [probe.host_probe() for _ in range(3)][-1:] if warm else None
    first, latencies, hashes = None, [], []
    passes = 1
    start = perf_counter()
    while len(hashes) < passes:
        results = one_pass(configs, runner, probes)
        latencies += [lat for lat, _, _ in results]
        hashes.append([None if text is None else check.sha256(text) for _, text, _ in results])
        if first is None:
            first = results
            passes = max(1, int(seconds / (perf_counter() - start)))
    elapsed = perf_counter() - start
    who = resource.RUSAGE_SELF if warm else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    _, failures = check_pass(configs, first, check.load_reference())
    failed = 0
    for rep in hashes:
        for i, digest in enumerate(rep):
            if i in failures or digest != hashes[0][i]:
                failed += 1
                failures.setdefault(i, "bytes differ between passes of the same config")
    attempted = len(latencies)
    passed = attempted - failed
    times = [probe.normalise(lat, probe.around(probes, i)) for i, lat in enumerate(latencies)] \
        if warm else latencies
    deciles = statistics.quantiles(times, n=10) if attempted > 1 else times * 9
    metrics = {
        "tables_per_s": (passed / sum(times), "1/s"),
        "table_p50_s": (statistics.median(times), "s"),
        "table_p90_s": (deciles[8], "s"),
        "pass_frac": (passed / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [f"{attempted} tables in {len(hashes)} passes of {len(configs)} configs, "
             f"{elapsed:.2f} s timed"]
    if warm:
        raw_deciles = statistics.quantiles(latencies, n=10) if attempted > 1 else latencies * 9
        notes.append(f"wall time, not normalised: {passed / sum(latencies):.4f} tables/s, "
                     f"p50 {statistics.median(latencies):.4f} s, p90 {raw_deciles[8]:.4f} s; "
                     f"host probe median {statistics.median(probes):.4f} s "
                     f"(reference {probe.REFERENCE_S} s) over {len(probes)} probes")
    return attempted, failed, metrics, notes, failures


def fault_probe(reference):
    """Run the known-fault configs: (silent, refused, lines)."""
    silent = refused = 0
    lines = []
    for argv, cause in workloads.KNOWN_FAULTS:
        with warnings.catch_warnings():
            # non-finite inputs make numpy warn; the checker reports the outcome
            warnings.simplefilter("ignore", RuntimeWarning)
            text, error = run_in_process(argv)
        if error is not None:
            refused += 1
            outcome = f"refused ({error.splitlines()[0][:80]})"
        else:
            verdict = check.check_table(argv, text, reference)
            silent += not verdict.ok
            outcome = "SILENT: " + "; ".join(verdict.reasons)[:80] if not verdict.ok else "fixed"
        lines.append(f"known fault [{cause}] {' '.join(argv)}: {outcome}")
    return silent, refused, lines


def traced_phase(workload, configs, out_dir):
    """Untraced and traced in-process passes over the same configs."""
    import layers

    env = child_env()
    metrics = layers.import_times(env, IMPORT_PROBES)
    untraced = one_pass(configs, run_in_process)
    tracer = layers.Tracer()
    tracer.install()
    traced = []
    try:
        for i, argv in enumerate(configs):
            tracer.table = i
            start = perf_counter()
            text, error = run_in_process(argv)
            traced.append((perf_counter() - start, text, error))
    finally:
        tracer.uninstall()
    untraced_s = sum(lat for lat, _, _ in untraced)
    traced_s = sum(lat for lat, _, _ in traced)

    reference = check.load_reference()
    verdicts, failures = check_pass(configs, traced, reference)
    for i, ((_, text, _), (_, again, _)) in enumerate(zip(traced, untraced)):
        if i not in failures and text != again:
            failures[i] = "bytes differ between the untraced and the traced pass"
    rows = sum(check.parse(text, check.output_format(argv))[2].shape[0]
               for argv, (_, text, _) in zip(configs, traced) if text is not None)
    layer_values, span_counts = layers.layer_metrics(tracer, rows, traced_s)
    metrics.update(layer_values)
    compared = [v for v in verdicts if v is not None and v.identical is not None]
    silent, refused, notes = fault_probe(reference)
    metrics.update({
        "check.reference_tables": len(compared),
        "check.bytes_identical": sum(v.identical for v in compared),
        "check.max_rel_dev": max((v.rel_dev for v in compared), default=0.0),
        "check.probe_silent": silent,
        "check.probe_refused": refused,
        # tables_per_s untraced vs traced over the same pass
        "trace.overhead_frac": 1.0 - untraced_s / traced_s,
    })
    attempted, failed = len(configs), len(failures)
    child_p50 = None
    if workload not in workloads.WARM:
        children = one_pass(configs, lambda argv: run_child(argv, env))
        child_p50 = statistics.median(lat for lat, _, _ in children)
        notes.append(f"child wall time p50 {child_p50:.4f} s over {len(children)} processes")
        _, child_failures = check_pass(configs, children, reference)
        attempted += len(configs)
        failed += len(child_failures)
        for i, reason in child_failures.items():
            failures.setdefault(i, "child process: " + reason)
    broken = layers.check_claims(workload, metrics, span_counts, traced_s, child_p50)
    notes += [f"layer claim broken: {b}" for b in broken] or ["layer claims hold"]
    notes.append(f"traced pass {traced_s:.3f} s, untraced {untraced_s:.3f} s, "
                 f"{len(tracer.spans)} spans, {len(tracer.leaves)} leaf aggregates")
    layers.write_spans(out_dir / f"spans-{workload}.csv", tracer)
    with_units = {name: (value, layers.UNITS[name]) for name, value in metrics.items()}
    return attempted, failed, with_units, notes, failures, not broken


def environment():
    """Versions, CPU and BLAS threads of this process."""
    import ctypes
    import platform

    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas_threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads64_"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    blas_threads = fn()
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": cpu, "blas_threads": blas_threads}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()
    configs = workloads.generate(args.workload, args.seed, args.seconds, trace=args.trace)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    if args.trace:
        attempted, failed, metrics, notes, failures, claims_ok = traced_phase(
            args.workload, configs, args.out_dir)
    else:
        attempted, failed, metrics, notes, failures = timed_phase(
            args.workload, configs, args.seconds)
        claims_ok = True
    for i, reason in sorted(failures.items()):
        notes.append(f"FAILED {' '.join(configs[i])}: {reason}")
    print(json.dumps({"attempted": attempted, "failed": failed, "claims_ok": claims_ok,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                      "notes": notes, "configs": workloads.digest(configs),
                      "env": environment()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
