"""zenotraj benchmark: one command, one workload, one JSON result line.

    python3 bench/run.py --workload diss-sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (median of
SETUP_PROBES fresh worker processes, from process start until the worker has
imported zenotraj.cli and generated its inputs), ``tables_per_s``,
``table_p50_s``, ``table_p90_s``, ``pass_frac`` (tables passing the checker
over tables attempted, that is 1 - failed_frac) and ``peak_rss_mb``.  The
table times of the warm workloads are normalised to the host's speed: a fixed
probe that uses no zenotraj code runs between tables, and each table's wall
time is scaled by the probe's reference time over its time then
(bench/probe.py); their raw wall-time figures are printed as notes.
``setup_s`` and the cli-recipes times are wall times.  With ``--trace 1`` it
reports the per-layer metrics of one traced pass instead.
Every table is checked (bench/check.py); the last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Results, with the environment stamp, are also written to
``.bench_out/result-<workload>-trace<n>.json`` and the spans of a traced run
to ``.bench_out/spans-<workload>.csv``.  ``--record-reference`` re-records
bench/reference.json from the default seed's inputs at BENCHMARK.json's
run_seconds (run it only on a commit whose tables are trusted).

``--workload all`` runs the three workloads one after the other and prints
each one's metrics and checker verdict.

Load comes from one process: a warm workload runs its tables one after the
other in the worker; cli-recipes runs one ``python -m zenotraj.cli`` child
at a time from it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Worker:
    """A worker process; ``setup_s`` is the time until it reported ready."""

    def __init__(self, args, workload, out_dir, deadline):
        self.deadline = deadline
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out-dir", str(out_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = perf_counter() - start
        if line.strip() != "ready":
            self.close()
            raise RuntimeError(f"worker did not start (got {line!r})")

    def finish(self, command):
        """Send ``command`` ("go" or "exit"); return the worker's stdout."""
        try:
            out, _ = self.proc.communicate(command + "\n",
                                           timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            self.close()
            raise RuntimeError("worker ran past the time limit") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return out

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def measure(args, workload, out_dir):
    deadline = perf_counter() + WORKER_TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES - 1):
            probe = Worker(args, workload, out_dir, deadline)
            setups.append(probe.setup_s)
            probe.finish("exit")
    worker = Worker(args, workload, out_dir, deadline)
    setups.append(worker.setup_s)
    try:
        result = json.loads(worker.finish("go").strip().splitlines()[-1])
    finally:
        worker.close()
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                             **result["metrics"]}
        result["notes"].insert(0, f"setup_s is the median of {len(setups)} fresh workers: "
                                  + ", ".join(f"{s:.3f}" for s in setups))
    return result


def record_reference():
    """Re-record bench/reference.json from this checkout's tables."""
    import check
    import worker

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    configs = {check.table_key(argv): argv
               for workload in workloads.WORKLOADS
               for argv in workloads.generate(workload, workloads.DEFAULT_SEED, seconds)}
    tables = {}
    for key, argv in sorted(configs.items()):
        text, error = worker.run_in_process(argv)
        if error is not None:
            raise RuntimeError(f"{key}: {error}")
        tables[key] = check.summarize(text, check.output_format(argv))
    lines = [f"  {json.dumps(key)}: {json.dumps(tables[key], sort_keys=True)}" for key in tables]
    check.REFERENCE_PATH.write_text(
        f'{{"commit": "{_git_commit()}", "seed": {workloads.DEFAULT_SEED}, "tables": {{\n'
        + ",\n".join(lines) + "\n}}\n")
    print(f"recorded {len(tables)} reference tables in {check.REFERENCE_PATH}")


def report(args, workload, out_dir):
    """Measure one workload, print its metrics and verdict; returns the result line."""
    result = measure(args, workload, out_dir)
    correct = result["failed"] == 0 and result["claims_ok"]
    env = {**result["env"], "git_commit": _git_commit()}
    for note in result["notes"]:
        print(note)
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{workload} failed_frac = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    print(f"{workload} checker verdict: {'PASS' if correct else 'FAIL'}")
    line = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": result["metrics"]}
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs_sha256": result["configs"], "environment": env,
              "notes": result["notes"], **line}
    (out_dir / f"result-{workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return line


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them one after the other")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zenotraj" / "cli.py").is_file():
        print(f"bench: no zenotraj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        lines = {name: report(args, name, out_dir) for name in names}
    except (RuntimeError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        (line,) = lines.values()
    else:
        line = {"correct": all(x["correct"] for x in lines.values()),
                "attempted": sum(x["attempted"] for x in lines.values()),
                "failed": sum(x["failed"] for x in lines.values()),
                "metrics": {f"{name}.{metric}": value for name, x in lines.items()
                            for metric, value in x["metrics"].items()}}
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
