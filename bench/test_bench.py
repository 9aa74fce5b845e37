"""Self-tests of the benchmark: ``python3 -m pytest -q bench`` from the repo root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import layers  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

RECIPE = ["nonmarkov", "--recipe", "fig4a", "--format", "csv"]


@pytest.fixture(scope="module")
def fig4a():
    text, error = worker.run_in_process(RECIPE)
    assert error is None
    return text


@pytest.fixture(scope="module")
def reference():
    ref = check.load_reference()
    assert check.table_key(RECIPE) in ref
    return ref


def test_recipe_matches_reference(fig4a, reference):
    verdict = check.check_table(RECIPE, fig4a, reference)
    assert verdict.ok and verdict.identical


def _replace_value(text, row, col, new):
    lines = text.splitlines(keepends=True)
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    cells = lines[header + 1 + row].rstrip("\n").split(",")
    cells[col] = new
    lines[header + 1 + row] = ",".join(cells) + "\n"
    return "".join(lines)


def test_checker_fails_injected_nan(fig4a):
    verdict = check.check_table(RECIPE, _replace_value(fig4a, 10, 1, "nan"), {})
    assert not verdict.ok and "non-finite" in verdict.reasons[0]


def test_checker_fails_g_above_one():
    text, error = worker.run_in_process(["dynamics-diss", "--lambda", "0.01", "--omega-q", "1",
                                         "--steps", "50"])
    assert error is None
    assert check.check_table(["dynamics-diss"], text, {}).ok
    bad = _replace_value(text, 5, 1, "1.0000001")
    verdict = check.check_table(["dynamics-diss"], bad, {})
    assert not verdict.ok and "g_abs" in verdict.reasons[0]


def test_checker_fails_flipped_byte(fig4a, reference):
    lines = fig4a.splitlines(keepends=True)
    row = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 3001
    pos = sum(map(len, lines[:row])) + lines[row].index(",") + 3  # a leading digit of d_N1_n0
    flipped = fig4a[:pos] + chr(ord(fig4a[pos]) ^ 1) + fig4a[pos + 1:]
    assert flipped != fig4a
    verdict = check.check_table(RECIPE, flipped, reference)
    assert verdict.identical is False and not verdict.ok


def test_checker_fails_oracle_disagreement():
    argv = ["dicke", "--numeric", "--steps", "500"]
    text, error = worker.run_in_process(argv)
    assert error is None and check.check_table(argv, text, {}).ok
    verdict = check.check_table(argv, _replace_value(text, 100, 2, "0.5"), {})
    assert any("pe_numeric" in r for r in verdict.reasons)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_change_with_it(workload):
    same = workloads.digest(workloads.generate(workload, 7, 20))
    assert same == workloads.digest(workloads.generate(workload, 7, 20))
    assert same != workloads.digest(workloads.generate(workload, 8, 20))


def test_table_time_is_normalised_by_the_probes_nearest_to_it():
    probes = [1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0]
    # table 0 ran between probes 0 and 1: the window is cut at the start
    assert probe.around(probes, 0) == 1.5
    assert probe.around(probes, 5) == 3.0
    assert probe.normalise(2.0, 2.0 * probe.REFERENCE_S) == 1.0


def test_tracer_wraps_every_binding_site_and_restores():
    from zenotraj import cli, filters

    originals = (cli.filter_diss, filters.filter_diss, cli.run)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert cli.filter_diss is not originals[0] and filters.filter_diss is not originals[1]
        text, error = worker.run_in_process(["filter", "--recipe", "fig2"])
    finally:
        tracer.uninstall()
    assert error is None
    assert (cli.filter_diss, filters.filter_diss, cli.run) == originals
    names = {span[1] for span in tracer.spans} | {leaf[0] for leaf in tracer.leaves}
    assert {"cli.parse_config", "cli.run", "cli.emit", "filters.filter",
            "core.spectral_density"} <= names
    run_id = next(span[0] for span in tracer.spans if span[1] == "cli.run")
    # the fan-out threads' filter spans hang under the run span
    assert all(span[4] == run_id for span in tracer.spans if span[1] == "filters.filter")


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "tables_per_s", "table_p50_s", "table_p90_s", "pass_frac", "peak_rss_mb"}


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=175)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run_bench(tmp_path, "--workload", "cli-recipes", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode != 0 and "correct" not in proc.stdout
