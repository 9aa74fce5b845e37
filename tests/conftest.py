"""Shared pytest hooks: one PASS/FAIL line per acceptance criterion, and the
fixture that stands in a worker pool of a chosen size."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from zenotraj import numerics

_CRITERIA = {
    "test_criterion_01": "decay-factor 1/N scaling",
    "test_criterion_02": "filter localization contrast (widths)",
    "test_criterion_03": "overlap integral vs exact dynamics",
    "test_criterion_04": "population freezing with growing N",
    "test_criterion_05": "collective-emission cross-oracle",
    "test_criterion_06": "collective decay orderings and spot values",
    "test_criterion_07": "small-sample collapse to independent decay",
    "test_criterion_08": "non-Markovian revivals and divisibility",
    "test_criterion_09": "dephasing sudden death and trapping",
    "test_criterion_10": "general engine identities",
    "test_criterion_11": "post-selected state validity suite",
}


def _criterion_key(nodeid):
    if "test_acceptance.py" not in nodeid:
        return None
    name = nodeid.rsplit("::", 1)[-1]
    for key in _CRITERIA:
        if name.startswith(key):
            return key
    return None


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            key = _criterion_key(getattr(report, "nodeid", ""))
            if key is not None and getattr(report, "when", "call") == "call":
                outcomes[key] = status
    if not outcomes:
        return
    writer = terminalreporter
    writer.write_sep("=", "acceptance criteria")
    for key in sorted(outcomes):
        label = _CRITERIA[key]
        status = outcomes[key]
        verdict = "PASS" if status == "passed" else status.upper().replace("FAILED", "FAIL")
        if status == "failed":
            verdict = "FAIL"
        number = key.split("_")[2]
        writer.write_line(f"criterion {number}  {label:<48s} {verdict}")


@pytest.fixture
def pool_of(monkeypatch):
    """Replace the package's worker pool with one of ``workers`` threads (None: inline)."""
    pools = []

    def install(workers):
        pool = ThreadPoolExecutor(workers) if workers else None
        pools.append(pool)
        monkeypatch.setattr(numerics, "_worker_pool", lambda: pool)

    yield install
    for pool in pools:
        if pool is not None:
            pool.shutdown()
