"""Output checker: every table the benchmark produces passes through here.

A table fails when it cannot be parsed, holds a non-finite value, breaks a
physical bound, disagrees with an oracle column it carries, or differs from
the reference table recorded for the same configuration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Values may overshoot a physical bound by this much: the contractivity
# slack the package itself allows (DecayAmplitude.validate).
BOUND_SLACK = 1e-9
# pe_numeric (RK4) against pe_analytic: acceptance criterion 05.
PE_TOL = 1e-6
# f_general (second-order engine) against f_closed_form, relative to the
# filter's peak (pointwise relative error is meaningless at the sinc zeros).
FILTER_TOL = 1e-6
# Agreement with a reference table, relative to each column's largest
# magnitude.  Loose enough for a numeric-route change that keeps the stated
# quadrature tolerances (1e-10 and tighter), tight enough to catch a wrong one.
REFERENCE_TOL = 1e-7
SAMPLE_ROWS = 8

_UNIT = (0.0, 1.0)
_NONNEG = (0.0, np.inf)
_BOUNDS = {
    "g_abs": _UNIT, "p_survival": _UNIT, "gamma_decay": _NONNEG,
    "d_pair": _UNIT, "gamma_exponent": _NONNEG, "phi": _UNIT,
    "phi_modified": (-1.0, 1.0), "j": _NONNEG, "f": _NONNEG,
    "f_general": _NONNEG, "f_closed_form": _NONNEG,
}
_PREFIX_BOUNDS = (("pe_", _UNIT), ("d_N", _UNIT), ("exp_gamma", _UNIT), ("f_", _NONNEG))


def table_key(argv):
    return " ".join(argv)


def output_format(argv):
    return "json" if "--format" in argv and argv[argv.index("--format") + 1] == "json" else "csv"


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _meta_value(value):
    """Metadata value as a float where it is numeric, else as its CSV text."""
    if isinstance(value, bool):
        return "true" if value else "false"
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def parse(text, fmt):
    """(metadata, columns, values) of an emitted CSV or JSON table."""
    if fmt == "json":
        payload = json.loads(text)
        meta = payload["metadata"]
        columns = payload["columns"]
        values = np.array(payload["rows"], dtype=float)
    else:
        lines = text.splitlines()
        meta = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
        rows = [ln for ln in lines if not ln.startswith("#")]
        columns = rows[0].split(",")
        values = np.array([[float(x) for x in ln.split(",")] for ln in rows[1:]])
    if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] != len(columns):
        raise ValueError(f"table is not rectangular: shape {values.shape}, "
                         f"{len(columns)} columns")
    return {k: _meta_value(v) for k, v in meta.items()}, list(columns), values


def _bound(name):
    if name in _BOUNDS:
        return _BOUNDS[name]
    for prefix, bound in _PREFIX_BOUNDS:
        if name.startswith(prefix):
            return bound
    return None


def summarize(text, fmt):
    """Reference record of a table: hash plus sampled rows and column sums."""
    meta, columns, values = parse(text, fmt)
    rows = values.shape[0]
    index = sorted(set(np.linspace(0, rows - 1, min(rows, SAMPLE_ROWS)).astype(int).tolist()))
    return {"sha256": sha256(text), "metadata": meta, "columns": columns, "rows": rows,
            "sample_index": index, "sample": values[index].tolist(),
            "colsum": values.sum(axis=0).tolist(),
            "colmax": np.abs(values).max(axis=0).tolist()}


@dataclass
class Verdict:
    """Outcome of checking one table."""

    reasons: list = field(default_factory=list)
    identical: bool | None = None  # None: no reference table for this config
    rel_dev: float = 0.0

    @property
    def ok(self):
        return not self.reasons


def _compare_reference(meta, columns, values, ref, verdict):
    if columns != ref["columns"] or values.shape[0] != ref["rows"]:
        verdict.reasons.append("reference: columns or row count differ")
        verdict.rel_dev = float("inf")
        return
    if meta.keys() != ref["metadata"].keys():
        verdict.reasons.append("reference: metadata keys differ")
    for key, want in ref["metadata"].items():
        got = meta.get(key)
        if isinstance(want, float) and isinstance(got, float):
            if not abs(got - want) <= REFERENCE_TOL * max(abs(want), 1e-300):
                verdict.reasons.append(f"reference: metadata {key}={got!r}, want {want!r}")
        elif got != want:
            verdict.reasons.append(f"reference: metadata {key}={got!r}, want {want!r}")
    scale = np.maximum(np.asarray(ref["colmax"]), 1e-300)
    sample_dev = np.abs(values[ref["sample_index"]] - np.asarray(ref["sample"])) / scale
    sum_dev = np.abs(values.sum(axis=0) - np.asarray(ref["colsum"])) / (scale * ref["rows"])
    verdict.rel_dev = float(max(sample_dev.max(), sum_dev.max()))
    if not verdict.rel_dev <= REFERENCE_TOL:
        verdict.reasons.append(
            f"reference: deviation {verdict.rel_dev:.3g} > {REFERENCE_TOL:g}")


def check_table(argv, text, reference):
    """Check one emitted table; ``reference`` maps table keys to summaries."""
    verdict = Verdict()
    try:
        meta, columns, values = parse(text, output_format(argv))
    except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        verdict.reasons.append(f"unparsable output: {exc}")
        return verdict
    if not np.all(np.isfinite(values)):
        verdict.reasons.append("non-finite value")
        return verdict
    col = dict(zip(columns, values.T))
    for name, series in col.items():
        bound = _bound(name)
        if bound is None:
            continue
        lo, hi = bound
        if series.min() < lo - BOUND_SLACK or series.max() > hi + BOUND_SLACK:
            verdict.reasons.append(
                f"{name} outside [{lo}, {hi}]: range [{series.min():.6g}, {series.max():.6g}]")
    if "pe_numeric" in col:
        dev = float(np.max(np.abs(col["pe_numeric"] - col["pe_analytic"])))
        if dev > PE_TOL:
            verdict.reasons.append(f"pe_numeric off pe_analytic by {dev:.3g} > {PE_TOL:g}")
    if "f_general" in col:
        peak = float(np.max(np.abs(col["f_closed_form"])))
        dev = float(np.max(np.abs(col["f_general"] - col["f_closed_form"])))
        if dev > FILTER_TOL * peak:
            verdict.reasons.append(
                f"f_general off f_closed_form by {dev / peak:.3g} of the peak > {FILTER_TOL:g}")
    ref = reference.get(table_key(argv))
    if ref is not None:
        verdict.identical = sha256(text) == ref["sha256"]
        if not verdict.identical:
            _compare_reference(meta, columns, values, ref, verdict)
    return verdict


def load_reference():
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text())["tables"]
