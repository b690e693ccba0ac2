"""Trend + regression analytics over the benchmark history file.

``benchmarks/output/BENCH_results.json`` accumulates one record per
(suite, metric) per benchmark run (see ``benchmarks/conftest.py``).
This module closes the loop over that history: for every metric it
compares the latest value against the *rolling median* of the runs
before it, classifies the metric's good direction from its name and
units, and flags movements beyond a tolerance band — ``repro obs
bench`` renders the table and (optionally) gates CI on expressions
like ``watch_overhead_x<=1.05``.

The rolling median, not the previous run, is the baseline: benchmark
timings are noisy, and a single fast run must not turn every
subsequent normal run into a "regression".
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional, Tuple

from .diff import classify

__all__ = ["TrendRow", "load_history", "bench_trend", "render_bench_trend",
           "parse_gate", "check_gates"]

#: Units whose magnitude is a cost (smaller is better).
_COST_UNITS = ("s", "ms", "us", "w", "j", "cycles")
#: Units whose magnitude is a capacity (bigger is better).
_GAIN_UNITS = ("inf/s", "req/s", "tok/s", "gops", "points")


@dataclass(frozen=True)
class TrendRow:
    """One (suite, metric) trend: latest value vs rolling median."""

    suite: str
    metric: str
    units: str
    #: History points (including the latest).
    n: int
    latest: float
    #: Rolling median of up to ``window`` runs before the latest
    #: (None when the metric has no history yet).
    median: Optional[float]
    #: (latest - median) / |median| (None without a usable baseline).
    rel_change: Optional[float]
    #: "min" / "max" / None — good direction.
    direction: Optional[str]
    #: "regression", "improvement", "new", or "" (steady).
    flag: str

    def as_dict(self) -> dict:
        return {"suite": self.suite, "metric": self.metric,
                "units": self.units, "n": self.n, "latest": self.latest,
                "median": self.median, "rel_change": self.rel_change,
                "direction": self.direction, "flag": self.flag}


def load_history(path) -> List[dict]:
    """Parse the BENCH results file (a JSON array of records)."""
    with open(path) as fh:
        history = json.load(fh)
    if not isinstance(history, list):
        raise ValueError(
            f"{path}: expected a JSON array of perf records, got "
            f"{type(history).__name__}")
    return history


def _direction(metric: str, units: str) -> Optional[str]:
    """Good direction by metric name first, units second."""
    by_name = classify(metric)
    if by_name is not None:
        return by_name
    low = units.lower()
    if low in _COST_UNITS:
        return "min"
    if low in _GAIN_UNITS:
        return "max"
    return None


def bench_trend(history: List[dict], window: int = 8,
                rtol: float = 0.10) -> List[TrendRow]:
    """One :class:`TrendRow` per (suite, metric), history order.

    ``window`` bounds the rolling-median baseline (the most recent
    runs before the latest); ``rtol`` is the steady band — a latest
    value within ``rtol`` of the median is neither flagged nor
    celebrated.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not 0 <= rtol < float("inf"):  # NaN fails the comparison too
        raise ValueError(f"rtol must be finite and >= 0, got {rtol}")
    groups: Dict[Tuple[str, str], List[dict]] = {}
    for record in history:
        try:
            key = (str(record["suite"]), str(record["metric"]))
            float(record["value"])
        except (TypeError, KeyError, ValueError):
            continue  # foreign record shape: skip, don't crash the tool
        groups.setdefault(key, []).append(record)
    rows: List[TrendRow] = []
    for (suite, metric), records in groups.items():
        values = [float(r["value"]) for r in records]
        units = str(records[-1].get("units", ""))
        latest = values[-1]
        baseline = values[:-1][-window:]
        direction = _direction(metric, units)
        if not baseline:
            rows.append(TrendRow(suite, metric, units, len(values),
                                 latest, None, None, direction, "new"))
            continue
        med = median(baseline)
        rel = (latest - med) / abs(med) if med != 0 else None
        flag = ""
        if direction is not None and rel is not None and abs(rel) > rtol:
            worse = (rel > 0) == (direction == "min")
            flag = "regression" if worse else "improvement"
        rows.append(TrendRow(suite, metric, units, len(values), latest,
                             med, rel, direction, flag))
    return rows


def render_bench_trend(rows: List[TrendRow],
                       title: str = "BENCH trend") -> str:
    """The trend table (``obs bench`` text output)."""
    from ..analysis.tables import render_table

    def fmt(value: Optional[float]) -> str:
        return f"{value:.4g}" if value is not None else "-"

    table = render_table(
        ("suite", "metric", "units", "n", "median", "latest", "delta",
         "flag"),
        [(r.suite, r.metric, r.units, r.n, fmt(r.median), fmt(r.latest),
          f"{r.rel_change:+.1%}" if r.rel_change is not None else "-",
          r.flag)
         for r in rows],
        title=title)
    flagged = sum(1 for r in rows if r.flag == "regression")
    tail = (f"{flagged} regression flag(s)" if flagged
            else "no regression flags")
    return f"{table}\n\n{len(rows)} metric(s) tracked — {tail}"


_GATE_RE = re.compile(
    r"^\s*([A-Za-z0-9_.:/-]+)\s*(<=|>=)\s*([-+0-9.eE]+)\s*$")


def parse_gate(text: str) -> Tuple[str, str, float]:
    """``METRIC<=VALUE`` / ``METRIC>=VALUE`` → (metric, op, value)."""
    match = _GATE_RE.match(text)
    if not match:
        raise ValueError(
            f"invalid gate {text!r} (expected METRIC<=VALUE or "
            "METRIC>=VALUE, e.g. watch_overhead_x<=1.05)")
    metric, op, value = match.groups()
    try:
        return metric, op, float(value)
    except ValueError:
        raise ValueError(
            f"invalid gate bound {value!r} in {text!r}") from None


def check_gates(rows: List[TrendRow],
                gates: List[Tuple[str, str, float]]) -> List[str]:
    """Evaluate gates against each metric's *latest* value.

    Returns violation messages (empty = all gates hold).  A gate whose
    metric never appears in the history is itself a violation — a
    silently-skipped gate would read as a pass.
    """
    violations: List[str] = []
    for metric, op, bound in gates:
        matched = [r for r in rows if r.metric == metric]
        if not matched:
            violations.append(
                f"gate {metric}{op}{bound:g}: metric not found in history")
            continue
        for row in matched:
            ok = (row.latest <= bound if op == "<="
                  else row.latest >= bound)
            if not ok:
                violations.append(
                    f"gate {metric}{op}{bound:g}: latest "
                    f"{row.latest:.4g} {row.units} "
                    f"(suite {row.suite}) violates the bound")
    return violations
