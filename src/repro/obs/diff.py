"""Run-to-run regression detection between two ``--json`` exports.

``repro obs diff run_a.json run_b.json`` flattens both documents to
dotted numeric leaves (``latency_ms.p99``, ``per_model.x.count``, …),
classifies each metric's *good* direction from its name
(latency/wait/overhead down, throughput/attainment/availability up),
and reports the significant movements: a change is significant when it
clears both an absolute floor (``atol``) and a relative tolerance band
(``rtol``), so float noise between identical runs never pages anyone.

Unclassifiable metrics (seeds, horizons, counts of neutral things)
still surface — as *changed*, not as regressions — because a config
drift between two runs is exactly what a diff should catch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["flatten", "classify", "DiffEntry", "DiffReport", "diff_runs",
           "render_diff"]

#: Name fragments marking lower-is-better metrics.
_LOWER = ("latency", "p50", "p90", "p95", "p99", "ttft", "tpot", "wait",
          "queue_depth", "overhead", "switch", "reprogram", "downtime",
          "down_ms", "retries", "failures", "preemptions", "violations",
          "alert", "burn", "onset", "power", "energy", "time_ms",
          "busy_ms", "cycles")
#: Name fragments marking higher-is-better metrics.
_HIGHER = ("throughput", "tokens_per_s", "tok_per_s", "goodput",
           "attainment", "availability", "speedup", "rps", "inf_per_s",
           "gops", "completions")


def classify(key: str) -> Optional[str]:
    """The metric's good direction: ``"min"``, ``"max"``, or None.

    Matches name fragments against the full dotted key; a key matching
    both families (or neither) stays unclassified — reported as
    changed, never guessed into a regression.
    """
    low = key.lower()
    lower = any(tok in low for tok in _LOWER)
    higher = any(tok in low for tok in _HIGHER)
    if lower and not higher:
        return "min"
    if higher and not lower:
        return "max"
    return None


def flatten(obj, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a nested JSON document as dotted keys.

    Bools, strings, and nulls are skipped (they are settings, not
    metrics); lists index their elements.
    """
    out: Dict[str, float] = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(flatten(value, f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)):
        for idx, value in enumerate(obj):
            out.update(flatten(value, f"{prefix}{idx}."))
    elif isinstance(obj, bool) or obj is None:
        pass
    elif isinstance(obj, (int, float)):
        if math.isfinite(obj):
            out[prefix[:-1]] = float(obj)
    return out


@dataclass(frozen=True)
class DiffEntry:
    """One significantly-moved metric."""

    key: str
    a: float
    b: float
    delta: float
    #: Relative change vs run A (None when A is exactly zero).
    rel: Optional[float]
    #: "min" / "max" / None — the metric's good direction.
    direction: Optional[str]
    #: "regression", "improvement", or "changed" (unclassified).
    kind: str

    def as_dict(self) -> dict:
        return {"key": self.key, "a": self.a, "b": self.b,
                "delta": self.delta, "rel": self.rel,
                "direction": self.direction, "kind": self.kind}


@dataclass(frozen=True)
class DiffReport:
    """Outcome of :func:`diff_runs` (B measured against A)."""

    rtol: float
    atol: float
    #: Metrics compared (present and finite in both runs).
    compared: int
    regressions: List[DiffEntry] = field(default_factory=list)
    improvements: List[DiffEntry] = field(default_factory=list)
    #: Significant movements with no known good direction.
    changed: List[DiffEntry] = field(default_factory=list)
    #: Keys present in exactly one run.
    only_a: List[str] = field(default_factory=list)
    only_b: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def as_dict(self) -> dict:
        return {
            "rtol": self.rtol, "atol": self.atol,
            "compared": self.compared,
            "ok": self.ok,
            "regressions": [e.as_dict() for e in self.regressions],
            "improvements": [e.as_dict() for e in self.improvements],
            "changed": [e.as_dict() for e in self.changed],
            "only_a": list(self.only_a),
            "only_b": list(self.only_b),
        }


def diff_runs(run_a: dict, run_b: dict, rtol: float = 0.05,
              atol: float = 1e-9) -> DiffReport:
    """Significant metric movements from ``run_a`` to ``run_b``.

    Both arguments are parsed ``--json`` run exports (any nested JSON
    works).  ``rtol``/``atol`` define the tolerance band: a metric
    moves significantly when ``|b - a| > atol`` *and* ``|b - a| >
    rtol * |a|``.
    """
    # An infinite band hides every regression; NaN fails the test too.
    if not (0 <= rtol < math.inf and 0 <= atol < math.inf):
        raise ValueError(f"tolerances must be finite and >= 0, got "
                         f"rtol={rtol}, atol={atol}")
    flat_a = flatten(run_a)
    flat_b = flatten(run_b)
    regressions: List[DiffEntry] = []
    improvements: List[DiffEntry] = []
    changed: List[DiffEntry] = []
    shared = [k for k in flat_a if k in flat_b]
    for key in sorted(shared):
        a, b = flat_a[key], flat_b[key]
        delta = b - a
        if abs(delta) <= atol or abs(delta) <= rtol * abs(a):
            continue
        rel = delta / abs(a) if a != 0 else None
        direction = classify(key)
        if direction is None:
            kind = "changed"
        elif (delta > 0) == (direction == "min"):
            kind = "regression"
        else:
            kind = "improvement"
        entry = DiffEntry(key, a, b, delta, rel, direction, kind)
        {"regression": regressions, "improvement": improvements,
         "changed": changed}[kind].append(entry)

    def _severity(entry: DiffEntry) -> float:
        return abs(entry.rel) if entry.rel is not None else math.inf

    regressions.sort(key=lambda e: (-_severity(e), e.key))
    improvements.sort(key=lambda e: (-_severity(e), e.key))
    return DiffReport(
        rtol=rtol, atol=atol, compared=len(shared),
        regressions=regressions, improvements=improvements,
        changed=changed,
        only_a=sorted(k for k in flat_a if k not in flat_b),
        only_b=sorted(k for k in flat_b if k not in flat_a),
    )


def load_run(path) -> dict:
    """Read one ``--json`` export (exits with a message on bad input
    are the CLI's job; this raises ``ValueError``/``OSError``)."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(
            f"{path}: expected a JSON object (a --json run export), "
            f"got {type(doc).__name__}")
    return doc


def _fmt_rel(entry: DiffEntry) -> str:
    return f"{entry.rel:+.1%}" if entry.rel is not None else "n/a"


def render_diff(report: DiffReport, name_a: str = "A",
                name_b: str = "B") -> str:
    """Human-readable diff summary (the ``obs diff`` text output)."""
    from ..analysis.tables import render_table

    parts: List[str] = []
    verdict = ("OK: no significant regressions" if report.ok
               else f"{len(report.regressions)} significant regression(s)")
    parts.append(f"compared {report.compared} metric(s) "
                 f"[rtol={report.rtol:g}, atol={report.atol:g}] — "
                 f"{verdict}")
    for title, entries in (("Regressions", report.regressions),
                           ("Improvements", report.improvements),
                           ("Changed (no known direction)",
                            report.changed)):
        if entries:
            parts.append(render_table(
                ("metric", name_a, name_b, "delta", "rel"),
                [(e.key, e.a, e.b, e.delta, _fmt_rel(e))
                 for e in entries],
                title=title))
    if report.only_a:
        parts.append(f"only in {name_a}: " + ", ".join(report.only_a))
    if report.only_b:
        parts.append(f"only in {name_b}: " + ", ".join(report.only_b))
    return "\n\n".join(parts)
