"""repro.obs — tracing, metrics, profiling, and watchdogs for the stack.

Observability pillars, all opt-in and all zero-cost when left detached:

* **tracing** (:mod:`repro.obs.trace`) — :class:`TraceRecorder` turns the
  engines' flat event tuples into Chrome-trace-event JSON viewable in
  ``chrome://tracing`` / Perfetto; attach via
  :meth:`repro.sim.kernel.Simulation.attach_observer` or the
  ``serve --trace`` / ``generate --trace`` CLI flags.
* **metrics** (:mod:`repro.obs.metrics`) — :class:`MetricsRegistry` of
  counters, gauges, and histograms; :class:`MetricsSampler` observes a
  run and samples fleet state on a configurable sim-time grid,
  exportable to JSON or CSV (``--metrics``).
* **profiling** (:mod:`repro.obs.profile`) — :class:`KernelProfiler`
  attributes kernel wall time per event kind;
  :class:`DseProfile` instruments :func:`repro.dse.engine.explore`
  with cache hit/miss counts and a per-worker dispatch/idle breakdown
  (``--profile``).
* **watching** (:mod:`repro.obs.alerts` / :mod:`repro.obs.anomaly`) —
  alert rules (static thresholds and multi-window error-budget
  :class:`BurnRateRule` burn rates over trailing sim-time windows),
  and a rolling-median + MAD :class:`AnomalyDetector`, all glued to a
  live run by the :class:`Watchdog` observer (``--watch``).
* **analytics** (:mod:`repro.obs.diff` / :mod:`repro.obs.
  bench_history`) — run-to-run regression detection between two
  ``--json`` exports (:func:`diff_runs`) and trend/gate analytics over
  the benchmark history (:func:`bench_trend`); both back the ``repro
  obs`` CLI family alongside :func:`summarize_trace`.

Observers are the only consumers of the engines' event stream — a run
keeps no copy of it — and read-only ones: a run with observability
attached has the records and samples of a bare run (enforced by the
trace-identity golden tests).  Multiple observers compose with
:func:`compose`.
"""

from __future__ import annotations

from typing import Callable

from ..sim.kernel import CompositeObserver
from .alerts import (
    Alert,
    AlertRule,
    BurnRateRule,
    ThresholdRule,
    Watchdog,
)
from .anomaly import AnomalyDetector
from .bench_history import TrendRow, bench_trend, check_gates, parse_gate
from .bench_history import render_bench_trend
from .diff import DiffReport, diff_runs, render_diff
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, MetricsSampler
from .profile import (
    DseProfile,
    KernelProfiler,
    render_dse_profile,
    render_kernel_profile,
)
from .trace import TraceRecorder, render_trace_summary, summarize_trace

__all__ = [
    "TraceRecorder",
    "summarize_trace",
    "render_trace_summary",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSampler",
    "KernelProfiler",
    "DseProfile",
    "render_kernel_profile",
    "render_dse_profile",
    "Alert",
    "AlertRule",
    "ThresholdRule",
    "BurnRateRule",
    "Watchdog",
    "AnomalyDetector",
    "DiffReport",
    "diff_runs",
    "render_diff",
    "TrendRow",
    "bench_trend",
    "render_bench_trend",
    "parse_gate",
    "check_gates",
    "compose",
]


def compose(*observers: Callable[[tuple], None]) -> Callable[[tuple], None]:
    """Combine observers into one (``None`` entries are dropped).

    Returns ``None`` when nothing is left, a single observer unchanged,
    or a composite that forwards every event — and ``finish()`` — to
    each part in order.
    """
    parts = tuple(o for o in observers if o is not None)
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return CompositeObserver(parts)
