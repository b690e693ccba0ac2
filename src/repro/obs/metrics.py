"""Metrics for simulation runs: counters, gauges, histograms, sampling.

The metrics pillar of :mod:`repro.obs`.  Two layers:

* :class:`MetricsRegistry` — a plain instrument registry.  Counters
  accumulate, gauges hold the latest value, histograms collect samples
  for percentile queries.  :meth:`MetricsRegistry.sample` snapshots
  every counter/gauge onto a time series; the registry exports to JSON
  (full) or CSV (the time series).
* :class:`MetricsSampler` — an observer (attachable via
  :meth:`repro.sim.kernel.Simulation.attach_observer`) that maintains
  the serving instruments from engine events and snapshots them on a
  configurable *simulated-time grid*: per-instance queue depth and
  in-flight load, fleet totals, cumulative completions and tokens.

Sampling discipline: grid ticks are taken at ``t = k * grid_ms`` using
the instrument state *before* the first event at-or-after the tick, so
a series row is "the world as of that grid instant".  A grid coarser
than the simulation horizon simply yields fewer interior rows; the
final state is always flushed as one trailing sample by ``finish()``,
so even a one-event run exports a non-empty series.

Like every observer, the sampler only reads event tuples — instrumented
runs stay byte-identical to bare ones.
"""

from __future__ import annotations

import io
import json
import math
import os
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .._checks import check_positive
from ..serving.slo import percentile

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "MetricsSampler"]

_EPS = 1e-9  # the engines' step/fault boundary tolerance


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A value that goes up and down (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """A sample collection with nearest-rank percentile queries."""

    __slots__ = ("name", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        if not self.samples:
            raise ValueError(
                f"histogram {self.name!r} has no samples — mean is "
                "undefined")
        return sum(self.samples) / len(self.samples)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile; raises on an empty histogram —
        a silent NaN would poison downstream aggregation."""
        if not self.samples:
            raise ValueError(
                f"histogram {self.name!r} has no samples — percentile "
                f"p{q:g} is undefined")
        return percentile(self.samples, q)

    def summary(self) -> Dict[str, float]:
        """count/mean/p50/p95/p99/max (zeros and NaN for empty)."""
        if not self.samples:
            return {"count": 0, "mean": math.nan, "p50": math.nan,
                    "p95": math.nan, "p99": math.nan, "max": math.nan}
        return {"count": self.count, "mean": self.mean(),
                "p50": self.percentile(50), "p95": self.percentile(95),
                "p99": self.percentile(99), "max": max(self.samples)}


class MetricsRegistry:
    """Named instruments plus the sampled time series over them."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: Sampled rows: {"t_ms": float, "<instrument>": value, ...}.
        self.series: List[Dict[str, float]] = []

    # -- instrument creation (get-or-create, stable identity) -----------
    def counter(self, name: str) -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            self._claim(name)
            inst = self.counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self.gauges.get(name)
        if inst is None:
            self._claim(name)
            inst = self.gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self.histograms.get(name)
        if inst is None:
            self._claim(name)
            inst = self.histograms[name] = Histogram(name)
        return inst

    def _claim(self, name: str) -> None:
        for kind, table in (("counter", self.counters),
                            ("gauge", self.gauges),
                            ("histogram", self.histograms)):
            if name in table:
                raise ValueError(
                    f"instrument name {name!r} already registered as a "
                    f"{kind}")

    # -- sampling ---------------------------------------------------------
    def sample(self, t_ms: float) -> Dict[str, float]:
        """Snapshot every counter and gauge at ``t_ms`` (appended and
        returned).  Histograms are distributions, not levels — they
        export through :meth:`as_dict`, not the series."""
        row: Dict[str, float] = {"t_ms": t_ms}
        for name, counter in self.counters.items():
            row[name] = counter.value
        for name, gauge in self.gauges.items():
            row[name] = gauge.value
        self.series.append(row)
        return row

    # -- export -----------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "counters": {n: c.value for n, c in self.counters.items()},
            "gauges": {n: g.value for n, g in self.gauges.items()},
            "histograms": {n: h.summary()
                           for n, h in self.histograms.items()},
            "series": [dict(row) for row in self.series],
        }

    def to_json(self, run_config: Optional[Dict[str, Any]] = None) -> dict:
        out: Dict[str, Any] = {}
        if run_config is not None:
            out["run_config"] = dict(run_config)
        out.update(self.as_dict())
        return out

    def to_csv(self) -> str:
        """The time series as CSV (union of columns, blank = unsampled)."""
        columns = ["t_ms"]
        seen = {"t_ms"}
        for row in self.series:
            for key in row:
                if key not in seen:
                    seen.add(key)
                    columns.append(key)
        buf = io.StringIO()
        buf.write(",".join(columns) + "\n")
        for row in self.series:
            buf.write(",".join(
                (repr(row[c]) if c in row else "") for c in columns) + "\n")
        return buf.getvalue()

    def dump(self, path: os.PathLike,
             run_config: Optional[Dict[str, Any]] = None) -> None:
        """Write JSON (or the CSV series for ``*.csv`` paths)."""
        text = (self.to_csv() if str(path).endswith(".csv")
                else json.dumps(self.to_json(run_config), indent=1) + "\n")
        with open(path, "w") as fh:
            fh.write(text)


class MetricsSampler:
    """Grid-sampled serving metrics, fed by engine events.

    Instruments (per run):

    * ``queued`` / ``in_flight`` gauges — fleet totals (queue depth and
      sequences/batches in service);
    * ``queued_i<k>`` / ``in_flight_i<k>`` gauges — per instance;
    * ``parked`` gauge — work waiting with no capable instance up
      (failure scenarios);
    * ``arrivals`` / ``requeues`` / ``completions`` / ``dispatches`` /
      ``steps`` / ``tokens`` / ``failures`` / ``preemptions`` counters;
    * ``step_ms`` histogram of generation step durations;
    * ``down`` gauge — instances currently failed.

    ``tokens`` counts what completed steps delivered, so it ends at the
    report's ``total_tokens``.  A step's tokens (its fresh admits'
    first tokens plus one per decoding sequence; a resume's re-prefill
    emits none) are held until the next ``step`` or ``finish`` event
    on the same instance, which the engine emits at the instance's
    next step boundary.  A ``fail`` drops the held step if the engine
    aborts it (it ends more than the engines' tolerance after the
    fault).  An aborted step's admits whose prefill had already landed
    come back as ``resume`` rather than ``admit``, and that is when
    their first token counts.

    Failure accounting rides on the engines' ``requeue`` events
    (displaced work re-entering a queue): a ``fail`` folds the
    dead instance's levels out of the fleet gauges, and every displaced
    entry re-appears through ``requeue``/``dispatch``/``admit``, so the
    gauges stay non-negative and conserved.
    """

    def __init__(self, grid_ms: float = 10.0) -> None:
        check_positive("grid_ms", grid_ms)
        self.grid_ms = grid_ms
        self.registry = MetricsRegistry()
        self._next_tick = 0.0
        reg = self.registry
        self._queued = reg.gauge("queued")
        self._in_flight = reg.gauge("in_flight")
        self._parked = reg.gauge("parked")
        self._down = reg.gauge("down")
        self._arrivals = reg.counter("arrivals")
        self._requeues = reg.counter("requeues")
        self._dispatches = reg.counter("dispatches")
        self._completions = reg.counter("completions")
        self._steps = reg.counter("steps")
        self._tokens = reg.counter("tokens")
        self._failures = reg.counter("failures")
        self._preemptions = reg.counter("preemptions")
        self._step_ms = reg.histogram("step_ms")
        self._step_samples = self._step_ms.samples.append
        #: Per-instance gauges, created lazily at first sight.
        self._inst_queued: Dict[int, Gauge] = {}
        self._inst_flight: Dict[int, Gauge] = {}
        #: Serve mode: batch size in flight per instance (for completions).
        self._batch_size: Dict[int, int] = {}
        #: Generate mode: rids admitted since the instance's last step.
        self._fresh: Dict[int, List[int]] = {}
        #: Generate mode: the step in flight per instance, ``(end_ms,
        #: tokens, admitted rids)``; its tokens count once a later event
        #: on the instance shows it completed.
        self._pending: Dict[int, Tuple[float, int, Optional[List[int]]]] = {}
        #: Rids admitted by an aborted step: whether the first token
        #: landed shows when they are re-admitted (resume) or not (admit).
        self._unsure: Set[int] = set()
        self._finished = False

    # -- grid ------------------------------------------------------------
    def _tick_to(self, t_ms: float) -> None:
        """Emit grid samples for every tick at or before ``t_ms``,
        *before* the event at ``t_ms`` is applied."""
        while self._next_tick <= t_ms:
            self.registry.sample(self._next_tick)
            self._next_tick += self.grid_ms

    def _inst(self, table: Dict[int, Gauge], prefix: str,
              inst: int) -> Gauge:
        gauge = table.get(inst)
        if gauge is None:
            gauge = table[inst] = self.registry.gauge(f"{prefix}_i{inst}")
        return gauge

    # -- the observer hook -------------------------------------------------
    def on_event(self, event: tuple) -> None:
        kind = event[0]
        t = event[1]
        if t >= self._next_tick:
            self._tick_to(t)
        if kind == "step":  # generate: most events by far
            inst, duration = event[2], event[6]
            self._steps.value += 1.0
            self._step_samples(duration)
            pending = self._pending
            done = pending.get(inst)
            if done is not None:  # the instance's previous step completed
                self._tokens.value += done[1]
            fresh = self._fresh.pop(inst, None) if self._fresh else None
            pending[inst] = (t + duration,
                             event[5] + (len(fresh) if fresh else 0), fresh)
        elif kind == "arrive":
            inst = event[4]
            self._arrivals.inc()
            if inst >= 0:
                self._queued.add(1)
                self._inst(self._inst_queued, "queued", inst).add(1)
            else:  # no capable instance up: parked until a recover
                self._parked.add(1)
        elif kind == "requeue":  # displaced work re-queued
            inst = event[3]
            self._requeues.inc()
            if inst >= 0:
                self._queued.add(1)
                self._inst(self._inst_queued, "queued", inst).add(1)
            else:
                self._parked.add(1)
        elif kind == "dispatch":  # serve
            _, _, inst, model, size, switch_ms = event
            self._dispatches.inc()
            self._queued.add(-size)
            self._in_flight.add(size)
            self._inst(self._inst_queued, "queued", inst).add(-size)
            self._inst(self._inst_flight, "in_flight", inst).add(size)
            self._batch_size[inst] = size
        elif kind == "free":  # serve
            inst = event[2]
            size = self._batch_size.pop(inst, 0)
            self._completions.inc(size)
            self._in_flight.add(-size)
            self._inst(self._inst_flight, "in_flight", inst).add(-size)
        elif kind == "admit":  # generate
            inst, rid = event[2], event[3]
            if self._unsure:
                self._unsure.discard(rid)  # restarted: its token was lost
            self._fresh.setdefault(inst, []).append(rid)
            self._queued.add(-1)
            self._in_flight.add(1)
            self._inst(self._inst_queued, "queued", inst).add(-1)
            self._inst(self._inst_flight, "in_flight", inst).add(1)
        elif kind == "resume":  # generate (re-admission after eviction)
            inst, rid = event[2], event[3]
            if rid in self._unsure:  # its first token had landed
                self._unsure.discard(rid)
                self._tokens.value += 1.0
            self._queued.add(-1)
            self._in_flight.add(1)
            self._inst(self._inst_queued, "queued", inst).add(-1)
            self._inst(self._inst_flight, "in_flight", inst).add(1)
        elif kind == "finish":  # generate
            inst = event[2]
            done = self._pending.pop(inst, None)
            if done is not None:  # the step that finished it completed
                self._tokens.value += done[1]
            self._completions.inc()
            self._in_flight.add(-1)
            self._inst(self._inst_flight, "in_flight", inst).add(-1)
        elif kind == "preempt":  # generate: back to the queue
            inst = event[2]
            self._preemptions.inc()
            self._in_flight.add(-1)
            self._queued.add(1)
            self._inst(self._inst_flight, "in_flight", inst).add(-1)
            self._inst(self._inst_queued, "queued", inst).add(1)
        elif kind == "fail":
            inst = event[2]
            self._failures.inc()
            self._down.add(1)
            # A step still in flight is aborted (the engine's rule) and
            # its tokens are never delivered — except the first tokens
            # of admits whose prefill had already landed, which the
            # stream only reveals when they come back as resumes.
            step = self._pending.pop(inst, None)
            if step is not None:
                end, tokens, fresh = step
                if end <= t + _EPS:
                    self._tokens.value += tokens
                elif fresh:
                    self._unsure.update(fresh)
            # Everything on the dead instance is displaced and re-
            # routed; each displaced entry re-appears as a ``requeue``
            # event, so fold the instance's levels out of the fleet
            # totals here and let the requeues re-add them.
            flight = self._inst(self._inst_flight, "in_flight", inst)
            queued = self._inst(self._inst_queued, "queued", inst)
            self._in_flight.add(-flight.value)
            self._queued.add(-queued.value)
            flight.set(0.0)
            queued.set(0.0)
            self._batch_size.pop(inst, None)
        elif kind == "recover":
            # The engine drains *all* parked work through route() right
            # after this event; each drained entry re-appears as a
            # ``requeue`` (possibly re-parking itself).
            self._down.add(-1)
            self._parked.set(0.0)

    __call__ = on_event

    def finish(self, t_ms: float) -> None:
        """Flush trailing grid ticks plus one final end-state sample."""
        if self._finished:
            return
        self._finished = True
        self._tick_to(t_ms)
        self.registry.sample(t_ms)
