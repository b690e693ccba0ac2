"""Streaming SLO watchdogs: alert rules + the Watchdog observer.

The alerting pillar of :mod:`repro.obs`.  Three rule shapes, all
evaluated *online* in simulated time:

* :class:`ThresholdRule` — static: fires while a value exceeds a
  threshold;
* :class:`SustainedRule` — fires only once the value has stayed above
  the threshold for ``sustain_ms`` of simulated time (sustained
  utilization / queue depth);
* :class:`BurnRateRule` — multi-window error-budget burn rate over SLO
  outcomes, the Google-SRE alerting shape: with error budget
  ``1 - target``, the burn rate in a window is
  ``(violation fraction) / budget``; the rule fires while *both* a
  fast and a slow trailing window burn at or above ``threshold`` —
  the fast window gives low time-to-detect, the slow window keeps one
  bad batch from paging.

:class:`Watchdog` glues the rules to a live run.  It is an engine
observer (attach via :meth:`repro.sim.kernel.Simulation.
attach_observer`, ``observer=`` on the simulate facades, or the
``serve --watch`` / ``generate --watch`` CLI flags) that derives the
per-request outcome stream from engine events alone:

* **serve mode** — ``dispatch`` events carry no request ids, but the
  engine always dispatches an exact head prefix of the instance's
  FIFO queue, so the watchdog mirrors per-instance rid queues from
  ``arrive``/``requeue`` events and recovers batch membership from
  the dispatch ``size``; the matching ``free`` completes every member
  (latency = free time − first arrival).
* **generate mode** — ``admit`` events precede their ``step`` event at
  the same timestamp, and the step's ``duration`` bounds the first
  token time (an admitted prefill's first token lands *within* the
  step, no later than its end), so each admitted rid's TTFT is pended
  at ``t + duration`` and *committed* only once a later event proves
  the step completed (a ``fail`` before then aborts the step and
  drops the pending TTFTs, exactly mirroring the engine's restart
  semantics).  The bound is step-granular and therefore
  *conservative*: the watchdog never under-counts TTFT violations,
  and matches the offline report exactly whenever first tokens and
  step ends coincide (single-admit steps with no decode sweep).

Completions feed the burn-rate rule, the anomaly detector
(:class:`~repro.obs.anomaly.AnomalyDetector`), and any extra rules;
``fail``/``recover`` feed a fleet-down threshold rule.  Like every
observer the watchdog only *reads* event tuples — a watched run stays
byte-identical to a bare one (re-asserted by the trace-identity
goldens).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .anomaly import AnomalyDetector

__all__ = ["Alert", "AlertRule", "ThresholdRule", "SustainedRule",
           "BurnRateRule", "Watchdog"]

_EPS = 1e-9  # same tolerance the engines use at step/fault boundaries


@dataclass(frozen=True)
class Alert:
    """One alert episode: open/close simulated times plus peak severity."""

    rule: str
    t_open_ms: float
    t_close_ms: float
    peak: float
    #: True when the run drained with the alert still firing (closed
    #: administratively at the horizon by ``finalize``).
    open_at_end: bool = False

    @property
    def duration_ms(self) -> float:
        return self.t_close_ms - self.t_open_ms

    def as_dict(self) -> dict:
        return {"rule": self.rule, "t_open_ms": self.t_open_ms,
                "t_close_ms": self.t_close_ms,
                "duration_ms": self.duration_ms, "peak": self.peak,
                "open_at_end": self.open_at_end}


class AlertRule:
    """Shared open/close bookkeeping for alert rules."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.alerts: List[Alert] = []
        self._open_since: Optional[float] = None
        self._peak = 0.0

    @property
    def firing(self) -> bool:
        return self._open_since is not None

    def _update(self, t_ms: float, firing: bool, severity: float) -> None:
        if firing:
            if self._open_since is None:
                self._open_since = t_ms
                self._peak = severity
            elif severity > self._peak:
                self._peak = severity
        elif self._open_since is not None:
            self.alerts.append(Alert(self.name, self._open_since, t_ms,
                                     self._peak))
            self._open_since = None

    def finalize(self, t_ms: float) -> None:
        """Close a still-firing alert at the run horizon."""
        if self._open_since is not None:
            self.alerts.append(Alert(self.name, self._open_since, t_ms,
                                     self._peak, open_at_end=True))
            self._open_since = None

    def total_alert_ms(self) -> float:
        return sum(a.duration_ms for a in self.alerts)

    def summary(self) -> dict:
        return {"alerts": len(self.alerts),
                "alert_ms": self.total_alert_ms()}


class ThresholdRule(AlertRule):
    """Static threshold: fires while ``value > threshold``."""

    def __init__(self, name: str, threshold: float,
                 sustain_ms: float = 0.0) -> None:
        super().__init__(name)
        if not 0 <= sustain_ms < math.inf:  # inf would never fire
            raise ValueError(
                f"sustain_ms must be finite and >= 0, got {sustain_ms}")
        self.threshold = threshold
        self.sustain_ms = sustain_ms
        self._above_since: Optional[float] = None

    def observe(self, t_ms: float, value: float) -> None:
        if value > self.threshold:
            if self._above_since is None:
                self._above_since = t_ms
            if t_ms - self._above_since >= self.sustain_ms:
                self._update(t_ms, True, value)
        else:
            self._above_since = None
            self._update(t_ms, False, value)


class SustainedRule(ThresholdRule):
    """Threshold that must hold for ``sustain_ms`` before firing."""

    def __init__(self, name: str, threshold: float,
                 sustain_ms: float) -> None:
        if not sustain_ms > 0:
            raise ValueError(
                f"SustainedRule needs sustain_ms > 0 (got {sustain_ms}); "
                "use ThresholdRule for instant alerts")
        super().__init__(name, threshold, sustain_ms)


class BurnRateRule(AlertRule):
    """Multi-window error-budget burn rate over SLO outcomes.

    Feed one boolean outcome per completion via :meth:`observe`; the
    rule fires while min(fast-window burn, slow-window burn) >=
    ``threshold``, where a window's burn is its violation fraction
    divided by the error budget ``1 - target``.
    """

    def __init__(self, target: float, fast_ms: float, slow_ms: float,
                 threshold: float, name: str = "burn_rate") -> None:
        super().__init__(name)
        if not 0.0 < target < 1.0:
            raise ValueError(
                f"SLO target must be in (0, 1), got {target}")
        # Infinite windows never evict (unbounded deques, no alert).
        if not (0 < fast_ms < math.inf and 0 < slow_ms < math.inf):
            raise ValueError(
                f"burn windows must be finite and > 0 ms, got "
                f"fast={fast_ms}, slow={slow_ms}")
        if slow_ms < fast_ms:
            raise ValueError(
                f"slow window ({slow_ms} ms) must be >= fast window "
                f"({fast_ms} ms)")
        if not 0 < threshold < math.inf:  # NaN/inf would never fire
            raise ValueError(
                f"burn threshold must be finite and > 0, got {threshold}")
        self.target = target
        self.budget = 1.0 - target
        self.threshold = threshold
        # Raw trailing windows of (t_ms, bad) outcomes with running
        # violation counts: observe() runs once per completion, so the
        # windows are kept O(1)-amortized with no per-call indirection.
        self._fast_ms = fast_ms
        self._slow_ms = slow_ms
        self._fast: deque = deque()
        self._slow: deque = deque()
        self._fast_bad = 0
        self._slow_bad = 0
        #: Peak of min(fast, slow) burn seen across the run.
        self.max_burn = 0.0

    def burn_rates(self) -> Tuple[float, float]:
        """(fast, slow) burn as of the last observation."""
        fast = (self._fast_bad / len(self._fast) / self.budget
                if self._fast else 0.0)
        slow = (self._slow_bad / len(self._slow) / self.budget
                if self._slow else 0.0)
        return fast, slow

    def observe(self, t_ms: float, ok: bool) -> None:
        bad = 0 if ok else 1
        # Samples exactly window-width old evict: each window covers
        # the half-open interval (t - width, t], matching SlidingWindow.
        fast = self._fast
        fast.append((t_ms, bad))
        self._fast_bad += bad
        edge = t_ms - self._fast_ms
        while fast[0][0] <= edge:
            self._fast_bad -= fast.popleft()[1]
        slow = self._slow
        slow.append((t_ms, bad))
        self._slow_bad += bad
        edge = t_ms - self._slow_ms
        while slow[0][0] <= edge:
            self._slow_bad -= slow.popleft()[1]
        fast_burn, slow_burn = self.burn_rates()
        burn = min(fast_burn, slow_burn)
        if burn > self.max_burn:
            self.max_burn = burn
        self._update(t_ms, burn >= self.threshold, burn)


class Watchdog:
    """Online SLO watchdog over a serve or generate run (an observer).

    ``slo_ms`` bounds per-request latency in serve mode and TTFT in
    generate mode.  ``target`` is the SLO attainment objective whose
    error budget the burn-rate rule tracks.  ``queue_threshold`` arms
    an optional sustained queue-depth rule; ``rules`` adds extra rules
    fed the per-completion outcome values (``observe(t_ms, value)``).
    """

    def __init__(self, slo_ms: float, target: float = 0.99,
                 fast_window_ms: float = 100.0,
                 slow_window_ms: float = 500.0,
                 burn_threshold: float = 2.0,
                 queue_threshold: Optional[float] = None,
                 queue_sustain_ms: float = 10.0,
                 detector: Optional[AnomalyDetector] = None,
                 rules: Sequence[AlertRule] = ()) -> None:
        if not slo_ms > 0:
            raise ValueError(f"slo_ms must be > 0, got {slo_ms}")
        self.slo_ms = slo_ms
        self.target = target
        self.burn_rule = BurnRateRule(target, fast_window_ms,
                                      slow_window_ms, burn_threshold)
        self.down_rule = ThresholdRule("fleet_down", threshold=0.0)
        self.queue_rule: Optional[SustainedRule] = None
        if queue_threshold is not None:
            self.queue_rule = SustainedRule("queue_depth", queue_threshold,
                                            queue_sustain_ms)
        self.detector = (detector if detector is not None
                         else AnomalyDetector())
        self.extra_rules = tuple(rules)
        self.completions = 0
        self.violations = 0
        #: rid -> first arrival time (retries keep the original).
        self._arrive: Dict[int, float] = {}
        #: Serve+generate: per-instance FIFO mirror of queued rids.
        self._queues: Dict[int, List[int]] = {}
        #: Serve: rids of the in-flight batch per instance.
        self._batches: Dict[int, List[int]] = {}
        #: Generate: rids admitted since the last step emit per instance.
        self._admits: Dict[int, List[int]] = {}
        #: Generate: (t_first, [(rid, ttft), ...]) pending commit.
        self._pending: Dict[int, Tuple[float, List[Tuple[int, float]]]] = {}
        #: Earliest pending commit time — lets the per-event hot path
        #: skip the commit scan until something is actually due.
        self._next_due = float("inf")
        self._down = 0
        self._queued = 0
        self._parked = 0
        self._finished = False
        self._horizon_ms = 0.0

    # -- rule plumbing ---------------------------------------------------
    def rules(self) -> List[AlertRule]:
        out: List[AlertRule] = [self.burn_rule, self.down_rule]
        if self.queue_rule is not None:
            out.append(self.queue_rule)
        out.extend(self.extra_rules)
        return out

    def _outcome(self, t_ms: float, value: float) -> None:
        self.completions += 1
        ok = value <= self.slo_ms
        if not ok:
            self.violations += 1
        self.burn_rule.observe(t_ms, ok)
        self.detector.observe(t_ms, value)
        for rule in self.extra_rules:
            rule.observe(t_ms, value)

    def _commit_due(self, t_ms: float) -> None:
        """Commit pending TTFTs whose step provably completed by
        ``t_ms`` (events arrive in nondecreasing time, so any pending
        first-token time at or before now is final)."""
        due = [(t_done, inst) for inst, (t_done, _) in self._pending.items()
               if t_done <= t_ms + _EPS]
        for t_done, inst in sorted(due):
            for rid, ttft in self._pending.pop(inst)[1]:
                self._outcome(t_done, ttft)
        self._next_due = min(
            (t_done for t_done, _ in self._pending.values()),
            default=float("inf"))

    def _note_queue(self, t_ms: float) -> None:
        """Feed the queue-depth rule (callers guard on it being armed —
        the per-event hot path skips the call entirely otherwise)."""
        self.queue_rule.observe(t_ms, float(self._queued + self._parked))

    # -- the observer hook -----------------------------------------------
    def on_event(self, event: tuple) -> None:
        kind = event[0]
        t = event[1]
        self._horizon_ms = t
        if self._next_due <= t + _EPS:
            self._commit_due(t)
        if kind == "arrive":
            rid, inst = event[2], event[4]
            if rid not in self._arrive:
                self._arrive[rid] = t
            if inst >= 0:
                self._queues.setdefault(inst, []).append(rid)
                self._queued += 1
            else:
                self._parked += 1
            if self.queue_rule is not None:
                self._note_queue(t)
        elif kind == "requeue":  # observer-only: displaced work re-queued
            rid, inst = event[2], event[3]
            if inst >= 0:
                self._queues.setdefault(inst, []).append(rid)
                self._queued += 1
            else:
                self._parked += 1
            if self.queue_rule is not None:
                self._note_queue(t)
        elif kind == "dispatch":  # serve: head prefix of the mirror
            inst, size = event[2], event[4]
            queue = self._queues.get(inst, [])
            self._batches[inst] = queue[:size]
            del queue[:size]
            self._queued -= size
            if self.queue_rule is not None:
                self._note_queue(t)
        elif kind == "free":  # serve: every batch member completes
            arrive = self._arrive
            for rid in self._batches.pop(event[2], ()):
                self._outcome(t, t - arrive[rid])
        elif kind == "admit":  # generate: first token due at step end
            inst, rid = event[2], event[3]
            self._admits.setdefault(inst, []).append(rid)
            self._unqueue(inst, rid)
            self._queued -= 1
            if self.queue_rule is not None:
                self._note_queue(t)
        elif kind == "resume":  # generate: first token already delivered
            inst, rid = event[2], event[3]
            self._unqueue(inst, rid)
            self._queued -= 1
            if self.queue_rule is not None:
                self._note_queue(t)
        elif kind == "step":  # generate: fixes t_first for this admit set
            inst, duration = event[2], event[6]
            admitted = self._admits.pop(inst, None)
            if admitted:
                t_first = t + duration
                arrive = self._arrive
                self._pending[inst] = (
                    t_first, [(rid, t_first - arrive[rid])
                              for rid in admitted])
                if t_first < self._next_due:
                    self._next_due = t_first
        elif kind == "preempt":  # generate: victim re-queues in place
            inst, rid = event[2], event[3]
            self._queues.setdefault(inst, []).append(rid)
            self._queued += 1
            if self.queue_rule is not None:
                self._note_queue(t)
        elif kind == "fail":
            inst = event[2]
            self._down += 1
            # The in-flight step (if any) aborted before its first
            # tokens were delivered: drop the pending TTFTs — those
            # sequences restart and re-pend on re-admission.  Queued
            # and in-flight work re-enters via requeue events.
            self._pending.pop(inst, None)
            self._admits.pop(inst, None)
            self._batches.pop(inst, None)
            queued = self._queues.pop(inst, None)
            if queued:
                self._queued -= len(queued)
            self.down_rule.observe(t, float(self._down))
            if self.queue_rule is not None:
                self._note_queue(t)
        elif kind == "recover":
            self._down -= 1
            # The engine drains all parked work through the dispatcher
            # now; each entry re-appears as a requeue event.
            self._parked = 0
            self.down_rule.observe(t, float(self._down))
            if self.queue_rule is not None:
                self._note_queue(t)
        # "finish" and unknown kinds need no bookkeeping here.

    __call__ = on_event

    def _unqueue(self, inst: int, rid: int) -> None:
        """Drop one rid from an instance's queue mirror (admission is
        FIFO-by-model or priority order, so remove by value)."""
        queue = self._queues.get(inst)
        if queue is not None:
            try:
                queue.remove(rid)
            except ValueError:
                pass  # admitted from a queue state we never mirrored

    def finish(self, t_ms: float) -> None:
        """Commit trailing first-token outcomes and close open alerts."""
        if self._finished:
            return
        self._finished = True
        self._horizon_ms = max(self._horizon_ms, t_ms)
        if self._pending:
            self._commit_due(float("inf"))
        for rule in self.rules():
            rule.finalize(t_ms)

    # -- results -----------------------------------------------------------
    def alerts(self) -> List[Alert]:
        """Every alert across every rule, in open-time order."""
        out = [a for rule in self.rules() for a in rule.alerts]
        out.sort(key=lambda a: (a.t_open_ms, a.rule))
        return out

    def summary(self) -> dict:
        """The watch block reported by serve/generate summaries."""
        alerts = self.alerts()
        total = self.completions
        attainment = (1.0 - self.violations / total) if total else None
        budget = 1.0 - self.target
        return {
            "slo_ms": self.slo_ms,
            "target": self.target,
            "completions": total,
            "violations": self.violations,
            "attainment": attainment,
            #: Fraction of the run's total error budget consumed
            #: (> 1 means the budget is blown).
            "budget_burn": (self.violations / (budget * total)
                            if total else 0.0),
            "max_burn_rate": self.burn_rule.max_burn,
            "alerts": len(alerts),
            "alert_minutes": sum(a.duration_ms for a in alerts) / 60e3,
            "time_to_first_alert_ms": (
                min(a.t_open_ms for a in alerts) if alerts else None),
            "anomaly_onsets": self.detector.onset_times,
            "rules": {rule.name: rule.summary() for rule in self.rules()},
        }

    def annotate(self, tracer) -> None:
        """Emit alert spans + anomaly onsets onto the trace's alerts
        row (call after the run, before the trace is exported)."""
        for rule in self.rules():
            for alert in rule.alerts:
                tracer.alert_span(rule.name, alert.t_open_ms,
                                  alert.duration_ms, peak=alert.peak,
                                  open_at_end=alert.open_at_end)
        for onset in self.detector.onsets:
            tracer.alert_instant("anomaly_onset", onset["t_ms"],
                                 value=onset["value"],
                                 score=onset["score"])
