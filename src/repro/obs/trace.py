"""Chrome-trace-event recording of simulation runs.

:class:`TraceRecorder` is the tracing pillar of :mod:`repro.obs`: an
observer (see :meth:`repro.sim.kernel.Simulation.attach_observer`) that
converts the engines' flat event tuples into the `Chrome trace-event
format <https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_,
viewable in ``chrome://tracing`` / `Perfetto <https://ui.perfetto.dev>`_.

The mapping is one *process* per run, one *thread row per instance*
(plus a ``requests`` row for arrivals):

* serve mode — every ``dispatch`` opens a batch span on its instance's
  row, closed by the matching ``free`` (aborted batches are closed by
  the ``fail`` that killed them, flagged ``aborted``); arrivals are
  instants; a ``fail``/``recover`` pair becomes a ``down`` span.
* generate mode — every ``step`` is a complete span (its duration is
  known at emission); ``admit``/``resume`` open a per-request sequence
  span closed by ``finish`` (or by ``preempt``/``fail`` displacement);
  arrivals and preemptions are instants; ``fail``/``recover`` becomes a
  ``down`` span.

The recorder only *reads* event tuples — it never touches the clock,
the RNG streams, or the event queue — so an instrumented run's records
and samples are byte-identical to a bare one's (pinned by the
trace-identity goldens).

Simulated time maps to the trace timebase directly: 1 simulated ms =
1 trace "microsecond", so viewer timestamps read as simulated
milliseconds (``displayTimeUnit`` metadata records this convention).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["TraceRecorder", "summarize_trace", "render_trace_summary"]

#: The run's single trace process id.
_PID = 0
#: Thread row for request arrivals (instances use 1 + index).
_TID_REQUESTS = 0
#: Thread row for watchdog alert spans (far above any instance row).
_TID_ALERTS = 10_000


def _tid(instance: int) -> int:
    """Instance index → trace thread row (row 0 is the arrivals lane)."""
    return 1 + instance


class TraceRecorder:
    """Record span/instant events and export Chrome trace-event JSON.

    Use directly (:meth:`instant` / :meth:`complete` / :meth:`counter`)
    or attach to a simulation engine, whose event tuples it understands
    via :meth:`on_event` (the recorder itself is the observer
    callable).
    """

    def __init__(self) -> None:
        #: Finished Chrome trace events (dicts, export order).
        self.events: List[Dict[str, Any]] = []
        #: Instance rows seen so far (emits thread-name metadata once).
        self._named: Dict[int, str] = {}
        #: In-flight serve batch per instance: (t_dispatch, model, size).
        self._open_batches: Dict[int, Tuple[float, str, int]] = {}
        #: In-flight generation sequence span per rid: (t_open, args).
        self._open_seqs: Dict[int, Tuple[float, Dict[str, Any]]] = {}
        #: Fault start per instance (closed by recover or finish()).
        self._down_since: Dict[int, float] = {}
        self._finished = False

    # -- primitive recording -------------------------------------------
    def _name_row(self, tid: int, name: str) -> None:
        if tid not in self._named:
            self._named[tid] = name
            self.events.append({
                "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
                "args": {"name": name},
            })

    def instant(self, name: str, t_ms: float, tid: int = _TID_REQUESTS,
                **args: Any) -> None:
        """One instant event (``ph="i"``, thread scope)."""
        self.events.append({
            "name": name, "ph": "i", "s": "t", "ts": t_ms,
            "pid": _PID, "tid": tid, "args": args,
        })

    def complete(self, name: str, t_ms: float, dur_ms: float,
                 tid: int = _TID_REQUESTS, **args: Any) -> None:
        """One complete span (``ph="X"`` with a duration)."""
        self.events.append({
            "name": name, "ph": "X", "ts": t_ms, "dur": dur_ms,
            "pid": _PID, "tid": tid, "args": args,
        })

    def counter(self, name: str, t_ms: float, value: float) -> None:
        """One counter sample (``ph="C"``, rendered as a track)."""
        self.events.append({
            "name": name, "ph": "C", "ts": t_ms,
            "pid": _PID, "tid": _TID_REQUESTS, "args": {name: value},
        })

    # -- watchdog annotation ---------------------------------------------
    def alert_span(self, rule: str, t_ms: float, dur_ms: float,
                   **args: Any) -> None:
        """One alert episode on the dedicated alerts row (named
        ``alert:<rule>`` so alert spans sort together in viewers)."""
        self._name_row(_TID_ALERTS, "alerts")
        self.complete(f"alert:{rule}", t_ms, dur_ms, _TID_ALERTS, **args)

    def alert_instant(self, name: str, t_ms: float, **args: Any) -> None:
        """One alert-row instant (e.g. an anomaly-detector onset)."""
        self._name_row(_TID_ALERTS, "alerts")
        self.instant(name, t_ms, _TID_ALERTS, **args)

    # -- the observer hook ----------------------------------------------
    def on_event(self, event: tuple) -> None:
        """Consume one engine trace tuple (serve or generate vocabulary)."""
        kind = event[0]
        t = event[1]
        if kind == "arrive":
            _, _, rid, model, inst = event
            self._name_row(_TID_REQUESTS, "requests")
            self.instant("arrive", t, rid=rid, model=model, instance=inst)
        elif kind == "dispatch":  # serve: opens a batch span
            _, _, inst, model, size, switch_ms = event
            self._name_row(_tid(inst), f"instance {inst}")
            self._open_batches[inst] = (t, model, size)
            if switch_ms:
                self.complete("reprogram", t, switch_ms, _tid(inst),
                              model=model)
        elif kind == "free":  # serve: closes the instance's batch span
            _, _, inst = event
            opened = self._open_batches.pop(inst, None)
            if opened is not None:
                t0, model, size = opened
                self.complete("batch", t0, t - t0, _tid(inst),
                              model=model, size=size)
        elif kind == "step":  # generate: duration known at emission
            _, _, inst, model, admitted, decoding, duration = event
            self._name_row(_tid(inst), f"instance {inst}")
            self.complete("step", t, duration, _tid(inst), model=model,
                          admitted=admitted, decoding=decoding)
        elif kind == "admit":
            _, _, inst, rid, prompt, output = event
            self._name_row(_tid(inst), f"instance {inst}")
            self._open_seqs[rid] = (t, {"rid": rid, "instance": inst,
                                        "prompt_tokens": prompt,
                                        "output_tokens": output})
        elif kind == "resume":
            _, _, inst, rid, cached, remaining = event
            self._name_row(_tid(inst), f"instance {inst}")
            self._open_seqs[rid] = (t, {"rid": rid, "instance": inst,
                                        "cached": cached,
                                        "remaining": remaining,
                                        "resumed": True})
        elif kind == "finish":
            _, _, inst, rid = event
            self._close_seq(rid, t, "sequence")
        elif kind == "preempt":
            _, _, inst, rid = event
            self.instant("preempt", t, _tid(inst), rid=rid)
            self._close_seq(rid, t, "sequence (preempted)")
        elif kind == "fail":
            _, _, inst = event
            self._name_row(_tid(inst), f"instance {inst}")
            self._down_since[inst] = t
            self.instant("fail", t, _tid(inst))
            opened = self._open_batches.pop(inst, None)
            if opened is not None:  # serve: the in-flight batch aborted
                t0, model, size = opened
                self.complete("batch", t0, t - t0, _tid(inst),
                              model=model, size=size, aborted=True)
            # generate: displace every sequence span open on this row.
            for rid in [r for r, (_, args) in self._open_seqs.items()
                        if args.get("instance") == inst]:
                self._close_seq(rid, t, "sequence (failed over)")
        elif kind == "recover":
            _, _, inst = event
            t0 = self._down_since.pop(inst, None)
            if t0 is not None:
                self.complete("down", t0, t - t0, _tid(inst))
        # unknown kinds are ignored: new engine events must never crash
        # an attached recorder mid-run.

    __call__ = on_event

    def _close_seq(self, rid: int, t: float, name: str) -> None:
        opened = self._open_seqs.pop(rid, None)
        if opened is not None:
            t0, args = opened
            self.complete(name, t0, t - t0,
                          _tid(args.get("instance", -1)), **args)

    def finish(self, t_ms: float) -> None:
        """Close every span still open at the end of the run."""
        if self._finished:
            return
        self._finished = True
        for inst, (t0, model, size) in sorted(self._open_batches.items()):
            self.complete("batch", t0, t_ms - t0, _tid(inst),
                          model=model, size=size, unfinished=True)
        self._open_batches.clear()
        for rid in sorted(self._open_seqs):
            self._close_seq(rid, t_ms, "sequence (unfinished)")
        for inst, t0 in sorted(self._down_since.items()):
            self.complete("down", t0, t_ms - t0, _tid(inst))
        self._down_since.clear()

    # -- export ----------------------------------------------------------
    def to_chrome(self, run_config: Optional[Dict[str, Any]] = None) -> dict:
        """The run as a Chrome trace-event JSON object.

        ``run_config`` lands under ``metadata.run_config`` so an
        exported trace is correlatable with the run that produced it.
        """
        metadata: Dict[str, Any] = {
            "timebase": "1 trace us == 1 simulated ms"}
        if run_config is not None:
            metadata["run_config"] = dict(run_config)
        return {
            "traceEvents": list(self.events),
            "displayTimeUnit": "ms",
            "metadata": metadata,
        }

    def dump(self, path: os.PathLike,
             run_config: Optional[Dict[str, Any]] = None) -> None:
        """Write the Chrome trace JSON to ``path`` (raises ``OSError``
        for unwritable destinations — callers own the exit message)."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome(run_config), fh, indent=1)
            fh.write("\n")

    def __len__(self) -> int:
        return len(self.events)


def summarize_trace(doc: Dict[str, Any]) -> dict:
    """Aggregate one exported Chrome-trace document.

    ``doc`` is the parsed JSON a :meth:`TraceRecorder.dump` wrote (any
    trace-event document with a ``traceEvents`` list works).  Returns
    per-span-name totals, instant counts, the thread-row names, and
    the alert timeline (spans/instants on the alerts row), ready for
    ``repro obs trace-summary``.
    """
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError(
            "not a Chrome trace-event document: missing 'traceEvents' "
            "list")
    spans: Dict[str, Dict[str, float]] = {}
    instants: Dict[str, int] = {}
    threads: Dict[int, str] = {}
    alerts: List[Dict[str, Any]] = []
    for event in events:
        ph = event.get("ph")
        name = str(event.get("name", ""))
        tid = event.get("tid", 0)
        if ph == "M":
            if name == "thread_name":
                threads[tid] = event.get("args", {}).get("name", "")
            continue
        on_alert_row = tid == _TID_ALERTS
        if ph == "X":
            dur = float(event.get("dur", 0.0))
            agg = spans.setdefault(
                name, {"count": 0, "total_ms": 0.0, "max_ms": 0.0})
            agg["count"] += 1
            agg["total_ms"] += dur
            agg["max_ms"] = max(agg["max_ms"], dur)
            if on_alert_row:
                alerts.append({"name": name, "t_ms": float(event["ts"]),
                               "dur_ms": dur})
        elif ph == "i":
            instants[name] = instants.get(name, 0) + 1
            if on_alert_row:
                alerts.append({"name": name, "t_ms": float(event["ts"]),
                               "dur_ms": 0.0})
    alerts.sort(key=lambda a: (a["t_ms"], a["name"]))
    return {
        "events": len(events),
        "threads": {tid: threads[tid] for tid in sorted(threads)},
        "spans": {name: spans[name] for name in sorted(spans)},
        "instants": {name: instants[name] for name in sorted(instants)},
        "alerts": alerts,
        "metadata": doc.get("metadata", {}),
    }


def render_trace_summary(summary: dict, top: int = 10) -> str:
    """Text tables for a :func:`summarize_trace` result: the top spans
    by total simulated time, instant counts, and the alert timeline."""
    from ..analysis.tables import render_table

    if top < 0:  # a negative slice end would drop rows from the tail
        raise ValueError(f"top must be >= 0, got {top}")
    parts: List[str] = [
        f"{summary['events']} trace event(s) across "
        f"{len(summary['threads'])} row(s)"]
    spans = sorted(summary["spans"].items(),
                   key=lambda kv: (-kv[1]["total_ms"], kv[0]))[:top]
    if spans:
        parts.append(render_table(
            ("span", "count", "total ms", "mean ms", "max ms"),
            [(name, int(agg["count"]), agg["total_ms"],
              agg["total_ms"] / agg["count"], agg["max_ms"])
             for name, agg in spans],
            title=f"Top {len(spans)} span(s) by total simulated time"))
    if summary["instants"]:
        parts.append(render_table(
            ("instant", "count"),
            sorted(summary["instants"].items()),
            title="Instants"))
    if summary["alerts"]:
        parts.append(render_table(
            ("t_ms", "event", "duration ms"),
            [(a["t_ms"], a["name"], a["dur_ms"])
             for a in summary["alerts"]],
            title="Alert timeline"))
    else:
        parts.append("no alert annotations on this trace")
    return "\n\n".join(parts)
