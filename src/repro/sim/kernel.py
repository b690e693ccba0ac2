"""The event-driven simulation kernel every simulator runs on.

Before this module existed, :mod:`repro.serving.cluster` and
:mod:`repro.serving.generation` each hand-rolled their own heap loop,
so every new scenario (failures, heterogeneity, preemption) had to be
implemented twice and proven deterministic twice.  The kernel factors
the shared mechanics into one place:

* :class:`EventQueue` — a binary heap of ``(t_ms, priority, seq,
  payload)`` tuples.  Ties at equal timestamps break on ``(priority,
  insertion sequence)``, so a run is a *pure function* of its inputs —
  the property behind the trace-identity golden tests.
* :class:`Simulation` — the engine base: the queue, simulated time
  (``now_ms``), the trace buffer, the per-component RNG streams, the
  observer/profiler hooks, and the drain that merges a pre-sorted
  arrival stream against the queue (:meth:`Simulation._drain_merged`).
  Entities are plain mutable objects carried by reference inside
  payloads — no registry, no base class.

Determinism contract
--------------------
The kernel never reads wall-clock time or global RNG state.  All
randomness flows through :class:`~repro.sim.rng.RngStreams`, which
derives one independent ``random.Random`` per named component from the
root seed — adding a new consumer (e.g. failure injection) cannot
perturb the draws of an existing one.  Two runs with equal inputs
therefore produce byte-identical traces, records, and reports.

Observability hooks
-------------------
:meth:`Simulation.attach_observer` registers a read-only callable (for
example :class:`repro.obs.TraceRecorder` or
:class:`repro.obs.MetricsSampler`) that receives every trace tuple as
it is emitted; :meth:`Simulation.attach_profiler` registers a
:class:`repro.obs.KernelProfiler` that attributes wall time per event
kind.  Both are strictly optional: when nothing is attached the engines
run the exact pre-hook fast path, and because observers only *read*
event tuples, an instrumented run stays byte-identical to a bare one.
Hooks must be attached before the run starts — attaching mid-run would
make the observed stream a lie, so it raises ``RuntimeError``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from time import perf_counter
from typing import Callable, List, Optional, Tuple

from .rng import RngStreams

__all__ = ["Event", "EventQueue", "Simulation"]

#: One scheduled event: ``(t_ms, priority, seq, payload)``.  ``payload``
#: is a tuple whose first element names the event kind.
Event = Tuple[float, int, int, tuple]


class EventQueue:
    """Deterministic binary-heap event queue.

    Events at equal ``t_ms`` pop in ``(priority, seq)`` order; ``seq``
    comes from one insertion counter, so two pushes at the same time
    and priority pop in push order.  That total order is what makes
    replays of a seeded scenario bit-identical.

    :attr:`head` always holds the next event (``None`` when empty):
    the engines that merge an external sorted stream against the queue
    peek the merge frontier with one attribute load, and :meth:`pop`
    returns exactly ``head``.
    """

    __slots__ = ("head", "_heap", "_seq")

    def __init__(self) -> None:
        self.head: Optional[Event] = None
        self._heap: List[Event] = []
        self._seq = count()

    def push(self, t_ms: float, priority: int, payload: tuple) -> None:
        """Schedule ``payload`` at ``t_ms`` (stable within a priority)."""
        heap = self._heap
        heappush(heap, (t_ms, priority, next(self._seq), payload))
        self.head = heap[0]

    def pop(self) -> Event:
        """Remove and return :attr:`head` (``IndexError`` when empty)."""
        heap = self._heap
        event = heappop(heap)
        self.head = heap[0] if heap else None
        return event

    def __len__(self) -> int:
        return len(self._heap)


class Simulation:
    """Deterministic event loop over a kernel event queue.

    The loop is deliberately minimal — pop, set ``now_ms``, dispatch —
    because the engines bind their own bookkeeping around it; what
    they share is the queue discipline, simulated time, the trace
    buffer, the per-component RNG streams, and the merged arrival
    drain (:meth:`_drain_merged`), profiled or not.
    """

    def __init__(self, seed: int = 0) -> None:
        self.queue = EventQueue()
        #: Simulated time in milliseconds, monotone by pop order.
        self.now_ms = 0.0
        self.rng = RngStreams(seed)
        #: Flat event log ``(kind, t_ms, ...)`` — the replayable trace.
        self.trace: List[tuple] = []
        #: Optional read-only consumer of every emitted trace tuple.
        self.observer: Optional[Callable[[tuple], None]] = None
        #: Optional per-event-kind wall-time profiler.
        self.profiler = None
        self._started = False

    def attach_observer(self, observer: Callable[[tuple], None]) -> None:
        """Attach a trace-tuple consumer (before the run starts).

        The observer is called with every tuple the engine emits — the
        ones appended to :attr:`trace` plus observer-only bookkeeping
        events such as ``("requeue", ...)`` — and, if it defines a
        ``finish(t_ms)`` method, that is called once the run drains.
        Attaching after the run has started raises ``RuntimeError``:
        the stream would be missing its prefix.
        """
        if self._started:
            raise RuntimeError(
                "cannot attach an observer mid-run: the event stream "
                "already started; attach before run()")
        self.observer = (observer if self.observer is None
                         else _compose2(self.observer, observer))

    def attach_profiler(self, profiler) -> None:
        """Attach a kernel hotspot profiler (before the run starts).

        ``profiler.record(kind, elapsed_s)`` is called for every
        dispatched event with the handler's wall time.  Mid-run
        attachment raises ``RuntimeError`` like observers do.
        """
        if self._started:
            raise RuntimeError(
                "cannot attach a profiler mid-run: events were already "
                "dispatched unprofiled; attach before run()")
        self.profiler = profiler

    def _finish_observer(self) -> None:
        """Flush an attached observer once simulated time stops."""
        if self.observer is not None:
            fin = getattr(self.observer, "finish", None)
            if fin is not None:
                fin(self.now_ms)

    def _drain_merged(self, arrivals, on_arrival, handle,
                      p_first: int) -> None:
        """Drain the queue merged against a pre-sorted arrival stream.

        The hot engines never push arrivals: a stable sort by ``t_ms``
        is exactly the order the heap would pop them in (equal-time
        arrivals keep input order, the same-priority ``seq``
        tie-break).  An engine event pops ahead of the next arrival
        only when strictly earlier, or at the same timestamp with
        priority ``p_first`` — the engine's one priority below
        arrivals; every other engine event at an arrival's timestamp
        sorts after it, exactly as in the heap.

        ``on_arrival(req, now)`` and ``handle(payload, now)`` are the
        engine's event switch.  An attached profiler wraps both once in
        timing closures — the loop itself has no profiled twin.
        """
        self._started = True
        if self.profiler is not None:
            on_arrival, handle = _timed(self.profiler.record, on_arrival,
                                        handle)
        queue = self.queue
        pop = queue.pop
        for req in arrivals:
            ta = req.t_ms
            head = queue.head
            while head is not None and (
                    head[0] < ta or (head[0] == ta and head[1] == p_first)):
                now, _prio, _seq, payload = pop()
                self.now_ms = now
                handle(payload, now)
                head = queue.head
            self.now_ms = ta
            on_arrival(req, ta)
        while queue.head is not None:
            now, _prio, _seq, payload = pop()
            self.now_ms = now
            handle(payload, now)
        self._finish_observer()


def _timed(record, on_arrival, handle):
    """Wrap an event switch so ``record(kind, elapsed_s)`` sees every
    dispatch (arrivals attribute to the ``"arrival"`` kind)."""
    def timed_arrival(req, now: float) -> None:
        t0 = perf_counter()
        on_arrival(req, now)
        record("arrival", perf_counter() - t0)

    def timed_handle(payload: tuple, now: float) -> None:
        t0 = perf_counter()
        handle(payload, now)
        record(payload[0], perf_counter() - t0)

    return timed_arrival, timed_handle


def _compose2(first: Callable[[tuple], None],
              second: Callable[[tuple], None]) -> Callable[[tuple], None]:
    """Chain two observers (kept local to avoid importing repro.obs)."""
    def both(event: tuple) -> None:
        first(event)
        second(event)

    def finish(t_ms: float) -> None:
        for part in (first, second):
            fin = getattr(part, "finish", None)
            if fin is not None:
                fin(t_ms)

    both.finish = finish
    return both
