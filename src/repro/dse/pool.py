"""Persistent evaluation workers: fork once, stream compact point batches.

The original engine created a fresh ``multiprocessing.Pool`` for every
:func:`~repro.dse.engine.explore` call and pickled the evaluator plus
the full settings dict into *every task* — per-sweep spawn and
per-point serialization that ``BENCH_results.json`` shows eating the
entire parallel win (``dse_parallel_speedup_x`` 0.60–0.99x in every
recorded run since PR 3).  This module is the fix:

* a :class:`PersistentPool` forks its workers **once per
  exploration** and ships the evaluator, the shared settings, and the
  error policy a single time, at spawn;
* thereafter only compact point batches travel parent → worker and
  scored batches travel back — a worker builds its evaluator stack
  (for the standard evaluator: the synthesis memo, model zoo, latency
  tables) on first use and amortizes it over every batch it is handed;
* dispatch is dynamic (next pending batch to the first idle worker)
  but results are assembled **by batch index**, so worker interleaving
  can never reorder, duplicate, or drop a point: a pooled sweep is
  byte-identical to a serial one.

A worker that dies mid-batch (the evaluator calls ``os._exit``,
segfaults, is OOM-killed) fails only the batch it was holding: those
points come back as ``worker died`` error records, a replacement
worker is forked into the slot, and the sweep completes.  The cache is
never touched here — the parent is the cache's single writer, and
workers only ever see points the parent already knows are uncached.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["PersistentPool"]

#: One scored point as a worker reports it: (metrics, error, wall_s).
PointResult = Tuple[Dict[str, Any], str, float]


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _score_point(evaluator: Callable, point: Dict[str, Any],
                 settings: Dict[str, Any],
                 continue_on_error: bool) -> PointResult:
    """Score one point: the one per-point rule of the serial path and
    of every worker.

    With ``continue_on_error`` an evaluator exception becomes the
    point's error string; otherwise it propagates.  ``wall_s`` is the
    evaluator's own run time, profiling data that never feeds the
    scores.
    """
    t0 = time.perf_counter()
    try:
        metrics, error = dict(evaluator(point, settings)), ""
    except Exception as exc:  # noqa: BLE001 - DSE tolerates corners
        if not continue_on_error:
            raise
        metrics, error = {}, _error_text(exc)
    return metrics, error, time.perf_counter() - t0


def _worker_main(conn, evaluator: Callable, settings: Dict[str, Any],
                 continue_on_error: bool) -> None:
    """Worker loop: evaluate point batches until told to stop.

    The evaluator and settings arrive exactly once, as spawn arguments
    — every later message is just ``("eval", batch_index, points)``.
    With ``continue_on_error`` evaluator exceptions become per-point
    error strings; otherwise the exception object itself is sent back
    for the parent to re-raise.
    """
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            _, batch_index, points = message
            results: List[PointResult] = []
            for point in points:
                try:
                    results.append(_score_point(evaluator, point, settings,
                                                continue_on_error))
                except Exception as exc:  # noqa: BLE001 - sent to parent
                    try:
                        conn.send(("raise", batch_index, exc))
                    except Exception:  # noqa: BLE001 - unpicklable exc
                        conn.send(("raise", batch_index, _error_text(exc)))
                    return
            try:
                conn.send(("done", batch_index, results))
            except Exception as exc:  # noqa: BLE001 - unpicklable metrics
                conn.send(("done", batch_index,
                           [({}, _error_text(exc), 0.0) for _ in points]))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent went away — nothing left to report to
    finally:
        conn.close()


class _Worker:
    """One pool slot: its process, parent-side pipe, and stable label."""

    __slots__ = ("slot", "process", "conn")

    def __init__(self, slot: int, process, conn) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn

    @property
    def label(self) -> str:
        return f"worker-{self.slot}"


class PersistentPool:
    """A fixed-size pool of persistent evaluator processes.

    ``jobs`` workers are forked at construction; each receives
    ``(evaluator, settings, continue_on_error)`` once and then serves
    ``map_batches`` calls until :meth:`close`.  The pool survives
    across every batch of one exploration, so per-process state the
    evaluator builds (synthesis memos, model caches) is paid once.
    """

    def __init__(self, evaluator: Callable, settings: Mapping[str, Any],
                 *, jobs: int, continue_on_error: bool = True) -> None:
        if jobs < 2:
            raise ValueError(f"a pool needs jobs >= 2, got {jobs}")
        self._ctx = multiprocessing.get_context()
        self._evaluator = evaluator
        self._settings = dict(settings)
        self._continue_on_error = continue_on_error
        self.jobs = jobs
        #: Workers replaced after dying mid-batch (diagnostics only).
        self.respawns = 0
        self._closed = False
        self._workers = [self._spawn(slot) for slot in range(jobs)]

    # ------------------------------------------------------------------
    def _spawn(self, slot: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._evaluator, self._settings,
                  self._continue_on_error),
            name=f"dse-worker-{slot}", daemon=True)
        process.start()
        child_conn.close()
        return _Worker(slot, process, parent_conn)

    def _replace(self, worker: _Worker) -> _Worker:
        """Fork a fresh worker into a dead worker's slot."""
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=1.0)
        self.respawns += 1
        fresh = self._spawn(worker.slot)
        self._workers[worker.slot] = fresh
        return fresh

    def _dead_batch(self, worker: _Worker,
                    points: Sequence[Mapping[str, Any]]
                    ) -> Tuple[str, List[PointResult]]:
        worker.process.join(timeout=1.0)
        code = worker.process.exitcode
        error = (f"worker died: {worker.label} exited with code {code} "
                 "while evaluating this batch")
        return worker.label, [({}, error, 0.0) for _ in points]

    # ------------------------------------------------------------------
    def map_batches(self, batches: Sequence[Sequence[Dict[str, Any]]]
                    ) -> List[Tuple[str, List[PointResult]]]:
        """Evaluate every batch; return ``(worker_label, results)`` per
        batch, aligned with the input order.

        Dispatch is work-stealing dynamic — the next pending batch goes
        to the first idle worker — but the return value is indexed by
        batch, so scheduling nondeterminism never reaches the results.
        A batch whose worker dies is *not* retried (a deterministic
        crasher would loop forever): its points come back as error
        records and a replacement worker takes the slot.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        pending = deque(enumerate(batches))
        out: List[Tuple[str, List[PointResult]]] = [None] * len(batches)
        inflight: Dict[Any, Tuple[_Worker, int]] = {}
        idle = list(self._workers)
        while pending or inflight:
            while pending and idle:
                worker = idle.pop(0)
                batch_index, points = pending.popleft()
                try:
                    worker.conn.send(("eval", batch_index, list(points)))
                except (OSError, ValueError):
                    # Died while idle: nothing of this batch ran yet, so
                    # one respawn-and-resend is safe (not a retry loop).
                    worker = self._replace(worker)
                    try:
                        worker.conn.send(("eval", batch_index, list(points)))
                    except (OSError, ValueError):
                        out[batch_index] = self._dead_batch(worker, points)
                        idle.append(self._replace(worker))
                        continue
                inflight[worker.conn] = (worker, batch_index)
            if not inflight:
                continue
            for conn in connection.wait(list(inflight)):
                worker, batch_index = inflight.pop(conn)
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    out[batch_index] = self._dead_batch(
                        worker, batches[batch_index])
                    idle.append(self._replace(worker))
                    continue
                if message[0] == "raise":
                    payload = message[2]
                    if isinstance(payload, BaseException):
                        raise payload
                    raise RuntimeError(
                        f"evaluator raised in {worker.label}: {payload}")
                out[batch_index] = (worker.label, message[2])
                idle.append(worker)
        return out

    # ------------------------------------------------------------------
    def close(self, force: bool = False) -> None:
        """Stop every worker (``force`` terminates instead of asking)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if force:
                worker.process.terminate()
                continue
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(force=exc_type is not None)
