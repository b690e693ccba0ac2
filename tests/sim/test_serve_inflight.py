"""An arrival just before a pending completion must not overwrite it.

The serve engine counts an instance idle once its busy window ends
within ``_EPS`` of now.  An arrival landing in that window, routed to
an instance whose completion event has not fired yet, must wait for
that event: dispatching at once would replace the in-flight batch,
losing its requests and crashing the engine on the stale free event.
Every drain — the shared handlers at full and summary detail (the
latter used when an observer listens) and the inlined web-scale
summary drain — queues the arrival and dispatches it when the pending
batch frees.
"""

import pytest

from repro.serving import no_batching, summarize
from repro.serving.cluster import ClusterSimulator
from repro.serving.workload import Request

MODEL = "model2-lhc-trigger"


def _run(accel, requests, detail, observer=None):
    sim = ClusterSimulator(accel, 1, scheduler="least-loaded",
                           batching=no_batching())
    return sim.run(requests, detail=detail, observer=observer)


@pytest.fixture(scope="module")
def workload(default_accel):
    first = [Request(rid=0, t_ms=0.0, model=MODEL)]
    t_done = _run(default_accel, first, "full").records[0].t_complete_ms
    return t_done, first + [Request(rid=1, t_ms=t_done - 1e-10, model=MODEL)]


def test_full_detail_waits_for_the_pending_completion(default_accel,
                                                      workload):
    t_done, requests = workload
    result = _run(default_accel, requests, "full")
    records = sorted(result.records, key=lambda r: r.rid)
    assert [r.rid for r in records] == [0, 1]
    assert records[0].t_complete_ms == t_done
    assert records[1].t_dispatch_ms == t_done
    assert records[1].t_complete_ms == pytest.approx(2 * t_done)
    assert [i.batches for i in result.instances] == [2]
    assert result.instances[0].busy_ms == pytest.approx(2 * t_done)


@pytest.mark.parametrize("observed", (False, True))
def test_summary_detail_matches_full(default_accel, workload, observed):
    _, requests = workload
    events = []
    summary = _run(default_accel, requests, "summary",
                   observer=events.append if observed else None)
    full = summarize(_run(default_accel, requests, "full"))
    assert summarize(summary) == full
    assert full.total_requests == 2
    if observed:
        assert sum(1 for e in events if e[0] == "dispatch") == 2
