"""Pick equivalence of the serve engine's least-loaded load index.

On an unrestricted, fault-free fleet the serve engine answers a
least-loaded pick from a bucketed load index instead of scanning every
instance.  The scan it replaces counts an instance busy while
``busy_until > now + _EPS``; the index counts it busy while a batch is
in flight.  The two disagree only while a completion lies in
``(now, now + _EPS]``, and there the engine falls back to the scan.

* The unit test drives random load transitions through the index and
  checks every pick against the brute-force first argmin.
* The engine test builds workloads whose arrivals land exactly on, and
  within 1e-10 ms of, batch completions, which puts completions inside
  the ``_EPS`` window of an arrival.  Full detail (the shared
  handlers) and summary detail (the inlined ``_run_fast`` drain, with
  or without a timeout) must reproduce digests frozen from the scan,
  at fleets of 1, 16 and 64.

Regenerate after an intentional behavior change with::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/sim/test_serve_load_index.py
"""

import hashlib
import json
import os
import random
from pathlib import Path

import pytest

from repro.serving import ModelMix, PoissonArrivals, fixed_size, timeout
from repro.serving.cluster import ClusterSimulator
from repro.serving.workload import Request

GOLDEN = Path(__file__).parent.parent / "goldens" / "serve_pick_eps.json"
MODEL = "model2-lhc-trigger"
EPS = 1e-9
FLEETS = (1, 16, 64)
#: Both policies run the shared per-event handlers at full detail and
#: the inlined ``_run_fast`` drain at summary detail; timeout batching
#: adds its deadline checks to that drain.
POLICIES = {"timeout": lambda: timeout(4, 2.0), "fixed": lambda: fixed_size(4)}
ROUNDS = 10


def _sim(accel, n, policy):
    return ClusterSimulator(accel, n, scheduler="least-loaded",
                            batching=POLICIES[policy]())


def eps_workload(accel, n: int, policy: str):
    """A light Poisson stream plus arrivals placed on completions.

    Each round re-runs the workload built so far and places arrivals
    around the first batch completion ``T`` past a moving floor;
    later rounds only add later arrivals, so every earlier placement
    stays on a real completion of the final run.

    * timeout: at ``T - 1e-10``, ``T`` and ``T + 1e-10``.  An arrival
      just before ``T`` may join the completing instance, which then
      waits for its batch timeout rather than dispatching.
    * fixed: at ``T`` and ``T + 5e-10`` — two idle instances start
      back-to-back batches that complete ``5e-10`` ms apart — and then
      at the first of those completions plus 1e-10.  The no-timeout
      policy dispatches on arrival, so nothing is placed just *before*
      a completion: an arrival there waits for the pending free event,
      a case ``test_serve_inflight.py`` covers on its own.
    """
    horizon = 1000.0 / n
    reqs = list(PoissonArrivals(300.0 * n, ModelMix(MODEL),
                                seed=n).generate(horizon))
    rid = len(reqs)

    def add(t_ms):
        nonlocal rid
        reqs.append(Request(rid=rid, t_ms=t_ms, model=MODEL))
        rid += 1
        return rid - 1

    for k in range(ROUNDS):
        floor = horizon * (k + 1) / (ROUNDS + 1)
        records = _sim(accel, n, policy).run(reqs).records
        t_done = min(r.t_complete_ms for r in records
                     if r.t_complete_ms > floor)
        if policy == "timeout":
            for offset in (-1e-10, 0.0, 1e-10):
                add(t_done + offset)
        else:
            first = add(t_done)
            add(t_done + 5e-10)
            records = _sim(accel, n, policy).run(reqs).records
            add(records[first].t_complete_ms + 1e-10)
    reqs.sort(key=lambda r: r.t_ms)
    return reqs


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def eps_hits(full) -> int:
    """Arrivals with a completion pending in ``(t, t + EPS]``."""
    frees = [e[1] for e in full.trace if e[0] == "free"]
    hits = 0
    for event in full.trace:
        if event[0] == "arrive":
            t = event[1]
            hits += any(t < f <= t + EPS for f in frees)
    return hits


@pytest.fixture(scope="module")
def runs(default_accel):
    out = {}
    for n in FLEETS:
        for policy in POLICIES:
            reqs = eps_workload(default_accel, n, policy)
            sim = _sim(default_accel, n, policy)
            out[f"{policy}/{n}"] = (reqs, sim.run(reqs),
                                    sim.run(reqs, detail="summary"))
    return out


@pytest.fixture(scope="module")
def golden(runs):
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        frozen = {
            key: {"requests": len(reqs), "eps_hits": eps_hits(full),
                  "full_sha256": _sha256((full.records, full.trace,
                                          full.queue_samples,
                                          full.instances)),
                  "summary_sha256": _sha256(summary)}
            for key, (reqs, full, summary) in runs.items()}
        GOLDEN.write_text(json.dumps(frozen, indent=1, sort_keys=True)
                          + "\n")
    assert GOLDEN.exists(), (
        f"{GOLDEN.name} missing — run with REPRO_REGEN_GOLDENS=1 to "
        "create it, then commit the file")
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("n", FLEETS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_engine_matches_scan_digests(runs, golden, policy, n):
    key = f"{policy}/{n}"
    reqs, full, summary = runs[key]
    frozen = golden[key]
    assert len(reqs) == frozen["requests"]
    assert len(full.records) == len(reqs)
    assert eps_hits(full) == frozen["eps_hits"]
    assert _sha256((full.records, full.trace, full.queue_samples,
                    full.instances)) == frozen["full_sha256"]
    assert _sha256(summary) == frozen["summary_sha256"]


@pytest.mark.parametrize("n", FLEETS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_workload_reaches_the_eps_fallback(runs, policy, n):
    """The placed arrivals really see a completion inside ``_EPS``.

    A single instance under the no-timeout policy is the exception: it
    can only have one completion pending, and an arrival just before
    it is exactly what the workload must avoid.
    """
    hits = eps_hits(runs[f"{policy}/{n}"][1])
    if policy == "fixed" and n == 1:
        assert hits == 0
    else:
        assert hits > 0


class _Stub:
    """The two fields the index reads off an engine instance."""

    def __init__(self):
        self.queue = []
        self.in_flight = None


def _first_argmin(insts):
    loads = [len(i.queue) + (i.in_flight is not None) for i in insts]
    return insts[loads.index(min(loads))]


@pytest.mark.parametrize("n", (1, 2, 7, 64, 130))
def test_index_best_is_first_argmin(n):
    from repro.sim.serve import _LoadIndex

    rng = random.Random(n)
    insts = [_Stub() for _ in range(n)]
    index = _LoadIndex(insts)
    assert index.best() is insts[0]
    for _ in range(4000):
        inst = rng.choice(insts)
        move = rng.random()
        if move < 0.45:
            inst.queue.append(0)
        elif move < 0.7 and inst.queue:
            del inst.queue[:rng.randint(1, len(inst.queue))]
        elif move < 0.85:
            inst.in_flight = None if inst.in_flight else (0,)
        else:
            inst.queue[:] = [0] * rng.randint(0, 40)  # arbitrary jump
        index.update(inst)
        assert index.best() is _first_argmin(insts)


def test_index_skips_empty_levels():
    from repro.sim.serve import _LoadIndex

    insts = [_Stub() for _ in range(5)]
    index = _LoadIndex(insts)
    for depth, inst in zip((9, 7, 12, 7, 30), insts):
        inst.queue[:] = [0] * depth
        index.update(inst)
    # Levels 0..6 are now empty: the pick climbs past them to the
    # first instance at level 7.
    assert index.best() is insts[1]
    insts[1].queue.clear()
    index.update(insts[1])
    assert index.best() is insts[1]
    insts[1].queue[:] = [0] * 50
    index.update(insts[1])
    assert index.best() is insts[3]
