"""Record-level golden: every per-request record, field by field.

The six trace goldens pin the *rendered reports*; this suite pins the
records under them.  For each golden scenario (serve/generate x
poisson/bursty/diurnal) plus one fault-injected scenario per workload
class, it hashes every record's ``(field, value)`` pairs in rid order
and compares against ``tests/goldens/record_digests.json``.  The fault
scenarios are chosen so ``retries``, ``degraded`` and (for generation,
with priority admission) ``preemptions`` are non-zero, so a record type
that dropped or reordered those fields cannot pass.
"""

import pytest

from repro.serving import PoissonArrivals, attach_priorities
from repro.sim import FailurePlan

from .._goldens import load, sha256
from .test_trace_identity import CASES as RUNS
from .test_trace_identity import (GEN_SCENARIOS, MIX, SCENARIOS, gen_requests,
                                  gen_sim, serve_sim)

SERVE_FIELDS = ("rid", "model", "instance", "batch_size", "t_arrival_ms",
                "t_dispatch_ms", "t_complete_ms", "retries", "degraded")
GEN_FIELDS = ("rid", "model", "instance", "prompt_tokens", "output_tokens",
              "t_arrival_ms", "t_admit_ms", "t_first_token_ms",
              "t_complete_ms", "retries", "preemptions", "degraded")


def _serve_failures(accel):
    requests = PoissonArrivals(500, MIX, seed=111).generate(600.0)
    return serve_sim(accel, FailurePlan(mtbf_ms=120.0, mttr_ms=30.0,
                                        seed=3)), requests


def _gen_failures(accel):
    requests = attach_priorities(
        gen_requests(accel, PoissonArrivals(150, MIX, seed=444)
                     .generate(500.0)), 0.3, seed=9)
    return gen_sim(accel, FailurePlan(mtbf_ms=80.0, mttr_ms=20.0,
                                      seed=5)), requests


#: scenario name -> (record field names, ``accel -> (simulator,
#: requests)``); the six golden scenarios run as the trace goldens do.
CASES = {
    **{f"serve_{s}": (SERVE_FIELDS, RUNS[f"serve_{s}"]) for s in SCENARIOS},
    **{f"generate_{s}": (GEN_FIELDS, RUNS[f"generate_{s}"])
       for s in GEN_SCENARIOS},
    "serve_failures": (SERVE_FIELDS, _serve_failures),
    "generate_failures": (GEN_FIELDS, _gen_failures),
}


def record_digest(fields, records) -> dict:
    """The frozen summary of one scenario's records."""
    lines = "\n".join(repr(tuple((f, getattr(r, f)) for f in fields))
                      for r in records)
    out = {"records": len(records), "sha256": sha256(lines)}
    for counter in ("retries", "preemptions"):
        if counter in fields:
            out[counter] = sum(getattr(r, counter) for r in records)
    out["degraded"] = sum(1 for r in records if r.degraded)
    return out


@pytest.fixture(scope="module")
def digests(default_accel):
    out = {}
    for name, (fields, make) in CASES.items():
        sim, requests = make(default_accel)
        out[name] = record_digest(fields, sim.run(requests).records)
    return out


@pytest.fixture(scope="module")
def golden(digests):
    return load("record_digests.json", lambda: digests)


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_match_frozen_digest(digests, golden, name):
    assert digests[name] == golden[name]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", ["serve_failures", "generate_failures"])
def test_failure_cases_exercise_fault_fields(digests, name):
    """The fault scenarios must populate the fault-only fields."""
    d = digests[name]
    assert d["retries"] > 0 and d["degraded"] > 0
    if name.startswith("generate"):
        assert d["preemptions"] > 0
