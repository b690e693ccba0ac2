"""Record-level golden: every per-request record, field by field.

The six trace goldens pin the *rendered reports*; this suite pins the
records under them.  For each golden scenario (serve/generate x
poisson/bursty/diurnal) plus one fault-injected scenario per workload
class, it hashes every record's ``(field, value)`` pairs in rid order
and compares against ``tests/goldens/record_digests.json``.  The fault
scenarios are chosen so ``retries``, ``degraded`` and (for generation,
with priority admission) ``preemptions`` are non-zero, so a record type
that dropped or reordered those fields cannot pass.

Regenerate after an intentional behavior change with::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/sim/test_record_digests.py
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.serving import (
    LengthSampler,
    PoissonArrivals,
    attach_generation_lengths,
    attach_priorities,
    timeout,
)
from repro.serving.cluster import ClusterSimulator
from repro.serving.generation import GenerationClusterSimulator
from repro.sim import FailurePlan

from .test_trace_identity import GEN_SCENARIOS, MIX, SCENARIOS

GOLDEN = Path(__file__).parent.parent / "goldens" / "record_digests.json"

SERVE_FIELDS = ("rid", "model", "instance", "batch_size", "t_arrival_ms",
                "t_dispatch_ms", "t_complete_ms", "retries", "degraded")
GEN_FIELDS = ("rid", "model", "instance", "prompt_tokens", "output_tokens",
              "t_arrival_ms", "t_admit_ms", "t_first_token_ms",
              "t_complete_ms", "retries", "preemptions", "degraded")


def _serve_records(accel, requests, failures=None):
    sim = ClusterSimulator(
        accel, 3, scheduler="model-affinity", batching=timeout(4, 2.0),
        reprogram_latency_ms=5.0, failures=failures)
    return sim.run(requests).records


def _gen_requests(accel, arrivals):
    return attach_generation_lengths(
        arrivals,
        LengthSampler("uniform", 8, 24),
        LengthSampler("geometric", 4, 48, mean_extra=10.0),
        seed=77, max_total=accel.synth.max_seq_len)


def _gen_records(accel, requests, failures=None):
    sim = GenerationClusterSimulator(
        accel, 2, slots=4, scheduler="least-loaded",
        reprogram_latency_ms=3.0, failures=failures)
    return sim.run(requests).records


def _serve_scenario(name):
    def run(accel):
        return _serve_records(accel, SCENARIOS[name]().generate(600.0))
    return run


def _gen_scenario(name):
    def run(accel):
        return _gen_records(accel, _gen_requests(
            accel, GEN_SCENARIOS[name]().generate(500.0)))
    return run


def _serve_failures(accel):
    requests = PoissonArrivals(500, MIX, seed=111).generate(600.0)
    return _serve_records(accel, requests,
                          FailurePlan(mtbf_ms=120.0, mttr_ms=30.0, seed=3))


def _gen_failures(accel):
    requests = attach_priorities(
        _gen_requests(accel, PoissonArrivals(150, MIX, seed=444)
                      .generate(500.0)), 0.3, seed=9)
    return _gen_records(accel, requests,
                        FailurePlan(mtbf_ms=80.0, mttr_ms=20.0, seed=5))


#: scenario name -> (record field names, records factory).
CASES = {
    **{f"serve_{s}": (SERVE_FIELDS, _serve_scenario(s)) for s in SCENARIOS},
    **{f"generate_{s}": (GEN_FIELDS, _gen_scenario(s))
       for s in GEN_SCENARIOS},
    "serve_failures": (SERVE_FIELDS, _serve_failures),
    "generate_failures": (GEN_FIELDS, _gen_failures),
}


def record_digest(fields, records) -> dict:
    """The frozen summary of one scenario's records."""
    lines = "\n".join(repr(tuple((f, getattr(r, f)) for f in fields))
                      for r in records)
    out = {"records": len(records),
           "sha256": hashlib.sha256(lines.encode()).hexdigest()}
    for counter in ("retries", "preemptions"):
        if counter in fields:
            out[counter] = sum(getattr(r, counter) for r in records)
    out["degraded"] = sum(1 for r in records if r.degraded)
    return out


@pytest.fixture(scope="module")
def digests(default_accel):
    return {name: record_digest(fields, make(default_accel))
            for name, (fields, make) in CASES.items()}


@pytest.fixture(scope="module")
def golden(digests):
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True)
                          + "\n")
    assert GOLDEN.exists(), (
        f"{GOLDEN.name} missing — run with REPRO_REGEN_GOLDENS=1 to "
        "create it, then commit the file")
    return json.loads(GOLDEN.read_text())


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
