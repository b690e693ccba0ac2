"""Full-detail ``summarize`` against a per-record reference reduction.

:func:`~repro.serving.slo.summarize` and
:func:`~repro.serving.slo.summarize_generation` read record fields
column-wise and sort each latency multiset once.  This suite keeps a
test-local copy of the straightforward per-record reduction — filter
the records per model, read each derived property per record, sort per
percentile — and asserts ``json.dumps(report.as_dict())`` is
byte-identical between the two on seeded random scenarios: one and
several models, fault injection on and off (``p99_degraded_ms``,
``degraded_count``), an SLO set or not (attainment, goodput), and an
empty run.

It also pins the record API: records are immutable, hashable,
constructible by keyword with defaults, and each derived property is
its field arithmetic.
"""

import json
import math
import random

import pytest

from repro.serving import (
    GenerationRecord,
    LengthSampler,
    ModelMetrics,
    ModelMix,
    PoissonArrivals,
    RequestRecord,
    ServingReport,
    attach_generation_lengths,
    attach_priorities,
    fixed_size,
    no_batching,
    summarize,
    summarize_generation,
    timeout,
)
from repro.serving.cluster import ClusterSimulator
from repro.serving.generation import GenerationClusterSimulator
from repro.serving.slo import GenerationServingReport
from repro.sim import FailurePlan

MODELS = ("model2-lhc-trigger", "model1-peng-isqed21", "model3-efa-trans")


# --------------------------------------------------------------------
# Reference reduction: one property call per record, one sort per
# percentile, one filter per model.
def _percentile(values, q):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def _pct(values, q):
    return _percentile(values, q) if values else math.nan


def _time_weighted_mean(samples, horizon_ms):
    if not samples or horizon_ms <= 0:
        return 0.0
    area, depth, prev_t = 0.0, 0, 0.0
    for t, d in samples:
        area += depth * (t - prev_t)
        depth, prev_t = d, t
    area += depth * max(0.0, horizon_ms - prev_t)
    return area / horizon_ms


def reference_summarize(result, slo_ms=None):
    recs = result.records
    horizon = result.makespan_ms
    horizon_s = horizon / 1e3 if horizon > 0 else math.nan
    latencies = [r.latency_ms for r in recs]

    def attainment(lats):
        if slo_ms is None or not lats:
            return None
        return sum(1 for v in lats if v <= slo_ms) / len(lats)

    per_model = {}
    for model in sorted({r.model for r in recs}):
        mrecs = [r for r in recs if r.model == model]
        lats = [r.latency_ms for r in mrecs]
        per_model[model] = ModelMetrics(
            model=model,
            count=len(mrecs),
            throughput_rps=len(mrecs) / horizon_s,
            mean_latency_ms=sum(lats) / len(lats),
            p50_ms=_percentile(lats, 50),
            p95_ms=_percentile(lats, 95),
            p99_ms=_percentile(lats, 99),
            mean_wait_ms=sum(r.wait_ms for r in mrecs) / len(mrecs),
            mean_batch_size=sum(r.batch_size for r in mrecs) / len(mrecs),
            slo_attainment=attainment(lats),
        )

    degraded_count = p99_degraded = None
    if result.availability is not None:
        touched = [r.latency_ms for r in recs if r.degraded or r.retries]
        degraded_count = sum(1 for r in recs if r.degraded)
        p99_degraded = (_percentile(touched, 99) if touched
                        else _pct(latencies, 99))

    busy = sum(i.busy_ms for i in result.instances)
    return ServingReport(
        total_requests=len(recs),
        horizon_ms=horizon,
        throughput_rps=len(recs) / horizon_s if recs else 0.0,
        utilization=(busy / (result.n_instances * horizon)
                     if horizon > 0 else 0.0),
        mean_latency_ms=(sum(latencies) / len(latencies)
                         if latencies else math.nan),
        p50_ms=_pct(latencies, 50),
        p95_ms=_pct(latencies, 95),
        p99_ms=_pct(latencies, 99),
        mean_wait_ms=(sum(r.wait_ms for r in recs) / len(recs)
                      if recs else math.nan),
        mean_queue_depth=_time_weighted_mean(result.queue_samples, horizon),
        max_queue_depth=max((d for _, d in result.queue_samples), default=0),
        total_switches=result.total_switches,
        total_reprogram_time_ms=result.total_reprogram_time_ms,
        scheduler=result.scheduler,
        batching=result.batching,
        n_instances=result.n_instances,
        slo_ms=slo_ms,
        slo_attainment=attainment(latencies),
        per_model=per_model,
        instances=list(result.instances),
        availability=result.availability,
        total_failures=result.total_failures,
        total_retries=result.total_retries,
        degraded_count=degraded_count,
        p99_degraded_ms=p99_degraded,
    )


def reference_summarize_generation(result, ttft_slo_ms=None,
                                   tpot_slo_ms=None):
    recs = result.records
    horizon = result.makespan_ms
    horizon_s = horizon / 1e3 if horizon > 0 else math.nan
    ttfts = [r.ttft_ms for r in recs]
    tpots = [r.tpot_ms for r in recs if r.output_tokens > 1]
    lats = [r.latency_ms for r in recs]

    def meets(r):
        if ttft_slo_ms is not None and r.ttft_ms > ttft_slo_ms:
            return False
        if (tpot_slo_ms is not None and r.output_tokens > 1
                and r.tpot_ms > tpot_slo_ms):
            return False
        return True

    slo_active = ttft_slo_ms is not None or tpot_slo_ms is not None
    good = [r for r in recs if meets(r)] if slo_active else []
    busy = sum(i.busy_ms for i in result.instances)

    def mean(xs):
        return sum(xs) / len(xs) if xs else math.nan

    return GenerationServingReport(
        total_requests=len(recs),
        total_tokens=result.total_tokens,
        horizon_ms=horizon,
        throughput_rps=len(recs) / horizon_s if recs else 0.0,
        tokens_per_s=(result.total_tokens / horizon_s if recs else 0.0),
        utilization=(busy / (result.n_instances * horizon)
                     if horizon > 0 else 0.0),
        mean_ttft_ms=mean(ttfts),
        p50_ttft_ms=_pct(ttfts, 50),
        p95_ttft_ms=_pct(ttfts, 95),
        p99_ttft_ms=_pct(ttfts, 99),
        mean_tpot_ms=mean(tpots),
        p99_tpot_ms=_pct(tpots, 99),
        mean_latency_ms=mean(lats),
        p99_latency_ms=_pct(lats, 99),
        mean_wait_ms=mean([r.wait_ms for r in recs]),
        mean_queue_depth=_time_weighted_mean(result.queue_samples, horizon),
        total_switches=result.total_switches,
        total_reprogram_time_ms=result.total_reprogram_time_ms,
        scheduler=result.scheduler,
        n_instances=result.n_instances,
        slots=result.slots,
        ttft_slo_ms=ttft_slo_ms,
        tpot_slo_ms=tpot_slo_ms,
        slo_attainment=(len(good) / len(recs)
                        if slo_active and recs else None),
        goodput_tokens_per_s=(
            sum(r.output_tokens for r in good) / horizon_s
            if slo_active and recs else None),
        instances=list(result.instances),
        availability=result.availability,
        total_failures=result.total_failures,
        total_retries=result.total_retries,
        total_preemptions=result.total_preemptions,
    )


def _dumps(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True)


# --------------------------------------------------------------------
# Seeded random scenarios.
N_SCENARIOS = 16


def _mix(rng, multi):
    if not multi:
        return ModelMix(rng.choice(MODELS))
    return ModelMix({m: rng.uniform(0.5, 3.0) for m in MODELS})


def serve_scenario(index, accel):
    """(simulator, requests, slo_ms) of serve oracle scenario ``index``."""
    rng = random.Random(104729 * index + 17)
    multi, failing, slo = index % 2 == 1, (index // 2) % 2 == 1, index % 3
    n = rng.choice((1, 2, 3, 4, 8))
    requests = PoissonArrivals(rng.uniform(150.0, 500.0) * n,
                               _mix(rng, multi), seed=index).generate(
        rng.uniform(200.0, 600.0))
    batching = rng.choice((no_batching(), fixed_size(4), timeout(8, 2.0)))
    failures = (FailurePlan(mtbf_ms=rng.uniform(80.0, 300.0),
                            mttr_ms=rng.uniform(5.0, 40.0), seed=index)
                if failing else None)
    sim = ClusterSimulator(
        accel, n, scheduler=rng.choice(("least-loaded", "round-robin",
                                        "model-affinity")),
        batching=batching, reprogram_latency_ms=rng.choice((0.0, 2.0)),
        failures=failures)
    slo_ms = (None, 5.0, rng.uniform(1.0, 20.0))[slo]
    return sim, requests, slo_ms


def gen_scenario(index, accel):
    """(simulator, requests, ttft_slo, tpot_slo) of scenario ``index``."""
    rng = random.Random(130363 * index + 29)
    multi, failing, slo = index % 2 == 1, (index // 2) % 2 == 1, index % 4
    n = rng.choice((1, 2, 3))
    arrivals = PoissonArrivals(rng.uniform(30.0, 120.0) * n,
                               _mix(rng, multi), seed=index).generate(
        rng.uniform(200.0, 500.0))
    requests = attach_generation_lengths(
        arrivals, LengthSampler("uniform", 4, 24),
        LengthSampler("geometric", 1, 32, mean_extra=6.0),
        seed=index, max_total=accel.synth.max_seq_len)
    if index % 3 == 2:
        requests = attach_priorities(requests, 0.3, seed=index)
    failures = (FailurePlan(mtbf_ms=rng.uniform(60.0, 200.0),
                            mttr_ms=rng.uniform(5.0, 30.0), seed=index)
                if failing else None)
    sim = GenerationClusterSimulator(
        accel, n, slots=rng.randint(1, 6),
        scheduler=rng.choice(("least-loaded", "round-robin")),
        reprogram_latency_ms=rng.choice((0.0, 2.0)), failures=failures)
    ttft_slo, tpot_slo = ((None, None), (20.0, None), (None, 1.0),
                          (rng.uniform(5.0, 40.0),
                           rng.uniform(0.2, 2.0)))[slo]
    return sim, requests, ttft_slo, tpot_slo


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_summarize_matches_reference(default_accel, index):
    sim, requests, slo_ms = serve_scenario(index, default_accel)
    result = sim.run(requests)
    assert result.records
    assert (_dumps(summarize(result, slo_ms=slo_ms))
            == _dumps(reference_summarize(result, slo_ms=slo_ms)))


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_summarize_generation_matches_reference(default_accel, index):
    sim, requests, ttft_slo, tpot_slo = gen_scenario(index, default_accel)
    result = sim.run(requests)
    assert result.records
    got = summarize_generation(result, ttft_slo_ms=ttft_slo,
                               tpot_slo_ms=tpot_slo)
    want = reference_summarize_generation(result, ttft_slo_ms=ttft_slo,
                                          tpot_slo_ms=tpot_slo)
    assert _dumps(got) == _dumps(want)


def test_scenarios_cover_every_branch(default_accel):
    """The random set reaches multi-model, degraded and SLO branches."""
    reports = [summarize(sim.run(reqs), slo_ms=slo)
               for sim, reqs, slo in (serve_scenario(i, default_accel)
                                      for i in range(N_SCENARIOS))]
    assert any(len(r.per_model) > 1 for r in reports)
    assert any(len(r.per_model) == 1 for r in reports)
    assert any(r.degraded_count for r in reports)
    assert any(r.slo_attainment is not None for r in reports)
    gens = [sim.run(reqs) for sim, reqs, _, _ in
            (gen_scenario(i, default_accel) for i in range(N_SCENARIOS))]
    assert any(g.total_retries for g in gens)
    assert any(g.total_preemptions for g in gens)
    assert any(r.output_tokens == 1 for g in gens for r in g.records)


@pytest.mark.parametrize("failing", [False, True])
def test_empty_run_matches_reference(default_accel, failing):
    plan = FailurePlan(mtbf_ms=100.0, mttr_ms=10.0) if failing else None
    serve = ClusterSimulator(default_accel, 2, failures=plan).run([])
    assert (_dumps(summarize(serve, slo_ms=5.0))
            == _dumps(reference_summarize(serve, slo_ms=5.0)))
    gen = GenerationClusterSimulator(default_accel, 2,
                                     failures=plan).run([])
    assert (_dumps(summarize_generation(gen, ttft_slo_ms=5.0))
            == _dumps(reference_summarize_generation(gen, ttft_slo_ms=5.0)))


# --------------------------------------------------------------------
# Record API.
SERVE_KW = dict(rid=7, model="m", instance=1, batch_size=4,
                t_arrival_ms=1.25, t_dispatch_ms=2.5, t_complete_ms=4.75)
GEN_KW = dict(rid=3, model="m", instance=0, prompt_tokens=16,
              output_tokens=5, t_arrival_ms=1.0, t_admit_ms=1.5,
              t_first_token_ms=3.25, t_complete_ms=9.0)


class TestRecordApi:
    @pytest.mark.parametrize("cls,kw", [(RequestRecord, SERVE_KW),
                                        (GenerationRecord, GEN_KW)])
    def test_immutable(self, cls, kw):
        rec = cls(**kw)
        for name in (*kw, "retries", "degraded"):
            with pytest.raises(AttributeError):
                setattr(rec, name, 0)

    @pytest.mark.parametrize("cls,kw", [(RequestRecord, SERVE_KW),
                                        (GenerationRecord, GEN_KW)])
    def test_hashable_and_value_equal(self, cls, kw):
        a, b = cls(**kw), cls(**kw)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != cls(**{**kw, "rid": kw["rid"] + 1})

    def test_request_record_defaults(self):
        rec = RequestRecord(**SERVE_KW)
        assert rec.retries == 0 and rec.degraded is False
        assert RequestRecord(**SERVE_KW, retries=2, degraded=True) \
            .degraded is True

    def test_generation_record_defaults(self):
        rec = GenerationRecord(**GEN_KW)
        assert (rec.retries, rec.preemptions, rec.degraded) == (0, 0, False)

    def test_field_order(self):
        assert RequestRecord._fields == (*SERVE_KW, "retries", "degraded")
        assert GenerationRecord._fields == (*GEN_KW, "retries",
                                            "preemptions", "degraded")

    def test_request_properties(self):
        rec = RequestRecord(**SERVE_KW)
        assert rec.wait_ms == rec.t_dispatch_ms - rec.t_arrival_ms
        assert rec.latency_ms == rec.t_complete_ms - rec.t_arrival_ms

    def test_generation_properties(self):
        rec = GenerationRecord(**GEN_KW)
        assert rec.wait_ms == rec.t_admit_ms - rec.t_arrival_ms
        assert rec.ttft_ms == rec.t_first_token_ms - rec.t_arrival_ms
        assert rec.tpot_ms == ((rec.t_complete_ms - rec.t_first_token_ms)
                               / (rec.output_tokens - 1))
        assert rec.latency_ms == rec.t_complete_ms - rec.t_arrival_ms
        single = GenerationRecord(**{**GEN_KW, "output_tokens": 1})
        assert single.tpot_ms == 0.0

    def test_engine_records_equal_keyword_records(self, default_accel):
        """Engine-built records are the keyword-built ones, field for
        field and type for type."""
        reqs = PoissonArrivals(300, ModelMix(MODELS[0]),
                               seed=5).generate(200.0)
        for rec in ClusterSimulator(default_accel, 2).run(reqs).records:
            assert type(rec) is RequestRecord
            assert rec == RequestRecord(**rec._asdict())
