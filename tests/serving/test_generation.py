"""Token-level continuous batching: simulator, workloads, metrics."""

import json
import math
import random

import pytest

from repro.core import ProTEA
from repro.isa import SynthParams
from repro.nn.model_zoo import MODEL_ZOO
from repro.serving import (
    GenerationRequest,
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
    render_generation_report,
    simulate_generation,
    summarize_generation,
)
from repro.serving.generation import (GenerationClusterSimulator,
                                     GenerationServiceModel)

from .._events import run_events


@pytest.fixture(scope="module")
def accel():
    return ProTEA.synthesize(SynthParams())


def _workload(accel, qps=100, duration=1_000, seed=0,
              model="model2-lhc-trigger"):
    arrivals = PoissonArrivals(qps, ModelMix(model),
                               seed=seed).generate(duration)
    return attach_generation_lengths(
        arrivals, LengthSampler("uniform", 4, 12),
        LengthSampler("geometric", 2, 32, mean_extra=6.0),
        seed=seed, max_total=accel.synth.max_seq_len)


class TestLengthSampler:
    def test_fixed(self):
        s = LengthSampler("fixed", 7)
        assert [s.sample(random.Random(0)) for _ in range(3)] == [7, 7, 7]

    def test_uniform_bounds_and_determinism(self):
        s = LengthSampler("uniform", 3, 9)
        a = [s.sample(random.Random(5)) for _ in range(50)]
        b = [s.sample(random.Random(5)) for _ in range(50)]
        assert a == b
        assert all(3 <= v <= 9 for v in a)

    def test_geometric_bounds(self):
        s = LengthSampler("geometric", 4, 20, mean_extra=5.0)
        vals = [s.sample(random.Random(9)) for _ in range(200)]
        assert all(4 <= v <= 20 for v in vals)
        assert max(vals) > 4  # actually disperses

    def test_parse_forms(self):
        assert LengthSampler.parse("12").kind == "fixed"
        u = LengthSampler.parse("3:9")
        assert (u.kind, u.lo, u.hi) == ("uniform", 3, 9)
        g = LengthSampler.parse("geo:4:6")
        assert (g.kind, g.lo, g.mean_extra) == ("geometric", 4, 6.0)

    def test_parse_rejects_garbage(self):
        for bad in ("", "a", "4:x", "geo:4", "1:2:3:4"):
            with pytest.raises(ValueError):
                LengthSampler.parse(bad)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            LengthSampler("fixed", 0)
        with pytest.raises(ValueError):
            LengthSampler("uniform", 5, 3)
        with pytest.raises(ValueError):
            LengthSampler("weird", 1)
        for kind in ("fixed", "uniform", "geometric"):
            for bad in (2.5, 16.0, math.nan, math.inf, -math.inf, True,
                        "8", None, -3):
                with pytest.raises(ValueError, match="lo must be an int"):
                    LengthSampler(kind, bad, 32)
            for bad in (32.5, math.nan, math.inf, True, 0):
                with pytest.raises(ValueError, match="hi must be an int"):
                    LengthSampler(kind, 4, bad)


class TestGenerationWorkload:
    def test_attach_is_deterministic(self, accel):
        a = _workload(accel)
        b = _workload(accel)
        assert a == b

    def test_max_total_clamps(self, accel):
        arrivals = PoissonArrivals(50, ModelMix("model2-lhc-trigger"),
                                   seed=1).generate(500)
        reqs = attach_generation_lengths(
            arrivals, LengthSampler("fixed", 100),
            LengthSampler("fixed", 100), max_total=64)
        assert all(r.total_tokens <= 64 for r in reqs)
        assert all(r.output_tokens >= 1 for r in reqs)
        # Checked before the loop: an empty stream used to accept any
        # cap, and NaN used to lift it.
        for bad in (1, 0, -5, math.nan, math.inf, 64.0, True):
            for stream in (arrivals, []):
                with pytest.raises(ValueError, match="max_total"):
                    attach_generation_lengths(
                        stream, LengthSampler("fixed", 100),
                        LengthSampler("fixed", 100), max_total=bad)
        assert attach_generation_lengths(
            [], LengthSampler("fixed", 1), LengthSampler("fixed", 1),
            max_total=2) == []

    def test_request_validation(self):
        with pytest.raises(ValueError):
            GenerationRequest(rid=0, t_ms=0.0, model="m",
                              prompt_tokens=0, output_tokens=1)


class TestSimulator:
    def test_conservation_and_records(self, accel):
        reqs = _workload(accel)
        result = simulate_generation(accel, reqs, 2, slots=4)
        assert result.total_requests == len(reqs)
        assert result.total_tokens == sum(r.output_tokens for r in reqs)
        by_rid = {r.rid: r for r in result.records}
        assert set(by_rid) == {r.rid for r in reqs}
        for rec in result.records:
            assert rec.t_arrival_ms <= rec.t_admit_ms
            assert rec.t_admit_ms < rec.t_first_token_ms
            assert rec.t_first_token_ms <= rec.t_complete_ms + 1e-9
            assert rec.ttft_ms > 0

    def test_trace_identical_across_replays(self, accel):
        reqs = _workload(accel)
        r1, events1 = run_events(simulate_generation, accel, reqs, 2, slots=4)
        r2, events2 = run_events(simulate_generation, accel, reqs, 2, slots=4)
        assert events1 == events2
        assert r1.records == r2.records

    def test_slots_respected(self, accel):
        reqs = _workload(accel, qps=400)
        _, events = run_events(simulate_generation, accel, reqs, 1, slots=3)
        for entry in events:
            if entry[0] == "step":
                _, _, _, _, admitted, decoding, _ = entry
                assert admitted + decoding <= 3

    def test_single_model_resident_per_instance(self, accel):
        arrivals = PoissonArrivals(
            200, ModelMix({"model2-lhc-trigger": 1.0,
                           "model1-peng-isqed21": 1.0}),
            seed=2).generate(500)
        reqs = attach_generation_lengths(
            arrivals, LengthSampler("fixed", 8), LengthSampler("fixed", 4),
            max_total=accel.synth.max_seq_len)
        result, events = run_events(simulate_generation, accel, reqs, 1,
                                    slots=8)
        # Reconstruct per-step models from the events: the admitted
        # model never changes while sequences are still decoding
        # another model.
        admits = {}
        for entry in events:
            if entry[0] == "admit":
                admits.setdefault(entry[1], entry[3])
        assert result.total_requests == len(reqs)
        # Switching models is allowed only between drained sets: the
        # reprogram accounting must match the stream's step models.
        step_models = [e[3] for e in events if e[0] == "step"]
        switches = sum(1 for a, b in zip(step_models, step_models[1:])
                       if a != b) + 1
        assert result.total_switches == switches

    def test_no_mixed_models_admitted_into_one_step(self, accel):
        """Two different-model requests draining into an *empty* active
        set must not be admitted together: the second waits for the
        first to finish and pays its own reprogram switch."""
        reqs = [
            GenerationRequest(rid=0, t_ms=0.0, model="model2-lhc-trigger",
                              prompt_tokens=4, output_tokens=4),
            GenerationRequest(rid=1, t_ms=0.1,
                              model="model1-peng-isqed21",
                              prompt_tokens=4, output_tokens=4),
        ]
        result, events = run_events(simulate_generation, accel, reqs, 1,
                                    slots=4, reprogram_latency_ms=7.0)
        steps = [(e[3], e[4]) for e in events if e[0] == "step"]
        assert all(n <= 1 for _, n in steps)  # never co-admitted
        models_in_order = [m for m, n in steps if n]
        assert models_in_order == ["model2-lhc-trigger",
                                   "model1-peng-isqed21"]
        assert result.total_switches == 2
        assert result.total_reprogram_time_ms == pytest.approx(14.0)
        by_rid = {r.rid: r for r in result.records}
        # The model-Y request only starts after model X fully drains.
        assert by_rid[1].t_admit_ms >= by_rid[0].t_complete_ms - 1e-9

    def test_continuous_batching_beats_serial_slots(self, accel):
        reqs = _workload(accel, qps=400, duration=2_000)
        batched = summarize_generation(
            simulate_generation(accel, reqs, 2, slots=8))
        serial = summarize_generation(
            simulate_generation(accel, reqs, 2, slots=1))
        assert batched.p99_ttft_ms < serial.p99_ttft_ms
        assert batched.mean_ttft_ms < serial.mean_ttft_ms

    def test_reprogram_penalty_charged_on_switch(self, accel):
        reqs = [
            GenerationRequest(rid=0, t_ms=0.0, model="model2-lhc-trigger",
                              prompt_tokens=4, output_tokens=2),
            GenerationRequest(rid=1, t_ms=100.0,
                              model="model1-peng-isqed21",
                              prompt_tokens=4, output_tokens=2),
        ]
        result = simulate_generation(accel, reqs, 1, slots=2,
                                     reprogram_latency_ms=25.0)
        assert result.total_switches == 2
        assert result.total_reprogram_time_ms == pytest.approx(50.0)

    def test_oversized_request_rejected(self, accel):
        big = [GenerationRequest(
            rid=0, t_ms=0.0, model="model2-lhc-trigger",
            prompt_tokens=accel.synth.max_seq_len,
            output_tokens=8)]
        with pytest.raises(ValueError, match="KV cache"):
            simulate_generation(accel, big, 1)

    def test_plain_requests_rejected(self, accel):
        from repro.serving import Request

        with pytest.raises(TypeError, match="GenerationRequest"):
            simulate_generation(
                accel, [Request(rid=0, t_ms=0.0,
                                model="model2-lhc-trigger")], 1)

    def test_invalid_parameters(self, accel):
        with pytest.raises(ValueError):
            GenerationClusterSimulator(accel, 0)
        with pytest.raises(ValueError):
            GenerationClusterSimulator(accel, 1, slots=0)
        with pytest.raises(ValueError):
            GenerationClusterSimulator(accel, 1, reprogram_latency_ms=-1)


class TestDecodeTable:
    """The decode sweep is priced from one per-model table, exactly as
    :meth:`~repro.core.latency.LatencyModel.decode_layer_cycles` gives
    it: the weight-stream term once per layer plus each sequence's
    compute term, added left to right, times the layer count."""

    @staticmethod
    def _reference(accel, cfg, cache_lens):
        cycles = accel.latency_model.decode_layer_cycles
        per_ms = accel.clock_mhz * 1e3
        compute = 0
        for cache_len in cache_lens:
            compute += cycles(cache_len, cfg.d_model,
                              cfg.num_heads).compute_total / per_ms
        load = cycles(1, cfg.d_model, cfg.num_heads).load_total / per_ms
        return (load + compute) * cfg.num_layers

    def test_every_model_and_cache_length(self, accel):
        service = GenerationServiceModel(accel)
        for name, cfg in MODEL_ZOO.items():
            for cache_len in range(1, accel.synth.max_seq_len + 1):
                assert (service.decode_step_ms(name, [cache_len])
                        == self._reference(accel, cfg, [cache_len])), (
                    name, cache_len)

    def test_mixed_length_sweeps(self, accel):
        service = GenerationServiceModel(accel)
        rng = random.Random(3)
        top = accel.synth.max_seq_len
        for name, cfg in MODEL_ZOO.items():
            for size in (2, 3, 8, 17):
                lens = [rng.randint(1, top) for _ in range(size)]
                assert (service.decode_step_ms(name, lens)
                        == self._reference(accel, cfg, lens)), (name, lens)
        assert service.decode_step_ms("model2-lhc-trigger", []) == 0.0

    def test_one_compute_memo(self, accel):
        service = GenerationServiceModel(accel)
        service.decode_step_ms("model2-lhc-trigger", [5, 9, 5])
        service.prefill_ms("model2-lhc-trigger", 12)
        memos = sorted(name for name, value in vars(service).items()
                       if isinstance(value, dict) and name != "models")
        assert memos == ["_decode", "_prefill"]
        assert list(service._decode) == ["model2-lhc-trigger"]

    def test_unknown_model_raises(self, accel):
        service = GenerationServiceModel(accel)
        with pytest.raises(KeyError, match="unknown model"):
            service.decode_step_ms("no-such-model", [4])


class TestSummarize:
    def test_metrics_and_goodput(self, accel):
        reqs = _workload(accel, qps=200)
        result = simulate_generation(accel, reqs, 2, slots=8)
        report = summarize_generation(result, ttft_slo_ms=50.0,
                                      tpot_slo_ms=5.0)
        assert report.total_tokens == result.total_tokens
        assert report.p50_ttft_ms <= report.p95_ttft_ms <= report.p99_ttft_ms
        assert 0 <= report.slo_attainment <= 1
        assert report.goodput_tokens_per_s <= report.tokens_per_s + 1e-9
        blob = json.loads(json.dumps(report.as_dict()))
        assert blob["slo"]["attainment"] == report.slo_attainment

    def test_no_slo_means_no_goodput(self, accel):
        reqs = _workload(accel, qps=50, duration=300)
        report = summarize_generation(
            simulate_generation(accel, reqs, 1, slots=4))
        assert report.slo_attainment is None
        assert report.goodput_tokens_per_s is None
        assert "slo" not in report.as_dict()

    def test_empty_run_is_nan_not_crash(self, accel):
        report = summarize_generation(simulate_generation(accel, [], 1))
        assert report.total_requests == 0
        assert math.isnan(report.mean_ttft_ms)
        blob = json.loads(json.dumps(report.as_dict()))
        assert blob["ttft_ms"]["p99"] is None

    def test_render_smoke(self, accel):
        reqs = _workload(accel, qps=50, duration=300)
        report = summarize_generation(
            simulate_generation(accel, reqs, 1, slots=4),
            ttft_slo_ms=10.0)
        text = render_generation_report(report)
        assert "TTFT" in text and "Per-instance" in text
