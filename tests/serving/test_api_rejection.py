"""Every public numeric entry point rejects a bad value with ValueError.

The CLI's ``TestBadInputsExitTwo`` table pins the command line; this
property test pins the library underneath it.  Each case draws NaN,
+-inf and out-of-range values for one parameter and requires the call
to raise ``ValueError``: never a result, never another exception type.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analytic import (erlang_c, estimate_generation, estimate_serving,
                            p99_estimate_ms, propose_fleet, wait_quantile_ms)
from repro.core import DecoderModule
from repro.dse import (Axis, EvolutionaryStrategy, Objective,
                       PrescreenStrategy, RandomStrategy, SearchSpace,
                       evaluate_point, explore, surrogate_point)
from repro.fixedpoint import QFormat
from repro.fpga import PowerModel, PowerReport
from repro.isa import SynthParams
from repro.nn.decoder import causal_mask
from repro.nn.model_zoo import MODEL_ZOO, TransformerConfig
from repro.obs import (AnomalyDetector, MetricsSampler, ThresholdRule,
                       Watchdog, bench_trend, diff_runs)
from repro.parallel import (AURORA_64B66B, InterconnectLink, PipelineGroup,
                            PipelinePartitioner, StagePlan,
                            balanced_partition, validate_tensor_parallel)
from repro.serving import (
    BurstyArrivals,
    ClusterSimulator,
    DiurnalArrivals,
    GenerationRequest,
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    TraceReplay,
    attach_generation_lengths,
    attach_priorities,
    plan_capacity,
    simulate,
    simulate_generation,
    summarize,
    summarize_generation,
    timeout,
)
from repro.sim import FailurePlan, InstanceSpec

MODEL = "model2-lhc-trigger"
MIX = ModelMix({MODEL: 1.0})
BERT = MODEL_ZOO["bert-variant"]

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
#: Finite reals at or below zero, and below zero.
NOT_POSITIVE = NON_FINITE | st.floats(max_value=0.0, allow_nan=False)
#: NaN, -inf and finite reals at or below zero (+inf is a valid bound).
NAN_OR_NOT_POSITIVE = (st.sampled_from([math.nan, -math.inf])
                       | st.floats(max_value=0.0, allow_nan=False))
NEGATIVE = NON_FINITE | st.floats(max_value=0.0, exclude_max=True,
                                  allow_nan=False)
#: NaN, -inf and finite reals below zero (+inf is a valid load).
NAN_OR_NEGATIVE = (st.sampled_from([math.nan, -math.inf])
                   | st.floats(max_value=0.0, exclude_max=True,
                               allow_nan=False))
#: Anything but an int >= 1: zero and negative ints, every float
#: (integral ones included) and bools.
NOT_COUNT = (st.integers(max_value=0) | st.floats() | st.booleans())
#: Design-point counts that ``int()`` once truncated (2.5 scored as 2,
#: True as 1) or rejected with its own message (NaN).
NOT_POINT_COUNT = st.sampled_from([2.5, True, math.nan])
#: Tile counts ``int()`` once truncated (12.9 scored as 12, True as 1).
NOT_TILE_COUNT = st.sampled_from([12.9, True, math.nan])
#: Anything but an int, whatever its sign: NaN, a fraction, a bool.
NOT_INT = st.sampled_from([math.nan, 2.5, True])
#: Anything but an int >= 0: NaN, a fraction, a string, a bool, -1.
NOT_PRIORITY = st.sampled_from([math.nan, 1.5, "1", True, -1])
#: Outside the open interval (0, 1), and outside [0, 1].
NOT_OPEN_UNIT = NON_FINITE | st.floats(max_value=0.0) | st.floats(min_value=1.0)
NOT_UNIT = (NON_FINITE | st.floats(max_value=0.0, exclude_max=True)
            | st.floats(min_value=1.0, exclude_min=True))


def _burst(**kw):
    return BurstyArrivals(100.0, MIX, **kw)


def _diurnal(**kw):
    return DiurnalArrivals(100.0, MIX, **kw)


SPACE = SearchSpace((Axis("a", (1,)),))
OBJECTIVES = (Objective("y", "min"),)


def _power(r, **kw):
    args = {"latency_s": 1e-3, "gops": 1.0, "achieved_gbps": 0.0, **kw}
    return PowerReport.evaluate(PowerModel(), r["accel"].resources,
                                r["accel"].clock_mhz, **args)


def _explore(**kw):
    """A one-point sweep: it runs in the parent process, so a bad
    ``jobs`` that slipped through would return, not fork a pool."""
    return explore(SPACE, lambda point, settings: {"y": 1.0},
                   objectives=OBJECTIVES, **kw)


#: ``(case id, call(value, results), bad-value strategy)``.
CASES = [
    ("poisson.qps", lambda v, r: PoissonArrivals(v, MIX), NOT_POSITIVE),
    ("poisson.generate", lambda v, r: PoissonArrivals(100.0, MIX).generate(v),
     NEGATIVE),
    ("bursty.qps", lambda v, r: BurstyArrivals(v, MIX), NOT_POSITIVE),
    ("bursty.burst_factor", lambda v, r: _burst(burst_factor=v),
     NON_FINITE | st.floats(max_value=1.0, exclude_max=True)),
    ("bursty.burst_fraction", lambda v, r: _burst(burst_fraction=v),
     NOT_OPEN_UNIT),
    ("bursty.dwell_ms", lambda v, r: _burst(dwell_ms=v), NOT_POSITIVE),
    ("bursty.generate", lambda v, r: _burst().generate(v), NEGATIVE),
    ("diurnal.peak_qps", lambda v, r: DiurnalArrivals(v, MIX), NOT_POSITIVE),
    ("diurnal.period_ms", lambda v, r: _diurnal(period_ms=v), NOT_POSITIVE),
    ("diurnal.floor", lambda v, r: _diurnal(floor=v), NOT_UNIT),
    ("diurnal.generate", lambda v, r: _diurnal().generate(v), NEGATIVE),
    ("mix.weight", lambda v, r: ModelMix({MODEL: 1.0, "other": v}),
     NEGATIVE),
    ("mix.only_weight", lambda v, r: ModelMix({MODEL: v}), NOT_POSITIVE),
    ("timeout.max_batch", lambda v, r: timeout(v, 2.0), NOT_COUNT),
    ("timeout.timeout_ms", lambda v, r: timeout(8, v), NEGATIVE),
    ("failure.mtbf_ms", lambda v, r: FailurePlan(v, 10.0), NOT_POSITIVE),
    ("failure.mttr_ms", lambda v, r: FailurePlan(100.0, v), NEGATIVE),
    ("failure.horizon_ms",
     lambda v, r: FailurePlan(100.0, 10.0, horizon_ms=v), NEGATIVE),
    ("instance.speed", lambda v, r: InstanceSpec(speed=v), NOT_POSITIVE),
    ("instance.reprogram_latency_ms",
     lambda v, r: InstanceSpec(reprogram_latency_ms=v), NEGATIVE),
    ("cluster.reprogram_latency_ms",
     lambda v, r: ClusterSimulator(r["accel"], 2, reprogram_latency_ms=v),
     NEGATIVE),
    ("cluster.check_jitter_ms",
     lambda v, r: ClusterSimulator(r["accel"], 2, check_jitter_ms=v),
     NEGATIVE),
    ("simulate.n_instances",
     lambda v, r: simulate(r["accel"], r["arrivals"], v, detail="summary"),
     NOT_COUNT),
    ("simulate_generation.n_instances",
     lambda v, r: simulate_generation(r["accel"], r["gen_requests"], v,
                                      detail="summary"),
     NOT_COUNT),
    ("trace_replay.t_ms",
     lambda v, r: TraceReplay([(1.0, MODEL), (v, MODEL)]), NEGATIVE),
    ("attach_priorities.high",
     lambda v, r: attach_priorities(r["gen_requests"], 0.5, high=v),
     NOT_COUNT),
    ("lengths.lo", lambda v, r: LengthSampler("uniform", v, 64), NOT_COUNT),
    ("lengths.hi", lambda v, r: LengthSampler("uniform", 4, v), NOT_COUNT),
    ("lengths.mean_extra",
     lambda v, r: LengthSampler("geometric", 4, 64, mean_extra=v), NEGATIVE),
    ("summarize.slo_ms", lambda v, r: summarize(r["serve"], slo_ms=v),
     NOT_POSITIVE),
    ("summarize_generation.ttft_slo_ms",
     lambda v, r: summarize_generation(r["generate"], ttft_slo_ms=v),
     NOT_POSITIVE),
    ("summarize_generation.tpot_slo_ms",
     lambda v, r: summarize_generation(r["generate"], tpot_slo_ms=v),
     NOT_POSITIVE),
    ("generation.slots",
     lambda v, r: simulate_generation(r["accel"], r["gen_requests"], 2,
                                      slots=v, detail="summary"),
     NOT_COUNT),
    ("instance.slots", lambda v, r: InstanceSpec(slots=v), NOT_COUNT),
    ("plan_capacity.target_p99_ms",
     lambda v, r: plan_capacity(r["accel"], r["arrivals"], v), NOT_POSITIVE),
    ("plan_capacity.target_qps",
     lambda v, r: plan_capacity(r["accel"], r["arrivals"], 5.0,
                                target_qps=v),
     NOT_POSITIVE),
    ("plan_capacity.max_instances",
     lambda v, r: plan_capacity(r["accel"], r["arrivals"], 5.0,
                                max_instances=v),
     NOT_COUNT),
    # The plan needs one instance, so the probes never shard: the
    # counts must be checked before the first probe.
    ("plan_capacity.shards",
     lambda v, r: plan_capacity(r["accel"], r["arrivals"], 5.0, shards=v),
     NOT_COUNT),
    ("plan_capacity.shard_jobs",
     lambda v, r: plan_capacity(r["accel"], r["arrivals"], 5.0, shards=2,
                                shard_jobs=v),
     NOT_COUNT),
    ("simulate.shards",
     lambda v, r: simulate(r["accel"], r["arrivals"], 2, detail="summary",
                           shards=v),
     NOT_COUNT),
    ("simulate.shard_jobs",
     lambda v, r: simulate(r["accel"], r["arrivals"], 2, detail="summary",
                           shards=2, shard_jobs=v),
     NOT_COUNT),
    ("watchdog.slo_ms", lambda v, r: Watchdog(slo_ms=v), NOT_POSITIVE),
    ("threshold_rule.threshold", lambda v, r: ThresholdRule("x", v),
     NON_FINITE),
    ("watchdog.target", lambda v, r: Watchdog(slo_ms=5.0, target=v),
     NOT_OPEN_UNIT),
    ("watchdog.fast_window_ms",
     lambda v, r: Watchdog(slo_ms=5.0, fast_window_ms=v), NOT_POSITIVE),
    ("watchdog.slow_window_ms",
     lambda v, r: Watchdog(slo_ms=5.0, slow_window_ms=v), NOT_POSITIVE),
    ("watchdog.burn_threshold",
     lambda v, r: Watchdog(slo_ms=5.0, burn_threshold=v), NOT_POSITIVE),
    ("anomaly.window", lambda v, r: AnomalyDetector(window=v), NOT_COUNT),
    ("anomaly.threshold", lambda v, r: AnomalyDetector(threshold=v),
     NOT_POSITIVE),
    ("anomaly.debounce", lambda v, r: AnomalyDetector(debounce=v),
     NOT_COUNT),
    ("anomaly.min_samples", lambda v, r: AnomalyDetector(min_samples=v),
     NOT_COUNT),
    ("anomaly.rel_floor", lambda v, r: AnomalyDetector(rel_floor=v),
     NEGATIVE),
    ("anomaly.abs_floor", lambda v, r: AnomalyDetector(abs_floor=v),
     NOT_POSITIVE),
    ("metrics.grid_ms", lambda v, r: MetricsSampler(grid_ms=v),
     NOT_POSITIVE),
    ("diff_runs.rtol", lambda v, r: diff_runs({}, {}, rtol=v), NEGATIVE),
    ("diff_runs.atol", lambda v, r: diff_runs({}, {}, atol=v), NEGATIVE),
    ("bench_trend.window", lambda v, r: bench_trend([], window=v),
     NOT_COUNT),
    ("bench_trend.rtol", lambda v, r: bench_trend([], rtol=v), NEGATIVE),
    ("explore.jobs", lambda v, r: _explore(jobs=v), NOT_COUNT),
    ("explore.batch_size", lambda v, r: _explore(batch_size=v), NOT_COUNT),
    ("random.samples", lambda v, r: RandomStrategy(SPACE, samples=v),
     NOT_COUNT),
    ("evolutionary.population",
     lambda v, r: EvolutionaryStrategy(SPACE, OBJECTIVES, population=v),
     NOT_COUNT),
    ("evolutionary.generations",
     lambda v, r: EvolutionaryStrategy(SPACE, OBJECTIVES, generations=v),
     NOT_COUNT),
    ("prescreen.min_keep",
     lambda v, r: PrescreenStrategy(SPACE, OBJECTIVES, min_keep=v),
     NOT_COUNT),
    ("generation_request.prompt_tokens",
     lambda v, r: GenerationRequest(0, 0.0, MODEL, prompt_tokens=v),
     NOT_COUNT),
    ("generation_request.output_tokens",
     lambda v, r: GenerationRequest(0, 0.0, MODEL, output_tokens=v),
     NOT_COUNT),
    ("generation_request.priority",
     lambda v, r: GenerationRequest(0, 0.0, MODEL, priority=v),
     NOT_PRIORITY),
    ("transformer_config.d_model",
     lambda v, r: TransformerConfig("x", v, 2, 1, 8), NOT_COUNT),
    ("transformer_config.num_heads",
     lambda v, r: TransformerConfig("x", 64, v, 1, 8), NOT_COUNT),
    ("transformer_config.num_layers",
     lambda v, r: TransformerConfig("x", 64, 2, v, 8), NOT_COUNT),
    ("transformer_config.seq_len",
     lambda v, r: TransformerConfig("x", 64, 2, 1, v), NOT_COUNT),
    ("qformat.total_bits", lambda v, r: QFormat(v, 4), NOT_COUNT),
    ("synth_params.ts_mha", lambda v, r: SynthParams(ts_mha=v), NOT_COUNT),
    ("synth_params.ts_ffn", lambda v, r: SynthParams(ts_ffn=v), NOT_COUNT),
    ("synth_params.max_heads", lambda v, r: SynthParams(max_heads=v),
     NOT_COUNT),
    ("synth_params.max_layers", lambda v, r: SynthParams(max_layers=v),
     NOT_COUNT),
    ("synth_params.max_d_model", lambda v, r: SynthParams(max_d_model=v),
     NOT_COUNT),
    ("synth_params.max_seq_len", lambda v, r: SynthParams(max_seq_len=v),
     NOT_COUNT),
    ("synth_params.seq_chunk", lambda v, r: SynthParams(seq_chunk=v),
     NOT_COUNT | st.integers(min_value=129)),
    ("synth_params.data_bits", lambda v, r: SynthParams(data_bits=v),
     NOT_COUNT),
    ("erlang_c.servers", lambda v, r: erlang_c(v, 0.5), NOT_COUNT),
    ("erlang_c.erlangs", lambda v, r: erlang_c(2, v), NAN_OR_NEGATIVE),
    ("qformat.frac_bits", lambda v, r: QFormat(8, v), NOT_INT),
    ("causal_mask.seq_len", lambda v, r: causal_mask(v), NOT_COUNT),
    ("wait_quantile_ms.drain_per_ms",
     lambda v, r: wait_quantile_ms(2, 0.5, v), NAN_OR_NOT_POSITIVE),
    ("wait_quantile_ms.q", lambda v, r: wait_quantile_ms(2, 0.5, 1.0, v),
     NON_FINITE | st.floats(max_value=0.0, exclude_max=True)
     | st.floats(min_value=100.0, exclude_min=True)),
    ("p99_estimate_ms.fleet",
     lambda v, r: p99_estimate_ms(2.0, 500.0, v, 100.0, 1000.0), NOT_COUNT),
    ("evaluate_point.tiles_mha",
     lambda v, r: evaluate_point({"model": MODEL, "tiles_mha": v}),
     NOT_TILE_COUNT),
    ("evaluate_point.tiles_ffn",
     lambda v, r: evaluate_point({"model": MODEL, "tiles_ffn": v}),
     NOT_TILE_COUNT),
    ("surrogate_point.tiles_mha",
     lambda v, r: surrogate_point({"model": MODEL, "tiles_mha": v}),
     NOT_TILE_COUNT),
    ("surrogate_point.tiles_ffn",
     lambda v, r: surrogate_point({"model": MODEL, "tiles_ffn": v}),
     NOT_TILE_COUNT),
    ("evaluate_point.devices",
     lambda v, r: evaluate_point({"model": MODEL, "devices": v}),
     NOT_POINT_COUNT),
    ("evaluate_point.fleet",
     lambda v, r: evaluate_point({"model": MODEL, "fleet": v}),
     NOT_POINT_COUNT),
    ("surrogate_point.devices",
     lambda v, r: surrogate_point({"model": MODEL, "devices": v}),
     NOT_POINT_COUNT),
    ("surrogate_point.fleet",
     lambda v, r: surrogate_point({"model": MODEL, "fleet": v}),
     NOT_POINT_COUNT),
    ("propose_fleet.target_p99_ms",
     lambda v, r: propose_fleet(r["accel"], r["arrivals"], v),
     NOT_POSITIVE),
    ("propose_fleet.target_qps",
     lambda v, r: propose_fleet(r["accel"], r["arrivals"], 5.0,
                                target_qps=v),
     NOT_POSITIVE),
    ("propose_fleet.max_instances",
     lambda v, r: propose_fleet(r["accel"], r["arrivals"], 5.0,
                                max_instances=v),
     NOT_COUNT),
    ("estimate_serving.fleet",
     lambda v, r: estimate_serving(r["accel"], r["arrivals"], v),
     NOT_COUNT),
    ("estimate_generation.fleet",
     lambda v, r: estimate_generation(r["accel"], MODEL_ZOO[MODEL], 8, 4,
                                      fleet=v),
     NOT_COUNT),
    ("estimate_generation.slots",
     lambda v, r: estimate_generation(r["accel"], MODEL_ZOO[MODEL], 8, 4,
                                      slots=v),
     NOT_COUNT),
    ("estimate_generation.qps",
     lambda v, r: estimate_generation(r["accel"], MODEL_ZOO[MODEL], 8, 4,
                                      qps=v, duration_ms=50.0),
     NOT_POSITIVE),
    ("link.bandwidth_gbps", lambda v, r: InterconnectLink("x", v, 1.0),
     NOT_POSITIVE),
    ("link.latency_us", lambda v, r: InterconnectLink("x", 100.0, v),
     NEGATIVE),
    ("link.overhead_bytes",
     lambda v, r: InterconnectLink("x", 100.0, 1.0, overhead_bytes=v),
     NEGATIVE),
    ("link.transfer_us.nbytes", lambda v, r: AURORA_64B66B.transfer_us(v),
     NEGATIVE),
    ("link.transfer_cycles.clock_mhz",
     lambda v, r: AURORA_64B66B.transfer_cycles(1024, v), NOT_POSITIVE),
    ("link.allreduce_us.nbytes",
     lambda v, r: AURORA_64B66B.allreduce_us(v, 2), NEGATIVE),
    ("link.allreduce_us.ways",
     lambda v, r: AURORA_64B66B.allreduce_us(1024, v), NOT_COUNT),
    ("link.allreduce_cycles.clock_mhz",
     lambda v, r: AURORA_64B66B.allreduce_cycles(1024, 2, v), NOT_POSITIVE),
    ("pipeline.plan.n_devices", lambda v, r: r["pp"].plan(BERT, v), NOT_COUNT),
    ("pipeline.plan.tp_ways", lambda v, r: r["pp"].plan(BERT, 2, v),
     NOT_COUNT),
    ("pipeline.best_plan.n_devices",
     lambda v, r: r["pp"].best_plan(BERT, v), NOT_COUNT),
    ("pipeline.decode_report.prompt_len",
     lambda v, r: r["pp"].decode_report(BERT, 2, v, 4), NOT_COUNT),
    ("pipeline.decode_report.output_len",
     lambda v, r: r["pp"].decode_report(BERT, 2, 8, v), NOT_COUNT),
    ("plan.speedup_over", lambda v, r: r["plan"].speedup_over(v),
     NOT_POSITIVE),
    ("plan.timeline", lambda v, r: r["plan"].timeline(v), NOT_COUNT),
    ("group.n_devices", lambda v, r: PipelineGroup(r["accel"], v), NOT_COUNT),
    ("balanced_partition.k", lambda v, r: balanced_partition([1, 2, 3], v),
     NOT_COUNT),
    ("balanced_partition.costs",
     lambda v, r: balanced_partition([1, v, 3], 2), NEGATIVE),
    ("validate_tensor_parallel.tp",
     lambda v, r: validate_tensor_parallel(BERT, v), NOT_COUNT),
    ("stage_plan.tp_ways",
     lambda v, r: StagePlan(0, 0, 1, v, r["plan"].stages[0].layer),
     NOT_COUNT),
    ("power.dynamic_w.clock_mhz",
     lambda v, r: PowerModel().dynamic_w(r["accel"].resources, v),
     NOT_POSITIVE),
    ("power.total_w.achieved_gbps",
     lambda v, r: PowerModel().total_w(r["accel"].resources, 200.0, v),
     NEGATIVE),
    ("power_report.latency_s", lambda v, r: _power(r, latency_s=v),
     NOT_POSITIVE),
    ("power_report.gops", lambda v, r: _power(r, gops=v), NOT_POSITIVE),
    ("power_report.achieved_gbps", lambda v, r: _power(r, achieved_gbps=v),
     NEGATIVE),
    ("attention.compute_cycles.seq_len",
     lambda v, r: r["accel"].attention.compute_cycles(v, 768, 8), NOT_COUNT),
    ("attention.compute_cycles.d_model",
     lambda v, r: r["accel"].attention.compute_cycles(64, v, 8), NOT_COUNT),
    ("attention.compute_cycles.num_heads",
     lambda v, r: r["accel"].attention.compute_cycles(64, 768, v), NOT_COUNT),
    ("attention.decode_compute_cycles.cache_len",
     lambda v, r: r["accel"].attention.decode_compute_cycles(v, 768, 8),
     NOT_COUNT),
    ("attention.sweep_cycles.q_len",
     lambda v, r: r["accel"].attention.sweep_cycles(v, 64, 768, 8),
     NOT_COUNT),
    ("attention.sweep_cycles.kv_len",
     lambda v, r: r["accel"].attention.sweep_cycles(64, v, 768, 8),
     NOT_COUNT),
    # Integral floats and True hash like the ints a warm memo holds.
    ("latency.decode_layer_cycles.cache_len",
     lambda v, r: r["accel"].latency_model.decode_layer_cycles(v, 768, 8),
     NOT_COUNT),
    ("latency.decode_layer_cycles.d_model",
     lambda v, r: r["accel"].latency_model.decode_layer_cycles(1, v, 8),
     NOT_COUNT),
    ("latency.decode_layer_cycles.num_heads",
     lambda v, r: r["accel"].latency_model.decode_layer_cycles(1, 768, v),
     NOT_COUNT),
    ("ffn.compute_cycles.seq_len",
     lambda v, r: r["accel"].ffn.compute_cycles(v, 768), NOT_COUNT),
    ("ffn.compute_cycles.d_model",
     lambda v, r: r["accel"].ffn.compute_cycles(64, v), NOT_COUNT),
    ("decoder.compute_cycles.tgt_len",
     lambda v, r: r["decoder"].compute_cycles(v, 10, 768, 8), NOT_COUNT),
    ("decoder.compute_cycles.mem_len",
     lambda v, r: r["decoder"].compute_cycles(10, v, 768, 8), NOT_COUNT),
    ("decoder.compute_cycles.num_heads",
     lambda v, r: r["decoder"].compute_cycles(10, 10, 768, v), NOT_COUNT),
]

#: Cycle-formula calls that once returned a price: a fractional or
#: bool length, a zero length, and a width the heads do not divide.
BAD_CYCLE_CALLS = [
    ("decode_compute_cycles(2.5)",
     lambda r: r["accel"].attention.decode_compute_cycles(2.5, 768, 8)),
    ("decode_compute_cycles(True)",
     lambda r: r["accel"].attention.decode_compute_cycles(True, 768, 8)),
    ("decode_layer_cycles(2.5)",
     lambda r: r["accel"].latency_model.decode_layer_cycles(2.5, 768, 8)),
    ("decode_layer_cycles(True)",
     lambda r: r["accel"].latency_model.decode_layer_cycles(True, 768, 8)),
    ("decode_layer_cycles(0)",
     lambda r: r["accel"].latency_model.decode_layer_cycles(0, 768, 8)),
    ("compute_cycles(2.5)",
     lambda r: r["accel"].attention.compute_cycles(2.5, 768, 8)),
    ("compute_cycles(True)",
     lambda r: r["accel"].attention.compute_cycles(True, 768, 8)),
    ("compute_cycles(0)",
     lambda r: r["accel"].attention.compute_cycles(0, 768, 8)),
    ("compute_cycles(768/7)",
     lambda r: r["accel"].attention.compute_cycles(10, 768, 7)),
    ("ffn.compute_cycles(2.5)",
     lambda r: r["accel"].ffn.compute_cycles(2.5, 768)),
    ("ffn.compute_cycles(0)",
     lambda r: r["accel"].ffn.compute_cycles(0, 768)),
    ("decoder.compute_cycles(mem 0)",
     lambda r: r["decoder"].compute_cycles(10, 0, 768, 8)),
    ("decoder.compute_cycles(tgt True)",
     lambda r: r["decoder"].compute_cycles(True, 10, 768, 8)),
    ("decoder.compute_cycles(768/7)",
     lambda r: r["decoder"].compute_cycles(10, 10, 768, 7)),
]


@pytest.fixture(scope="module")
def results(default_accel):
    """One small serve run and one small generation run to summarize,
    with their inputs for the calls that take a workload."""
    arrivals = PoissonArrivals(200.0, MIX, seed=1).generate(50.0)
    requests = attach_generation_lengths(
        arrivals, LengthSampler("fixed", 8), LengthSampler("fixed", 4),
        seed=1)
    pp = PipelinePartitioner(default_accel)
    return {"serve": simulate(default_accel, arrivals, n_instances=2),
            "generate": simulate_generation(default_accel, requests,
                                            n_instances=2),
            "accel": default_accel, "arrivals": arrivals,
            "gen_requests": requests,
            "pp": pp, "plan": pp.plan(BERT, 2),
            "decoder": DecoderModule(default_accel.synth)}


@pytest.mark.parametrize("call,bad", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_bad_numeric_input_raises_value_error(call, bad, results):
    @given(value=bad)
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def check(value):
        with pytest.raises(ValueError):
            call(value, results)

    check()


@pytest.mark.parametrize("call", [c[1] for c in BAD_CYCLE_CALLS],
                         ids=[c[0] for c in BAD_CYCLE_CALLS])
def test_cycle_formulas_reject_bad_shapes(call, results):
    # A warm decode memo: True hashes like 1 and would find its entry.
    results["accel"].latency_model.decode_layer_cycles(1, 768, 8)
    with pytest.raises(ValueError):
        call(results)
