"""Autoregressive generation on ProTEA: KV cache to continuous batching.

The encoder serves one-shot fixed-length invocations; generation is the
workload class above it: a prompt **prefill** emits the first token,
then the decoder produces one token per step against a growing KV
cache.  This example walks the whole path:

1. The KV-cache oracle: incremental fixed-point decode is bit-identical
   to the full-sequence masked decoder at every step.
2. The prefill/decode latency split: TTFT vs TPOT on the synthesized
   instance, and why decode is weight-streaming bound.
3. Token-level continuous batching: a fleet serving an open stream of
   generation requests, TTFT/TPOT tails and goodput under SLOs —
   including the batching win over one-sequence-at-a-time slots.
4. Pipeline-parallel decode: per-token microbatches through K devices.

Run:  python examples/generation_serving.py
"""

import numpy as np

from repro import ProTEA, SynthParams, get_model
from repro.core import (DatapathFormats, DecoderModule, FxDecoderKVCache,
                        QuantizedDecoder)
from repro.fixedpoint import FxTensor
from repro.nn import Decoder
from repro.parallel import PipelinePartitioner
from repro.serving import (LengthSampler, ModelMix, PoissonArrivals,
                           attach_generation_lengths, render_generation_report,
                           simulate_generation, summarize_generation)

accel = ProTEA.synthesize(SynthParams())
print("instance:", accel.summary(), "\n")

# ------------------------------------------------------------------ #
# 1. KV-cache decode == full-sequence masked decode, bit for bit.
# ------------------------------------------------------------------ #
synth = SynthParams(ts_mha=16, ts_ffn=32, max_heads=2, max_layers=2,
                    max_d_model=64, max_seq_len=32, seq_chunk=16)
fmts = DatapathFormats.fix8()
rng = np.random.default_rng(0)
golden = Decoder.initialize(rng, num_layers=2, d_model=64, num_heads=2)
module = DecoderModule(synth, fmts)
weights = QuantizedDecoder.from_decoder(golden, fmts)
x = FxTensor.from_float(rng.normal(0, 0.5, (10, 64)), fmts.activation)
memory = FxTensor.from_float(rng.normal(0, 0.5, (8, 64)), fmts.activation)

cache = FxDecoderKVCache.initialize(module, weights, memory)
for t in range(10):
    step = cache.step(x[t:t + 1])
    full = module.forward(x[:t + 1], memory, weights)
    assert np.array_equal(step.raw, full.raw[t:t + 1]), f"step {t} diverged"
print(f"KV-cache decode: 10/10 steps bit-identical to the full pass "
      f"(cache holds {cache.seq_len} positions, "
      f"{cache.cache_bytes()} bytes)\n")

# ------------------------------------------------------------------ #
# 2. Prefill/decode split: TTFT vs TPOT on the published instance.
# ------------------------------------------------------------------ #
cfg = get_model("model2-lhc-trigger")
rep = accel.generation_report(cfg, prompt_len=16, output_len=32)
print(f"{cfg.name}: prompt 16 + output 32 tokens")
print(f"  TTFT (prefill)  : {rep.ttft_ms:8.3f} ms")
print(f"  TPOT (decode)   : {rep.tpot_ms:8.3f} ms/token")
print(f"  end to end      : {rep.total_ms:8.3f} ms "
      f"({rep.tokens_per_s:.1f} tok/s)")
dl = rep.decode_layer
print(f"  decode layer    : {dl.load_total:,} load cycles vs "
      f"{dl.compute_total:,} compute — weight streaming dominates\n")
assert dl.load_total > dl.compute_total

# ------------------------------------------------------------------ #
# 3. Continuous batching under open traffic.
# ------------------------------------------------------------------ #
arrivals = PoissonArrivals(400, ModelMix(cfg.name), seed=0).generate(2_000)
requests = attach_generation_lengths(
    arrivals, LengthSampler("uniform", 8, 16),
    LengthSampler("geometric", 8, 64, mean_extra=12.0),
    seed=1, max_total=accel.synth.max_seq_len)
report = summarize_generation(
    simulate_generation(accel, requests, n_instances=2, slots=8),
    ttft_slo_ms=50.0, tpot_slo_ms=5.0)
print(render_generation_report(report,
                               title="Poisson 400 qps, 2 instances x 8 slots"))

# The continuous-batching win: single-sequence slots serialize whole
# requests, so under the same load the queue (and the TTFT tail) grows.
solo = summarize_generation(
    simulate_generation(accel, requests, n_instances=2, slots=1))
print(f"\nslots=8 vs slots=1: mean TTFT {report.mean_ttft_ms:.2f} ms vs "
      f"{solo.mean_ttft_ms:.2f} ms, p99 TTFT {report.p99_ttft_ms:.2f} ms "
      f"vs {solo.p99_ttft_ms:.2f} ms")
assert report.p99_ttft_ms < solo.p99_ttft_ms

# ------------------------------------------------------------------ #
# 4. Pipeline-parallel decode: per-token microbatches through stages.
# ------------------------------------------------------------------ #
big = get_model("bert-variant")
decode = PipelinePartitioner(accel).decode_report(
    big, n_devices=4, prompt_len=32, output_len=32)
print(f"\n{big.name} across {decode.num_stages} stages "
      f"({decode.link.name}):")
print(f"  TTFT through pipeline : {decode.ttft_ms:8.3f} ms")
print(f"  per-token latency     : {decode.per_token_ms:8.3f} ms")
print(f"  one sequence          : {decode.sequential_tokens_per_s:8.1f} tok/s")
print(f"  pipeline full         : {decode.steady_tokens_per_s:8.1f} tok/s")
assert decode.steady_tokens_per_s > decode.sequential_tokens_per_s

print("\nAll generation-path checks passed.")
