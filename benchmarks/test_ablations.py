"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation sweeps one modelling/design axis on the BERT-variant
workload and prints a table: what the published design chose, what the
alternatives would have cost.  These answer the "why" questions the
paper leaves implicit:

* **buffering** — how much would double-buffered weight tiles save?
* **AXI width** — how sensitive is latency to the load-path width?
* **sequence chunk** — what does the 64-deep score buffer cost at
  SL=128?
* **attention-score scaling** — Eq. (1) vs the Algorithm-2 divisor
  (accuracy, not latency).
"""

import numpy as np
import pytest

from repro.analysis import render_table
from repro.core import DatapathFormats
from repro.core.attention_module import AttentionModule
from repro.core.ffn_module import FFNModule
from repro.core.latency import LatencyModel, LatencyOptions
from repro.isa import SynthParams
from repro.memory import AXI4Master
from repro.nn import BERT_VARIANT


def _latency_ms(double_buffered=False, axi_bits=64, seq_chunk=64,
                seq_len=64):
    synth = SynthParams(seq_chunk=seq_chunk)
    fmts = DatapathFormats.fix8()
    options = LatencyOptions(double_buffered=double_buffered,
                             axi=AXI4Master(data_bits=axi_bits))
    model = LatencyModel(synth, AttentionModule(synth, fmts),
                         FFNModule(synth, fmts), options)
    cfg = BERT_VARIANT if seq_len == 64 else BERT_VARIANT.with_(
        seq_len=seq_len)
    return model.evaluate(cfg, 200.0).latency_ms


def test_ablation_double_buffering(benchmark, save_artifact):
    def sweep():
        return [_latency_ms(double_buffered=db) for db in (False, True)]

    serial, overlapped = benchmark(sweep)
    assert overlapped < serial
    text = render_table(
        ["buffering", "latency_ms", "saving_%"],
        [("single (published)", round(serial, 1), 0.0),
         ("double", round(overlapped, 1),
          round(100 * (1 - overlapped / serial), 1))],
        title="Ablation: weight-tile buffering")
    save_artifact("ablation_buffering.txt", text)
    print("\n" + text)


def test_ablation_axi_width(benchmark, save_artifact):
    widths = [32, 64, 128, 256, 512]

    def sweep():
        return [_latency_ms(axi_bits=w) for w in widths]

    lat = benchmark(sweep)
    assert lat == sorted(lat, reverse=True)  # wider is never slower
    text = render_table(
        ["axi_bits", "latency_ms"],
        [(w, round(v, 1)) for w, v in zip(widths, lat)],
        title="Ablation: weight-load AXI width")
    save_artifact("ablation_axi_width.txt", text)
    print("\n" + text)


def test_ablation_sequence_chunk(benchmark, save_artifact):
    """At SL=128, a 128-deep score buffer removes the chunk-pair
    overhead of the attention engines."""
    def sweep():
        return {c: _latency_ms(seq_chunk=c, seq_len=128)
                for c in (32, 64, 128)}

    lat = benchmark(sweep)
    assert lat[128] < lat[32]
    text = render_table(
        ["seq_chunk", "latency_ms @ SL=128"],
        [(k, round(v, 1)) for k, v in sorted(lat.items())],
        title="Ablation: attention sequence chunk")
    save_artifact("ablation_seq_chunk.txt", text)
    print("\n" + text)


def test_ablation_score_scaling_accuracy(benchmark, save_artifact):
    """Eq. (1)'s 1/sqrt(d_k) vs Algorithm 2's 1/d_model divisor: the
    latter shrinks scores ~2.9x (d=64, dk=32 here), flattening the
    softmax — measurably worse agreement with the float encoder."""
    from repro import ProTEA
    from repro.nn import TransformerConfig, build_encoder

    cfg = TransformerConfig("abl", d_model=64, num_heads=2, num_layers=2,
                            seq_len=16)
    synth = SynthParams(ts_mha=16, ts_ffn=32, max_heads=2, max_layers=2,
                        max_d_model=64, max_seq_len=16, seq_chunk=16)
    enc = build_encoder(cfg, seed=5)
    x = np.random.default_rng(5).normal(0, 0.5, (16, 64))
    golden = enc(x)

    def run_both():
        out = {}
        for mode in ("sqrt_dk", "paper_alg2"):
            accel = ProTEA.synthesize(synth, scale_mode=mode,
                                      enforce_fit=False)
            accel.program(cfg).load_weights(enc)
            y = accel.run(x)
            out[mode] = float(np.sqrt(np.mean((y - golden) ** 2)))
        return out

    errs = benchmark.pedantic(run_both, rounds=1, iterations=1)
    assert errs["sqrt_dk"] <= errs["paper_alg2"] * 1.5
    text = render_table(
        ["scale mode", "RMS error vs float golden"],
        [(k, f"{v:.4f}") for k, v in errs.items()],
        title="Ablation: attention-score scaling (Eq.1 vs Algorithm 2)")
    save_artifact("ablation_score_scaling.txt", text)
    print("\n" + text)
