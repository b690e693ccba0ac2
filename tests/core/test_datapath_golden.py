"""Frozen fixed-point datapath: raw codes and cycle counts, digested.

The executor-equals-``run_fx`` and incremental-equals-full tests hold
two paths to each other; when both paths run the same head kernel,
they cannot see a change to it.  This suite pins every path to codes
frozen once: the sha256 of the raw int64 codes of ``ProTEA.run_fx``,
of each head's scores and probabilities in ``AttentionModule.forward``,
of ``ProgramExecutor.run``, of ``DecoderModule.forward`` and of
``FxDecoderKVCache.prefill``, plus the cycle dicts of the encoder
prefill, the KV-cache decode step and the decoder layer.

It covers both synthesized tilings (the published 64/128 and a ragged
32/96 one), both datapath widths, both score scalings and both
activations: 16 configurations on small shapes.  Synthesis does not
enforce fit, since the 64/128 fix16 instance overflows the U55C's BRAM.
"""

import itertools

import numpy as np
import pytest

from repro import ProTEA
from repro.core import DatapathFormats, DecoderModule, QuantizedDecoder
from repro.core.kv_cache import FxDecoderKVCache
from repro.core.runtime import ProgramExecutor
from repro.fixedpoint import FxTensor
from repro.isa import SynthParams
from repro.nn import Decoder, TransformerConfig, build_encoder

from .._goldens import load, sha256

SYNTHS = {"ts64x128": SynthParams(),
          "ts32x96": SynthParams(ts_mha=32, ts_ffn=96)}
FORMATS = {"fix8": DatapathFormats.fix8, "fix16": DatapathFormats.fix16}
SCALES = ("sqrt_dk", "paper_alg2")
ACTIVATIONS = ("gelu", "relu")

#: ``synth/format/scale/activation`` -> the knobs of one configuration.
GROUPS = {"/".join(k): k
          for k in itertools.product(SYNTHS, FORMATS, SCALES, ACTIVATIONS)}

SEQ_LEN, D_MODEL, NUM_HEADS, NUM_LAYERS = 24, 64, 4, 2
TGT_LEN, MEM_LEN = 9, 20

#: ``(d_model, num_heads)`` of the cycle sweeps: a small head, the
#: published shape, a narrow head and an oversized one that folds
#: into several QK reduction passes.
CYCLE_SHAPES = ((64, 4), (768, 8), (768, 12), (512, 2))
#: Lengths on both sides of the 64-row chunk and past two chunks.
PREFILL_LENS = (1, 24, 63, 64, 65, 128, 200)
CACHE_LENS = (1, 24, 64, 65, 128, 300)
DECODER_LENS = ((9, 20), (1, 1), (64, 65), (130, 7), (24, 128))


def codes(t: FxTensor) -> str:
    """sha256 of a tensor's shape and raw codes as little-endian int64."""
    raw = np.ascontiguousarray(t.raw, dtype="<i8")
    return sha256(repr(raw.shape).encode() + raw.tobytes())


def cycles(rows) -> str:
    return sha256(repr([sorted(r.items()) for r in rows]))


def group_digests(synth_name, fmt, scale_mode, activation) -> dict:
    synth, formats = SYNTHS[synth_name], FORMATS[fmt]()
    rng = np.random.default_rng(
        list(GROUPS).index(f"{synth_name}/{fmt}/{scale_mode}/{activation}"))
    cfg = TransformerConfig("golden", D_MODEL, NUM_HEADS, NUM_LAYERS,
                            SEQ_LEN, activation=activation)
    accel = ProTEA.synthesize(synth, formats=formats, scale_mode=scale_mode,
                              enforce_fit=False)
    accel.program(cfg).load_weights(build_encoder(cfg, seed=5))
    x = FxTensor.from_float(rng.normal(0, 0.5, (SEQ_LEN, D_MODEL)),
                            formats.activation)
    _, heads = accel.attention.forward(x, accel.weights.layers[0])

    decoder = Decoder.initialize(rng, NUM_LAYERS, D_MODEL, NUM_HEADS,
                                 activation=activation)
    module = DecoderModule(synth, formats, scale_mode)
    weights = QuantizedDecoder.from_decoder(decoder, formats)
    tgt = FxTensor.from_float(rng.normal(0, 0.5, (TGT_LEN, D_MODEL)),
                              formats.activation)
    memory = FxTensor.from_float(rng.normal(0, 0.5, (MEM_LEN, D_MODEL)),
                                 formats.activation)
    cache = FxDecoderKVCache.initialize(module, weights, memory)

    att = accel.attention
    return {
        "run_fx": codes(accel.run_fx(x)),
        "scores": [codes(h.scores) for h in heads],
        "probs": [codes(h.probs) for h in heads],
        "executor": codes(ProgramExecutor(accel, accel.weights).run(x)),
        "decoder": codes(module.forward(tgt, memory, weights)),
        "prefill": codes(cache.prefill(tgt)),
        "cycles.prefill": cycles(att.compute_cycles(n, d, h)
                                 for d, h in CYCLE_SHAPES
                                 for n in PREFILL_LENS),
        "cycles.decode": cycles(att.decode_compute_cycles(n, d, h)
                                for d, h in CYCLE_SHAPES
                                for n in CACHE_LENS),
        "cycles.decoder": cycles(module.compute_cycles(t, m, d, h)
                                 for d, h in CYCLE_SHAPES
                                 for t, m in DECODER_LENS),
    }


@pytest.fixture(scope="module")
def digests():
    return {group: group_digests(*knobs) for group, knobs in GROUPS.items()}


@pytest.fixture(scope="module")
def golden(digests):
    return load("datapath_digests.json", lambda: digests)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_datapath_matches_frozen_digest(digests, golden, group):
    assert digests[group] == golden[group]


def test_golden_covers_every_group(golden):
    assert sorted(golden) == sorted(GROUPS)
