"""Frozen per-layer cycle model: every ``LayerLatency`` field, digested.

The Tables I-III / Fig. 7 tests pin a handful of end-to-end numbers;
this suite pins the per-layer breakdown under all of them.  For every
``MODEL_ZOO`` config it hashes the full ``compute``/``loads``/``total``
of a prefill layer at each tensor-parallel width the heads divide
(``tp`` in 1, 2, 4) and of a KV-cache decode step at four cache
lengths, under both buffering modes, both datapath widths and two
synthesized tilings (the published 64/128 and a ragged 32/96 one).
Prefill, decode and tensor-parallel stages share one cycle model, so a
change to any of them shows up here as a digest mismatch.
"""

import itertools

import pytest

from repro.core.attention_module import AttentionModule
from repro.core.engines import DatapathFormats
from repro.core.ffn_module import FFNModule
from repro.core.latency import LatencyModel, LatencyOptions
from repro.isa.controller import SynthParams
from repro.nn import MODEL_ZOO

from .._goldens import load, sha256

SYNTHS = {"ts64x128": SynthParams(),
          "ts32x96": SynthParams(ts_mha=32, ts_ffn=96)}
FORMATS = {"fix8": DatapathFormats.fix8, "fix16": DatapathFormats.fix16}
BUFFERING = {"single": False, "double": True}
TP_WAYS = (1, 2, 4)
CACHE_LENS = (1, 16, 64, 128)

#: ``synth/format/buffering`` -> the knobs that build its model.
GROUPS = {f"{s}/{f}/{b}": (s, f, b)
          for s, f, b in itertools.product(SYNTHS, FORMATS, BUFFERING)}


def layer_digest(layer) -> dict:
    """The frozen summary of one ``LayerLatency``: its total plus a
    hash over every compute and load entry."""
    text = repr((sorted(layer.compute.items()), sorted(layer.loads.items()),
                 layer.total))
    return {"total": layer.total, "sha256": sha256(text)}


def group_digests(synth_name, fmt, buffering) -> dict:
    synth = SYNTHS[synth_name]
    formats = FORMATS[fmt]()
    model = LatencyModel(
        synth, AttentionModule(synth, formats), FFNModule(synth, formats),
        LatencyOptions(double_buffered=BUFFERING[buffering]))
    out = {}
    for name, cfg in sorted(MODEL_ZOO.items()):
        for tp in TP_WAYS:
            if cfg.num_heads % tp == 0:
                out[f"{name}/tp{tp}"] = layer_digest(model.layer_cycles(
                    cfg.seq_len, cfg.d_model, cfg.num_heads, tp=tp))
        for cache_len in CACHE_LENS:
            out[f"{name}/decode{cache_len}"] = layer_digest(
                model.decode_layer_cycles(cache_len, cfg.d_model,
                                          cfg.num_heads))
    return out


@pytest.fixture(scope="module")
def digests():
    return {group: group_digests(*knobs) for group, knobs in GROUPS.items()}


@pytest.fixture(scope="module")
def golden(digests):
    return load("layer_latency.json", lambda: digests)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_layers_match_frozen_digest(digests, golden, group):
    assert digests[group] == golden[group]


def test_golden_covers_every_group(golden):
    assert sorted(golden) == sorted(GROUPS)
