"""End-to-end latency model: compute cycles + weight/input loads.

Composition per encoder layer (all cycle counts at the kernel clock):

* **MHA stage** — per tile iteration, every active head's Wq/Wk/Wv tile
  plus the shared X tile stream over the (single, shared) weight-load
  AXI master, then the QKV engines compute; QK → softmax → SV follow
  with no further off-chip traffic.
* **FFN stages** — per tile invocation, one weight tile load (only
  *real* weights are fetched — output-grid invocations past the
  runtime ``d_model`` compute on zero-gated lanes without traffic)
  then the engine sweep.
* Loads and compute serialize by default (the published design
  single-buffers its weight tiles; BRAM was spent on banking width,
  not depth).  ``double_buffered=True`` enables the Section V overlap
  study — the model then hides each tile's load under the previous
  tile's compute.

The FFN output-dimension invocation grid stays at the synthesized
maximum while only the reduction-dim tile count tracks the runtime
``d_model`` — reproducing the *linear* latency scaling in ``d_model``
the paper measures (Tests 6–7), where a naive model would predict
quadratic.

Prefill (:meth:`LatencyModel.layer_cycles`), a KV-cache decode step
(:meth:`LatencyModel.decode_layer_cycles`) and one device's share of a
head-wise tensor-parallel stage (``layer_cycles(..., tp=k)``) all price
through one private function; only the engine cycle dicts and the input
row count differ.  Tile byte sizes come from the engine modules.

Each :class:`LatencyModel` memoizes its two entry points per synthesized
instance: ``evaluate`` by ``(config, clock_mhz)`` and
``decode_layer_cycles`` by its arguments.  Reports are frozen, so a
shared entry cannot be reassigned.  A DSE sweep visits each design
variant many times (one per fleet size, scheduler and surrogate pass),
and a generation report walks the same cache lengths for every one of
them; with the memo each variant pays for each distinct question once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .._checks import check_count
from ..isa.controller import (
    ConfigRegisterFile,
    ResynthesisRequiredError,
    SynthParams,
)
from ..memory.axi import AXI4Master
from ..memory.dma import TilePhase, overlapped_cycles, serialized_cycles
from ..memory.hbm import HBMSubsystem
from ..nn.model_zoo import TransformerConfig
from .attention_module import AttentionModule
from .ffn_module import FFNModule

__all__ = ["LatencyOptions", "LayerLatency", "LatencyReport",
           "GenerationReport", "LatencyModel"]


@dataclass(frozen=True)
class LatencyOptions:
    """Knobs of the latency composition (defaults = published design)."""

    double_buffered: bool = False
    axi: AXI4Master = field(default_factory=lambda: AXI4Master(data_bits=64))
    hbm: HBMSubsystem = field(default_factory=HBMSubsystem)


@dataclass(frozen=True)
class LayerLatency:
    """Cycle breakdown of one encoder layer."""

    compute: Dict[str, int]
    loads: Dict[str, int]
    total: int

    @property
    def compute_total(self) -> int:
        return sum(self.compute.values())

    @property
    def load_total(self) -> int:
        return sum(self.loads.values())


@dataclass(frozen=True)
class LatencyReport:
    """Whole-model latency at a given clock."""

    layer: LayerLatency
    num_layers: int
    clock_mhz: float
    config: TransformerConfig

    @property
    def total_cycles(self) -> int:
        return self.layer.total * self.num_layers

    @property
    def latency_ms(self) -> float:
        return self.total_cycles / (self.clock_mhz * 1e3)

    @property
    def latency_s(self) -> float:
        return self.latency_ms / 1e3

    def breakdown_ms(self) -> Dict[str, float]:
        """Per-engine milliseconds over the whole model."""
        scale = self.num_layers / (self.clock_mhz * 1e3)
        out = {k: v * scale for k, v in self.layer.compute.items()}
        out.update({f"load_{k}": v * scale for k, v in self.layer.loads.items()})
        return out


@dataclass
class GenerationReport:
    """Prefill/decode latency split of one autoregressive invocation.

    Prefill is the existing full-sequence pass at the prompt length and
    produces the first token (TTFT).  Each subsequent token is one
    decode step whose weight-streaming cost is fixed (every layer's
    tiles stream again — batch size one amortizes nothing) and whose
    attention cost grows with the KV-cache length.
    """

    config: TransformerConfig
    prompt_len: int
    output_len: int
    clock_mhz: float
    prefill: LatencyReport
    #: Whole-model decode cycles per generated token after the first
    #: (token ``i`` attends over ``prompt_len + i + 1`` cached keys).
    decode_step_cycles: List[int]
    #: One decode step's layer breakdown at the final cache length.
    decode_layer: LayerLatency

    @property
    def ttft_ms(self) -> float:
        """Time to first token = the prefill pass."""
        return self.prefill.latency_ms

    @property
    def decode_ms(self) -> float:
        """Total decode time across the remaining tokens."""
        return sum(self.decode_step_cycles) / (self.clock_mhz * 1e3)

    @property
    def tpot_ms(self) -> float:
        """Mean time per output token after the first (0 if none)."""
        steps = len(self.decode_step_cycles)
        return self.decode_ms / steps if steps else 0.0

    @property
    def total_ms(self) -> float:
        return self.ttft_ms + self.decode_ms

    @property
    def tokens_per_s(self) -> float:
        """Output tokens per second over the whole invocation."""
        return self.output_len / (self.total_ms / 1e3)

    @property
    def decode_tokens_per_s(self) -> float:
        """Steady decode rate (excludes prefill; inf-free: 0 if none)."""
        return (len(self.decode_step_cycles) / (self.decode_ms / 1e3)
                if self.decode_step_cycles else 0.0)

    def as_dict(self) -> dict:
        return {
            "model": self.config.name,
            "prompt_tokens": self.prompt_len,
            "output_tokens": self.output_len,
            "clock_mhz": self.clock_mhz,
            "ttft_ms": self.ttft_ms,
            "tpot_ms": self.tpot_ms,
            "decode_ms": self.decode_ms,
            "total_ms": self.total_ms,
            "tokens_per_s": self.tokens_per_s,
            "decode_tokens_per_s": self.decode_tokens_per_s,
        }


class LatencyModel:
    """Latency evaluator for one synthesized accelerator instance.

    :meth:`evaluate` and :meth:`decode_layer_cycles` are pure functions
    of the synthesized parameters and their arguments, so each instance
    memoizes them: a sweep, a planner or a generation engine that asks
    the same variant the same question again gets the first (frozen)
    result back.  A call that raises stores nothing and raises again.
    """

    def __init__(
        self,
        synth: SynthParams,
        attention: AttentionModule,
        ffn: FFNModule,
        options: LatencyOptions | None = None,
    ):
        self.synth = synth
        self.attention = attention
        self.ffn = ffn
        self.options = options or LatencyOptions()
        self._reports: Dict[Tuple[TransformerConfig, float],
                            LatencyReport] = {}
        self._decode_layers: Dict[Tuple[int, int, int], LayerLatency] = {}

    # ------------------------------------------------------------------
    def _xfer(self, nbytes: int) -> int:
        """Cycles for one load through the shared AXI weight port."""
        return self.options.hbm.transfer_cycles(nbytes, self.options.axi)

    def _stage(self, n_tiles: int, load: int, compute: int) -> int:
        """Total for a tiled stage under the configured buffering."""
        phases = [TilePhase(load=load, compute=compute)] * n_tiles
        if self.options.double_buffered:
            return overlapped_cycles(phases).total
        return serialized_cycles(phases).total

    # ------------------------------------------------------------------
    def _layer(self, att: Dict[str, int], ffn: Dict[str, int], rows: int,
               d_model: int, num_heads: int, tp: int = 1) -> LayerLatency:
        """The per-layer cycle model every entry point prices through.

        ``att``/``ffn`` are the engines' compute-cycle dicts for the
        pass, ``rows`` the input rows streamed per X tile (the sequence
        for prefill, one for a decode step) and ``tp`` the head-wise
        split; the result is one device's share.
        """
        if num_heads % tp:
            raise ValueError(
                f"num_heads={num_heads} not divisible by tp={tp}")
        synth = self.synth
        # --- MHA: per tile, the local heads' W tiles + the shared X
        # tile.  Per-head engines run in parallel, so compute cycles are
        # head-count (and tp) independent.
        tiles_mha = max(1, math.ceil(d_model / synth.ts_mha))
        qkv_tile_load = (
            num_heads // tp * self._xfer(
                self.attention.weight_bytes_per_tile(d_model, num_heads))
            + self._xfer(self.attention.input_bytes_per_tile(rows)))
        total = (self._stage(tiles_mha, qkv_tile_load,
                             att["qkv"] // tiles_mha)
                 + att["qk"] + att["softmax"] + att["sv"] + ffn["ln"])
        compute = {k: att[k] for k in ("qkv", "qk", "softmax", "sv")}
        loads: Dict[str, int] = {}

        # --- FFN: only real weight tiles load; the synthesized
        # output-grid sweep is hardware (zero-gated lanes still cycle).
        # A tp split is Megatron-style at tile granularity: FFN1/FFN3
        # reduce only the local rows, FFN2 computes a column slice.
        t_in = max(1, math.ceil(d_model / synth.ts_ffn))
        r_local = max(1, math.ceil(t_in / tp))
        c4_local = max(1, math.ceil(math.ceil(4 * d_model / synth.ts_ffn)
                                    / tp))
        grid = self.ffn.tile_grid(d_model)
        tile_bytes = self.ffn.weight_bytes_per_tile()
        for name, inv, real in (
                ("ffn1", r_local * synth.tiles_ffn_max, r_local * t_in),
                ("ffn2", grid["ffn2"], t_in * c4_local),
                ("ffn3", r_local * synth.tiles_ffn_max, r_local * t_in)):
            per_inv = ffn[name] // grid[name]
            n_loaded = min(real, inv)
            load = self._xfer(tile_bytes[name])
            total += (self._stage(n_loaded, load, per_inv)
                      + (inv - n_loaded) * per_inv)
            compute[name] = inv * per_inv
            loads[name] = n_loaded * load
        compute["ln"] = ffn["ln"]
        loads["qkv"] = tiles_mha * qkv_tile_load
        return LayerLatency(compute=compute, loads=loads, total=total)

    def layer_cycles(
        self, seq_len: int, d_model: int, num_heads: int, tp: int = 1
    ) -> LayerLatency:
        """One encoder layer's full cycle breakdown on one of ``tp``
        devices sharing its heads (the collectives are priced by
        :func:`repro.parallel.partition.tp_allreduce_cycles`)."""
        return self._layer(
            self.attention.compute_cycles(seq_len, d_model, num_heads),
            self.ffn.compute_cycles(seq_len, d_model),
            seq_len, d_model, num_heads, tp)

    def decode_layer_cycles(
        self, cache_len: int, d_model: int, num_heads: int
    ) -> LayerLatency:
        """One KV-cache decode step's cycle breakdown for one layer.

        The weight-streaming term dominates: every Q/K/V and FFN weight
        tile streams again for a single new row, so loads are the full
        per-layer traffic while compute shrinks to one row — except the
        score-path engines (QK/softmax/SV), which sweep the whole
        ``cache_len``-deep cache and grow with generated length.
        """
        key = (cache_len, d_model, num_heads)
        # Checked before the memo, where True would find 1's entry.
        for name, value in zip(("cache_len", "d_model", "num_heads"), key):
            check_count(name, value)
        layer = self._decode_layers.get(key)
        if layer is None:
            layer = self._decode_layers[key] = self._layer(
                self.attention.decode_compute_cycles(*key),
                self.ffn.compute_cycles(1, d_model), 1, d_model, num_heads)
        return layer

    def generation_report(
        self,
        config: TransformerConfig,
        prompt_len: int,
        output_len: int,
        clock_mhz: float,
    ) -> GenerationReport:
        """Prefill + per-token decode latency of one generation call.

        The KV cache must hold every prompt *and* output position in
        the synthesized score/SV buffers, so ``prompt_len + output_len``
        is validated against ``max_seq_len`` exactly like a programmed
        sequence length.
        """
        if prompt_len < 1 or output_len < 1:
            raise ValueError("prompt_len and output_len must be >= 1")
        total_len = prompt_len + output_len
        if total_len > self.synth.max_seq_len:
            raise ResynthesisRequiredError(
                f"generation needs a {total_len}-position KV cache "
                f"(prompt {prompt_len} + output {output_len}) but the "
                f"synthesized buffers stop at max_seq_len="
                f"{self.synth.max_seq_len}")
        prefill = self.evaluate(config.with_(seq_len=prompt_len), clock_mhz)
        steps = [
            self.decode_layer_cycles(prompt_len + i + 1, config.d_model,
                                     config.num_heads).total
            * config.num_layers
            for i in range(output_len - 1)
        ]
        final_layer = self.decode_layer_cycles(total_len - 1 if output_len > 1
                                               else prompt_len + 1,
                                               config.d_model,
                                               config.num_heads)
        return GenerationReport(
            config=config,
            prompt_len=prompt_len,
            output_len=output_len,
            clock_mhz=clock_mhz,
            prefill=prefill,
            decode_step_cycles=steps,
            decode_layer=final_layer,
        )

    # ------------------------------------------------------------------
    def evaluate(
        self, config: TransformerConfig, clock_mhz: float
    ) -> LatencyReport:
        """Latency of a runtime-programmed workload at ``clock_mhz``.

        Programs a register file first so every synthesized-maximum
        constraint is enforced exactly once, here.
        """
        key = (config, clock_mhz)
        report = self._reports.get(key)
        if report is None:
            csr = ConfigRegisterFile(self.synth)
            csr.program(config)
            layer = self.layer_cycles(config.seq_len, config.d_model,
                                      config.num_heads)
            report = self._reports[key] = LatencyReport(
                layer=layer, num_layers=config.num_layers,
                clock_mhz=clock_mhz, config=config)
        return report
