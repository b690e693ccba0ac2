"""Runtime layer: instruction-level execution and reprogramming sessions.

Two pieces:

* :class:`ProgramExecutor` — executes a *compiled instruction stream*
  against tile-granular engine state.  This is the controller-eye view
  of the accelerator: every LOAD marks a tile resident, every RUN
  performs exactly that tile's reduction into its accumulator, and
  running a tile that was never loaded raises (catching
  compiler/controller bugs).  Once a head's or an FFN engine's
  accumulators are complete, the executor finalizes them and hands off
  to the same module code :meth:`repro.core.accelerator.ProTEA.run_fx`
  runs: the head kernel (``AttentionModule.attend``), the activation
  and the layer norms.  Its final output is bit-identical to
  ``run_fx`` (the integration tests) and frozen in
  ``tests/goldens/datapath_digests.json``.
* :class:`RuntimeSession` — the user-facing "no resynthesis" workflow:
  hop between models on one synthesized instance, accumulating
  reprogramming statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..fixedpoint import FxTensor, saturate
from ..isa.compiler import compile_program
from ..isa.instructions import Instruction, Opcode
from ..isa.interpreter import Interpreter
from ..nn.model_zoo import TransformerConfig
from .accelerator import ProTEA
from .engines import _accumulate_fmt, add_bias_and_requantize
from .quantized import QuantizedEncoder, QuantizedLayer

__all__ = ["ProgramExecutor", "RuntimeSession", "TileNotResidentError"]


class TileNotResidentError(RuntimeError):
    """A RUN instruction referenced a tile that was never loaded."""


@dataclass
class _LayerState:
    """Mutable per-layer execution state of the executor."""

    x: FxTensor
    qkv_acc: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict)
    qkv_tiles: Set[Tuple[int, int]] = field(default_factory=set)
    head_out: Dict[int, FxTensor] = field(default_factory=dict)
    concat: Optional[FxTensor] = None
    ffn_acc: Dict[int, np.ndarray] = field(default_factory=dict)
    ffn_tiles: Dict[int, Set[int]] = field(default_factory=dict)
    ffn_in: Dict[int, FxTensor] = field(default_factory=dict)
    ln1_out: Optional[FxTensor] = None
    out: Optional[FxTensor] = None


class ProgramExecutor:
    """Executes compiled programs tile by tile (see module docstring)."""

    def __init__(self, accel: ProTEA, weights: QuantizedEncoder):
        self.accel = accel
        self.weights = weights
        self._state: Optional[_LayerState] = None
        self._layer_idx = -1
        self._output: Optional[FxTensor] = None
        self.interp = Interpreter()
        self.interp.register_many({
            Opcode.CONFIGURE: self._nop,
            Opcode.LOAD_BIASES: self._nop,
            Opcode.LOAD_INPUT: self._nop,
            Opcode.LOAD_QKV_WEIGHTS: self._load_qkv,
            Opcode.LOAD_FFN_WEIGHTS: self._load_ffn,
            Opcode.RUN_QKV: self._run_qkv,
            Opcode.RUN_QK: self._run_attention_head,
            Opcode.RUN_SOFTMAX: self._nop,   # fused into RUN_QK handler
            Opcode.RUN_SV: self._nop,        # fused into RUN_QK handler
            Opcode.RUN_FFN1: self._run_ffn,
            Opcode.RUN_FFN2: self._run_ffn,
            Opcode.RUN_FFN3: self._run_ffn,
            Opcode.RUN_LN1: self._run_ln1,
            Opcode.RUN_LN2: self._run_ln2,
            Opcode.STORE_OUTPUT: self._store,
        })

    # ------------------------------------------------------------------
    def run(self, x: FxTensor) -> FxTensor:
        """Compile + execute the programmed workload on input ``x``."""
        cfg = self.accel.config
        program = compile_program(cfg, self.accel.synth)
        self._state = _LayerState(x=x)
        self._layer_idx = 0
        self._output = None
        self.interp.run(program)
        if self._output is None:
            raise RuntimeError("program halted without STORE_OUTPUT")
        return self._output

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _nop(self, instr: Instruction) -> None:
        self._maybe_advance_layer(instr)

    def _maybe_advance_layer(self, instr: Instruction) -> None:
        if instr.opcode is Opcode.CONFIGURE:
            return
        if instr.layer != self._layer_idx:
            # The previous layer must have completed (LN2 ran).
            state = self._state
            assert state is not None
            if state.out is None:
                raise RuntimeError(
                    f"layer {self._layer_idx} never finalized before "
                    f"layer {instr.layer} began"
                )
            self._state = _LayerState(x=state.out)
            self._layer_idx = instr.layer

    def _layer(self) -> QuantizedLayer:
        return self.weights.layers[self._layer_idx]

    def _tile_bounds(self, index: int) -> Tuple[int, int]:
        ts = self.accel.synth.ts_mha
        d = self.accel.config.d_model
        start = index * ts
        return start, min(start + ts, d)

    # ------------------------------------------------------------------
    # attention
    # ------------------------------------------------------------------
    def _load_qkv(self, instr: Instruction) -> None:
        self._maybe_advance_layer(instr)
        assert self._state is not None
        self._state.qkv_tiles.add((instr.head, instr.tile))

    def _run_qkv(self, instr: Instruction) -> None:
        self._maybe_advance_layer(instr)
        state = self._state
        assert state is not None
        cfg = self.accel.config
        layer = self._layer()
        start, stop = self._tile_bounds(instr.tile)
        x_tile = state.x.raw[:, start:stop]
        for head in range(cfg.num_heads):
            if (head, instr.tile) not in state.qkv_tiles:
                raise TileNotResidentError(
                    f"QKV tile {instr.tile} for head {head} not loaded"
                )
            if head not in state.qkv_acc:
                d_k = cfg.d_model // cfg.num_heads
                z = lambda: np.zeros((cfg.seq_len, d_k), dtype=np.int64)  # noqa: E731
                state.qkv_acc[head] = (z(), z(), z())
            accs = state.qkv_acc[head]
            for acc, q in zip(accs, (layer.wq[head], layer.wk[head],
                                     layer.wv[head])):
                acc += x_tile @ q.weight.raw[start:stop, :]

    def _run_attention_head(self, instr: Instruction) -> None:
        """RUN_QK: finalize the head's Q/K/V accumulators and run the
        attention module's head kernel (the RUN_SOFTMAX / RUN_SV
        instructions are the occupancy markers for those engines;
        arithmetic happens here)."""
        self._maybe_advance_layer(instr)
        state = self._state
        assert state is not None
        head = instr.head
        layer = self._layer()
        d = self.accel.config.d_model
        # Reconstruct accumulator-format tensors exactly as the module does.
        fmt = _accumulate_fmt(state.x.fmt, layer.wq[head].weight.fmt, d)
        q, k, v = (
            add_bias_and_requantize(FxTensor(saturate(acc, fmt), fmt),
                                    lin.bias, self.accel.formats.qkv)
            for acc, lin in zip(state.qkv_acc[head], (
                layer.wq[head], layer.wk[head], layer.wv[head])))
        _, _, state.head_out[head] = self.accel.attention.attend(q, k, v, d)

    # ------------------------------------------------------------------
    # FFN
    # ------------------------------------------------------------------
    def _ensure_concat(self) -> None:
        state = self._state
        assert state is not None
        if state.concat is None:
            state.concat = self.accel.attention.concat(
                [state.head_out[h] for h in range(self.accel.config.num_heads)])
            state.ffn_in[1] = state.concat

    def _ffn_weight(self, engine: int) -> FxTensor:
        layer = self._layer()
        return {1: layer.wo.weight, 2: layer.w1.weight,
                3: layer.w2.weight}[engine]

    def _load_ffn(self, instr: Instruction) -> None:
        self._maybe_advance_layer(instr)
        assert self._state is not None
        self._state.ffn_tiles.setdefault(instr.arg, set()).add(instr.tile)

    def _engine_of(self, opcode: Opcode) -> int:
        return {Opcode.RUN_FFN1: 1, Opcode.RUN_FFN2: 2, Opcode.RUN_FFN3: 3}[
            opcode]

    def _run_ffn(self, instr: Instruction) -> None:
        self._maybe_advance_layer(instr)
        state = self._state
        assert state is not None
        engine = self._engine_of(instr.opcode)
        if engine == 1:
            self._ensure_concat()
        if engine == 2 and 2 not in state.ffn_in:
            raise RuntimeError("FFN2 ran before LN1 produced its input")
        if engine == 3 and 3 not in state.ffn_in:
            self._finalize_ffn2()

        synth = self.accel.synth
        cfg = self.accel.config
        w = self._ffn_weight(engine)
        x_in = state.ffn_in[engine]
        d_in = x_in.raw.shape[1]
        d_out = w.raw.shape[1]
        t_in = max(1, math.ceil(cfg.d_model / synth.ts_ffn))
        # FFN3 reduces 4*d_model in 4*TS-tall blocks → same t_in blocks.
        row_ts = synth.ts_ffn if engine != 3 else 4 * synth.ts_ffn
        c, r = divmod(instr.tile, t_in)
        c0, c1 = c * synth.ts_ffn, min((c + 1) * synth.ts_ffn, d_out)
        r0, r1 = r * row_ts, min((r + 1) * row_ts, d_in)
        if c0 >= d_out or r0 >= d_in:
            return  # zero-gated grid invocation (no real columns)
        if instr.tile not in state.ffn_tiles.get(engine, set()):
            raise TileNotResidentError(
                f"FFN{engine} tile {instr.tile} not loaded"
            )
        if engine not in state.ffn_acc:
            state.ffn_acc[engine] = np.zeros(
                (cfg.seq_len, d_out), dtype=np.int64)
        state.ffn_acc[engine][:, c0:c1] += (
            x_in.raw[:, r0:r1] @ w.raw[r0:r1, c0:c1]
        )

    def _finalize_linear(self, engine: int, out_fmt) -> FxTensor:
        state = self._state
        assert state is not None
        layer = self._layer()
        lin = {1: layer.wo, 2: layer.w1, 3: layer.w2}[engine]
        x_in = state.ffn_in[engine]
        fmt = _accumulate_fmt(x_in.fmt, lin.weight.fmt, x_in.raw.shape[1])
        wide = FxTensor(saturate(state.ffn_acc[engine], fmt), fmt)
        return add_bias_and_requantize(wide, lin.bias, out_fmt)

    def _finalize_ffn2(self) -> None:
        state = self._state
        assert state is not None
        fmts = self.accel.formats
        hid = self._finalize_linear(2, fmts.hidden)
        hid = self.accel.ffn._activate(hid, self._layer().activation)
        state.ffn_in[3] = hid

    def _run_ln1(self, instr: Instruction) -> None:
        self._maybe_advance_layer(instr)
        state = self._state
        assert state is not None
        layer = self._layer()
        fmts = self.accel.formats
        proj = self._finalize_linear(1, fmts.activation)
        state.ln1_out = self.accel.ffn.layernorm(
            proj, state.x, layer.ln1_gamma, layer.ln1_beta)
        state.ffn_in[2] = state.ln1_out

    def _run_ln2(self, instr: Instruction) -> None:
        self._maybe_advance_layer(instr)
        state = self._state
        assert state is not None
        layer = self._layer()
        fmts = self.accel.formats
        con = self._finalize_linear(3, fmts.activation)
        state.out = self.accel.ffn.layernorm(
            con, state.ln1_out, layer.ln2_gamma, layer.ln2_beta)

    def _store(self, instr: Instruction) -> None:
        state = self._state
        assert state is not None
        if state.out is None:
            raise RuntimeError("STORE_OUTPUT before the last layer finished")
        self._output = state.out


@dataclass
class RuntimeSession:
    """Hop between workloads on one synthesized accelerator.

    Tracks how many times the instance was reprogrammed versus
    resynthesized (the latter is always zero — that is the point).

    ``reprogram_latency_ms`` is the cost model for a *workload switch*:
    CSR writes are microseconds, but swapping to a different model also
    means streaming a new weight set into HBM, so serving simulations
    charge this penalty whenever a deploy changes the programmed
    workload.  Deploying the already-resident workload is free."""

    accel: ProTEA
    reprogram_count: int = 0
    history: List[TransformerConfig] = field(default_factory=list)
    #: Penalty charged when a deploy switches the resident workload.
    reprogram_latency_ms: float = 0.0
    #: Total switch penalty accumulated across this session's deploys.
    reprogram_time_ms: float = 0.0
    #: Deploys that actually changed the resident workload.
    switch_count: int = 0

    def _switches(self, config: TransformerConfig) -> bool:
        """Would deploying ``config`` change the resident workload?"""
        return not self.history or self.history[-1] != config

    def deploy(self, config: TransformerConfig) -> ProTEA:
        """Program a new workload; never resynthesizes."""
        switched = self._switches(config)
        self.accel.program(config)  # validates first; a reject leaves no trace
        if switched:
            self.switch_count += 1
            self.reprogram_time_ms += self.reprogram_latency_ms
        self.reprogram_count += 1
        self.history.append(config)
        return self.accel

    def latency_ms(self, config: TransformerConfig) -> float:
        self.deploy(config)
        return self.accel.latency_ms()

    @property
    def resynthesis_count(self) -> int:
        """Always 0: runtime reprogramming never rebuilds the bitstream."""
        return 0
