"""Event-driven timeline simulation of one inference.

The analytic model in :mod:`repro.core.latency` *sums* per-stage
formulas; this module instead **replays the compiled instruction
stream** against explicit resource constraints — one shared weight-load
AXI port, one engine instance per compute stage (per-head engines run
in parallel as one resource), and a configurable number of tile-buffer
slots — assigning every instruction a start/end cycle.

Two reasons to have both:

1. **Cross-validation** — for the single-buffered design the timeline
   total must agree with the analytic total (the integration tests
   assert a tight bound); a disagreement means one of the two models
   mis-handles a dependency.
2. **Visibility** — the timeline yields per-engine occupancy and an
   ASCII Gantt chart, answering "where do the cycles go?" at
   instruction granularity.

Dependency rules (the dataflow of Figs. 3/4):

* a RUN needs its tile's LOAD finished (and, with ``buffer_slots = s``,
  the load of tile *t* needs the compute of tile *t−s* finished);
* QK/softmax/SV chain per head after the whole QKV tile sweep;
* FFN1 after all SV; LN1 after all FFN1 tiles; FFN2 after LN1; FFN3
  after all FFN2; LN2 after all FFN3; the next layer after LN2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from ..isa.compiler import compile_program
from ..isa.instructions import Opcode
from ..nn.model_zoo import TransformerConfig
from .attention_module import AttentionModule
from .ffn_module import FFNModule
from .latency import LatencyOptions

__all__ = ["TimelineEvent", "Timeline", "TimelineSimulator"]


@dataclass(frozen=True)
class TimelineEvent:
    """One scheduled hardware activity."""

    name: str
    resource: str
    start: int
    end: int
    layer: int

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Timeline:
    """The full event schedule of one inference."""

    events: List[TimelineEvent] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return max((e.end for e in self.events), default=0)

    def occupancy(self) -> Dict[str, float]:
        """Busy fraction per resource over the whole run."""
        total = self.total_cycles or 1
        busy: Dict[str, int] = {}
        for e in self.events:
            busy[e.resource] = busy.get(e.resource, 0) + e.duration
        return {r: b / total for r, b in sorted(busy.items())}

    def by_resource(self, resource: str) -> List[TimelineEvent]:
        return [e for e in self.events if e.resource == resource]

    def gantt(self, width: int = 72) -> str:
        """ASCII Gantt chart, one row per resource."""
        total = self.total_cycles
        if total == 0:
            return "(empty timeline)"
        rows = []
        resources = sorted({e.resource for e in self.events})
        for res in resources:
            line = [" "] * width
            for e in self.by_resource(res):
                a = int(e.start / total * (width - 1))
                b = max(a + 1, int(math.ceil(e.end / total * (width - 1))))
                for i in range(a, min(b, width)):
                    line[i] = "#"
            rows.append(f"{res:12s} |{''.join(line)}|")
        rows.append(f"{'':12s}  0{' ' * (width - 10)}{total:,} cyc")
        return "\n".join(rows)


class TimelineSimulator:
    """Replay a compiled program into a :class:`Timeline`."""

    def __init__(
        self,
        attention: AttentionModule,
        ffn: FFNModule,
        options: LatencyOptions | None = None,
    ):
        self.attention = attention
        self.ffn = ffn
        self.synth = attention.synth
        self.options = options or LatencyOptions()

    # ------------------------------------------------------------------
    def _durations(self, cfg: TransformerConfig) -> Dict[str, int]:
        """Per-instruction durations from the same engine formulas the
        analytic model uses (that is the point of the comparison)."""
        synth = self.synth
        att = self.attention.compute_cycles(cfg.seq_len, cfg.d_model,
                                            cfg.num_heads)
        ffn = self.ffn.compute_cycles(cfg.seq_len, cfg.d_model)
        grid = self.ffn.tile_grid(cfg.d_model)
        tiles_mha = max(1, math.ceil(cfg.d_model / synth.ts_mha))
        xfer = self.options.hbm.transfer_cycles
        axi = self.options.axi
        ffn_tile = self.ffn.weight_bytes_per_tile()
        return {
            "load_qkv": xfer(self.attention.weight_bytes_per_tile(
                cfg.d_model, cfg.num_heads), axi),
            "load_x": xfer(self.attention.input_bytes_per_tile(
                cfg.seq_len), axi),
            "load_ffn12": xfer(ffn_tile["ffn1"], axi),
            "load_ffn3": xfer(ffn_tile["ffn3"], axi),
            "qkv": att["qkv"] // tiles_mha,
            "qk": att["qk"],
            "softmax": att["softmax"],
            "sv": att["sv"],
            "ffn1": ffn["ffn1"] // grid["ffn1"],
            "ffn2": ffn["ffn2"] // grid["ffn2"],
            "ffn3": ffn["ffn3"] // grid["ffn3"],
            "ln": ffn["ln"] // 2,
        }

    # ------------------------------------------------------------------
    def simulate(self, cfg: TransformerConfig) -> Timeline:
        """Schedule every instruction of the compiled program."""
        program = compile_program(cfg, self.synth)
        dur = self._durations(cfg)
        slots = 2 if self.options.double_buffered else 1

        timeline = Timeline()
        res_free: Dict[str, int] = {}
        # Per (engine) ring of recent compute completions for the
        # buffer-slot constraint, and per-stage completion milestones.
        compute_hist: Dict[str, List[int]] = {}
        pending_load_end: Dict[tuple, int] = {}
        stage_done: Dict[str, int] = {"layer": 0}

        def schedule(name: str, resource: str, ready: int, duration: int,
                     layer: int) -> int:
            start = max(ready, res_free.get(resource, 0))
            end = start + duration
            res_free[resource] = end
            timeline.events.append(TimelineEvent(
                name=name, resource=resource, start=start, end=end,
                layer=layer))
            return end

        def slot_ready(engine: str) -> int:
            hist = compute_hist.get(engine, [])
            if len(hist) < slots:
                return 0
            return hist[-slots]

        def note_compute(engine: str, end: int) -> None:
            compute_hist.setdefault(engine, []).append(end)

        attn_done = 0     # all SV chains of the current layer
        qkv_done = 0      # QKV tile sweep of the current layer
        ffn_stage_done = {"ffn1": 0, "ffn2": 0, "ffn3": 0}
        head_chain: Dict[int, int] = {}

        for ins in program:
            op, layer = ins.opcode, ins.layer
            if op is Opcode.CONFIGURE or op is Opcode.BARRIER:
                continue
            if op is Opcode.HALT:
                break
            layer_ready = stage_done["layer"]

            if op is Opcode.LOAD_BIASES:
                schedule(f"L{layer}.biases", "axi", layer_ready, 64, layer)
            elif op is Opcode.LOAD_INPUT:
                end = schedule(f"L{layer}.x.t{ins.tile}", "axi",
                               max(layer_ready, slot_ready("qkv_ce")),
                               dur["load_x"], layer)
                pending_load_end[("x", ins.tile)] = end
            elif op is Opcode.LOAD_QKV_WEIGHTS:
                end = schedule(f"L{layer}.wqkv.h{ins.head}.t{ins.tile}",
                               "axi",
                               max(layer_ready, slot_ready("qkv_ce")),
                               dur["load_qkv"], layer)
                pending_load_end[("qkv", ins.tile)] = max(
                    pending_load_end.get(("qkv", ins.tile), 0), end)
            elif op is Opcode.RUN_QKV:
                ready = max(layer_ready,
                            pending_load_end.pop(("x", ins.tile), 0),
                            pending_load_end.pop(("qkv", ins.tile), 0))
                end = schedule(f"L{layer}.qkv.t{ins.tile}", "qkv_ce",
                               ready, dur["qkv"], layer)
                note_compute("qkv_ce", end)
                qkv_done = max(qkv_done, end)
            elif op in (Opcode.RUN_QK, Opcode.RUN_SOFTMAX, Opcode.RUN_SV):
                stage = {Opcode.RUN_QK: ("qk", "qk_ce"),
                         Opcode.RUN_SOFTMAX: ("softmax", "softmax"),
                         Opcode.RUN_SV: ("sv", "sv_ce")}[op]
                # Per-head engines: resource key includes the head.
                ready = max(qkv_done, head_chain.get(ins.head, 0))
                end = schedule(f"L{layer}.{stage[0]}.h{ins.head}",
                               f"{stage[1]}[{ins.head}]", ready,
                               dur[stage[0]], layer)
                head_chain[ins.head] = end
                if op is Opcode.RUN_SV:
                    attn_done = max(attn_done, end)
            elif op is Opcode.LOAD_FFN_WEIGHTS:
                engine = {1: "ffn1", 2: "ffn2", 3: "ffn3"}[ins.arg]
                kind = "load_ffn3" if engine == "ffn3" else "load_ffn12"
                end = schedule(f"L{layer}.w{engine}.t{ins.tile}", "axi",
                               max(layer_ready,
                                   slot_ready(f"{engine}_ce")),
                               dur[kind], layer)
                pending_load_end[(engine, ins.tile)] = end
            elif op in (Opcode.RUN_FFN1, Opcode.RUN_FFN2, Opcode.RUN_FFN3):
                engine = {Opcode.RUN_FFN1: "ffn1", Opcode.RUN_FFN2: "ffn2",
                          Opcode.RUN_FFN3: "ffn3"}[op]
                upstream = {"ffn1": attn_done,
                            "ffn2": stage_done.get("ln1", 0),
                            "ffn3": ffn_stage_done["ffn2"]}[engine]
                ready = max(upstream,
                            pending_load_end.pop((engine, ins.tile), 0))
                end = schedule(f"L{layer}.{engine}.t{ins.tile}",
                               f"{engine}_ce", ready, dur[engine], layer)
                note_compute(f"{engine}_ce", end)
                ffn_stage_done[engine] = max(ffn_stage_done[engine], end)
            elif op is Opcode.RUN_LN1:
                end = schedule(f"L{layer}.ln1", "ln",
                               ffn_stage_done["ffn1"], dur["ln"], layer)
                stage_done["ln1"] = end
            elif op is Opcode.RUN_LN2:
                end = schedule(f"L{layer}.ln2", "ln",
                               ffn_stage_done["ffn3"], dur["ln"], layer)
                # Layer boundary: reset per-layer milestones.
                stage_done["layer"] = end
                stage_done["ln1"] = 0
                qkv_done = attn_done = 0
                ffn_stage_done = {"ffn1": 0, "ffn2": 0, "ffn3": 0}
                head_chain.clear()
                compute_hist.clear()
                pending_load_end.clear()
            elif op is Opcode.STORE_OUTPUT:
                out_bytes = (cfg.seq_len * cfg.d_model
                             * ((self.attention.formats.activation.total_bits
                                 + 7) // 8))
                schedule("store", "axi", stage_done["layer"],
                         self.options.hbm.transfer_cycles(
                             out_bytes, self.options.axi), layer)
        return timeline
