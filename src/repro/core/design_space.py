"""Design-space exploration: the tile-size sweep of Fig. 7.

"The number of tiles in MHA was varied from 6 to 48, and for each MHA
tile count, the number of tiles in FFN ranged from 2 to 6.  The results
indicate that the optimal configuration ... was 12 tiles in MHA and 6
tiles in FFN ... a maximum frequency of 200 MHz."

A sweep point fixes both tile counts, derives the tile sizes for the
target ``d_model``, evaluates the Fmax model over every engine's
critical path, evaluates the cycle model for the reference workload,
and reports absolute and normalized latency.  Device-fit is *not*
enforced here (the paper synthesized the losing points too) but the
utilization is reported so over-budget points are visible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from ..hls import DEFAULT_TIMING, TimingModel
from ..isa.controller import SynthParams
from ..nn.model_zoo import BERT_VARIANT, TransformerConfig
from .attention_module import AttentionModule
from .engines import DatapathFormats
from .ffn_module import FFNModule
from .latency import LatencyModel, LatencyOptions
from .resource_model import accelerator_resources

__all__ = ["SweepPoint", "tile_size_sweep", "normalize_latency", "find_optimum"]


@dataclass(frozen=True)
class SweepPoint:
    """One (tiles-in-MHA, tiles-in-FFN) design point."""

    tiles_mha: int
    tiles_ffn: int
    ts_mha: int
    ts_ffn: int
    fmax_mhz: float
    total_cycles: int
    latency_ms: float
    dsps: int
    luts: int
    normalized_latency: float = float("nan")


def _point(
    tiles_mha: int,
    tiles_ffn: int,
    config: TransformerConfig,
    base: SynthParams,
    timing: TimingModel,
    formats: DatapathFormats,
    options: LatencyOptions,
) -> SweepPoint:
    synth = base.with_tiles(tiles_mha, tiles_ffn)
    attention = AttentionModule(synth, formats)
    ffn = FFNModule(synth, formats)
    paths = attention.timing_paths() + ffn.timing_paths()
    fmax = timing.fmax_mhz(paths)
    model = LatencyModel(synth, attention, ffn, options)
    report = model.evaluate(config, clock_mhz=fmax)
    est = accelerator_resources(synth, formats)
    return SweepPoint(
        tiles_mha=tiles_mha,
        tiles_ffn=tiles_ffn,
        ts_mha=synth.ts_mha,
        ts_ffn=synth.ts_ffn,
        fmax_mhz=fmax,
        total_cycles=report.total_cycles,
        latency_ms=report.latency_ms,
        dsps=est.dsps,
        luts=est.luts,
    )


def tile_size_sweep(
    config: TransformerConfig = BERT_VARIANT,
    tiles_mha_options: Sequence[int] = (6, 12, 48),
    tiles_ffn_options: Sequence[int] = (2, 3, 4, 5, 6),
    base: SynthParams | None = None,
    timing: TimingModel = DEFAULT_TIMING,
    formats: DatapathFormats | None = None,
    options: LatencyOptions | None = None,
) -> List[SweepPoint]:
    """Fig. 7's grid (MHA tile count outermost), normalized in one pass."""
    base = base or SynthParams()
    formats = formats or DatapathFormats.fix8()
    options = options or LatencyOptions()
    return normalize_latency([
        _point(tiles_mha, tiles_ffn, config, base, timing, formats, options)
        for tiles_mha in tiles_mha_options
        for tiles_ffn in tiles_ffn_options])


def normalize_latency(points: List[SweepPoint]) -> List[SweepPoint]:
    """Attach latency normalized to the sweep minimum (Fig. 7 y-axis)."""
    if not points:
        return points
    best = min(p.latency_ms for p in points)
    return [replace(p, normalized_latency=p.latency_ms / best) for p in points]


def find_optimum(points: List[SweepPoint]) -> Tuple[SweepPoint, SweepPoint]:
    """Return ``(highest-frequency point, lowest-latency point)``.

    The paper's headline: both coincide at 12 MHA tiles / 6 FFN tiles.
    """
    if not points:
        raise ValueError("empty sweep")
    by_freq = max(points, key=lambda p: p.fmax_mhz)
    by_latency = min(points, key=lambda p: p.latency_ms)
    return by_freq, by_latency
