"""ProTEA core: the paper's contribution.

Public entry points:

* :class:`~repro.core.accelerator.ProTEA` — synthesize / program / run.
* :class:`~repro.core.runtime.RuntimeSession` and
  :class:`~repro.core.runtime.ProgramExecutor` — runtime workflows.
* :func:`~repro.core.design_space.tile_size_sweep` — Fig. 7.
* :func:`~repro.core.resource_model.max_parallel_heads` — the "8 heads
  fit the U55C" analysis.

The paper's tiling is written once, bit-exact, in
:mod:`~repro.core.engines`: ``tiled_fx_matmul_reduction`` (Fig. 5,
reduction tiles) and ``tiled_fx_matmul_2d`` (Fig. 6, output-column
tiles outer, reduction tiles inner).  :mod:`repro.isa.compiler` emits
its FFN tile instructions in the same order.
"""

from .accelerator import ProTEA
from .attention_module import AttentionModule, HeadTrace
from .decoder_module import DecoderModule, QuantizedDecoder, QuantizedDecoderLayer
from .design_space import SweepPoint, find_optimum, normalize_latency, tile_size_sweep
from .engines import DatapathFormats
from .ffn_module import FFNModule, FFNTrace
from .kv_cache import FxDecoderKVCache, FxLayerKVCache
from .latency import (
    GenerationReport,
    LatencyModel,
    LatencyOptions,
    LatencyReport,
    LayerLatency,
)
from .layernorm_unit import LayerNormUnit
from .quantized import QuantizedEncoder, QuantizedLayer, QuantizedLinear
from .resource_model import (
    accelerator_resources,
    device_utilization,
    max_parallel_heads,
)
from .runtime import ProgramExecutor, RuntimeSession, TileNotResidentError
from .softmax_unit import SoftmaxUnit
from .timeline import Timeline, TimelineEvent, TimelineSimulator

__all__ = [
    "ProTEA",
    "DatapathFormats",
    "AttentionModule",
    "HeadTrace",
    "FFNModule",
    "FFNTrace",
    "DecoderModule",
    "QuantizedDecoder",
    "QuantizedDecoderLayer",
    "SoftmaxUnit",
    "Timeline",
    "TimelineEvent",
    "TimelineSimulator",
    "LayerNormUnit",
    "QuantizedEncoder",
    "QuantizedLayer",
    "QuantizedLinear",
    "LatencyModel",
    "LatencyOptions",
    "LatencyReport",
    "LayerLatency",
    "GenerationReport",
    "FxDecoderKVCache",
    "FxLayerKVCache",
    "accelerator_resources",
    "device_utilization",
    "max_parallel_heads",
    "RuntimeSession",
    "ProgramExecutor",
    "TileNotResidentError",
    "SweepPoint",
    "tile_size_sweep",
    "normalize_latency",
    "find_optimum",
]
