"""Layer-wise pipeline splits and head-wise tensor-parallel stage math.

Two partitioning axes over one :class:`~repro.core.latency.LatencyModel`:

* **pipeline** — contiguous layer ranges assigned to stages, balanced
  by :func:`balanced_partition` (DP over per-layer cycle costs,
  minimizing the bottleneck stage — the classic linear-partition
  problem, exact, deterministic);
* **tensor** — within a stage, attention heads split across ``tp``
  devices (each keeps the model's ``d_k``), with the FFN GEMMs split
  Megatron-style: the output projection reduces only the local heads'
  columns (row-parallel), FFN2 computes a ``4 d_model / tp`` column
  slice, FFN3 reduces its local rows (row-parallel).  Two ring
  all-reduces of the ``SL x d_model`` activation per layer stitch the
  partials back together.

The per-device layer itself is priced by
:meth:`~repro.core.latency.LatencyModel.layer_cycles` with ``tp=``, the
same function that prices one device; this module adds the collectives.
Because ProTEA's per-head engines already run all heads in parallel,
tensor parallelism buys no *compute* cycles — what it buys is weight
streaming: each device fetches only its own heads' Wq/Wk/Wv and its FFN
slice through the single-buffered AXI weight port, which is precisely
the serialized-load term that dominates the published design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.latency import LatencyModel, LayerLatency
from ..isa.controller import ConfigRegisterFile
from ..nn.model_zoo import TransformerConfig
from .interconnect import InterconnectLink

__all__ = [
    "balanced_partition",
    "validate_tensor_parallel",
    "activation_bytes",
    "tp_allreduce_cycles",
    "StagePlan",
]


def balanced_partition(costs: Sequence[int], k: int) -> List[Tuple[int, int]]:
    """Split ``costs`` into ``k`` contiguous segments minimizing the
    maximum segment sum.

    Returns ``[(start, end), ...]`` half-open ranges covering
    ``range(len(costs))``.  Exact DP (``O(n^2 k)``); ties break toward
    the earliest feasible split so results are deterministic.
    """
    n = len(costs)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"cannot split {n} layers into {k} stages")
    prefix = [0] * (n + 1)
    for i, c in enumerate(costs):
        if c < 0:
            raise ValueError("costs must be non-negative")
        prefix[i + 1] = prefix[i] + c

    def seg(a: int, b: int) -> int:
        return prefix[b] - prefix[a]

    # best[j][i]: minimal bottleneck splitting costs[:i] into j segments.
    INF = float("inf")
    best = [[INF] * (n + 1) for _ in range(k + 1)]
    cut = [[0] * (n + 1) for _ in range(k + 1)]
    best[0][0] = 0
    for j in range(1, k + 1):
        # Every segment must be non-empty: first j segments cover >= j
        # layers, and leave >= k - j layers for the rest.
        for i in range(j, n - (k - j) + 1):
            for m in range(j - 1, i):
                if best[j - 1][m] == INF:
                    continue
                cand = max(best[j - 1][m], seg(m, i))
                if cand < best[j][i]:
                    best[j][i] = cand
                    cut[j][i] = m
    bounds = [n]
    i = n
    for j in range(k, 0, -1):
        i = cut[j][i]
        bounds.append(i)
    bounds.reverse()
    return [(bounds[s], bounds[s + 1]) for s in range(k)]


def validate_tensor_parallel(config: TransformerConfig, tp: int) -> None:
    """Structural feasibility of a head-wise ``tp``-way split."""
    if tp < 1:
        raise ValueError("tp must be >= 1")
    if config.num_heads % tp:
        raise ValueError(
            f"{config.name}: num_heads={config.num_heads} not divisible "
            f"by tp={tp} — head-wise splits need whole heads per device"
        )


def activation_bytes(model: LatencyModel, seq_len: int, d_model: int) -> int:
    """Off-device bytes of one ``SL x d_model`` activation tensor."""
    elem = (model.attention.formats.activation.total_bits + 7) // 8
    return seq_len * d_model * elem


def tp_allreduce_cycles(
    model: LatencyModel,
    config: TransformerConfig,
    tp: int,
    link: InterconnectLink,
    clock_mhz: float,
) -> int:
    """Per-layer collective cost of a ``tp``-way stage.

    Two ring all-reduces of the activation tensor: one after the
    row-parallel output projection (pre-LN1), one after the
    row-parallel FFN3 (pre-LN2).
    """
    if tp == 1:
        return 0
    nbytes = activation_bytes(model, config.seq_len, config.d_model)
    return 2 * link.allreduce_cycles(nbytes, tp, clock_mhz)


@dataclass(frozen=True)
class StagePlan:
    """One pipeline stage: a contiguous layer range on ``tp_ways``
    devices."""

    index: int
    layer_start: int
    layer_end: int
    tp_ways: int
    #: Per-device cycle breakdown of one of this stage's layers.
    layer: LayerLatency
    #: Per-layer tensor-parallel collective cycles (0 when tp_ways=1).
    tp_comm_cycles: int = 0

    def __post_init__(self) -> None:
        if self.layer_end <= self.layer_start:
            raise ValueError("stage must own at least one layer")
        if self.tp_ways < 1:
            raise ValueError("tp_ways must be >= 1")

    @property
    def num_layers(self) -> int:
        return self.layer_end - self.layer_start

    @property
    def cycles(self) -> int:
        """Stage service time for one item (compute + collectives)."""
        return self.num_layers * (self.layer.total + self.tp_comm_cycles)

    def validate(self, csr_synth, config: TransformerConfig) -> None:
        """Check the per-device sub-workload against the synthesized
        maxima — each device programs only its own layer count."""
        sub = config.with_(name=f"{config.name}/stage{self.index}",
                           num_layers=self.num_layers)
        ConfigRegisterFile(csr_synth).program(sub)
