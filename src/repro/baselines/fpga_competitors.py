"""Published FPGA-accelerator records (Table II comparators).

Each record carries the metrics exactly as the paper tabulates them,
plus which model-zoo workload ProTEA runs for that comparison row.
These numbers are *published constants* — the substitution rule for
closed comparators — while every ProTEA-side number in the regenerated
table comes from our simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["CompetitorRecord", "TABLE2_COMPETITORS"]


@dataclass(frozen=True)
class CompetitorRecord:
    """One comparator row of Table II."""

    key: str
    citation: str
    precision: str
    fpga: str
    dsp: int
    latency_ms: float
    gops: float
    gops_per_dsp_x1000: float
    method: str           # 'HLS' | 'HDL'
    sparsity: float       # fraction (0.9 == 90%)
    protea_model: str     # model-zoo key ProTEA runs for this row
    paper_protea_latency_ms: float  # what the paper measured for ProTEA
    notes: str = ""

    @property
    def is_sparse(self) -> bool:
        return self.sparsity > 0.0


TABLE2_COMPETITORS: Tuple[CompetitorRecord, ...] = (
    CompetitorRecord(
        key="peng21",
        citation="[21] Peng et al., ISQED'21",
        precision="-",
        fpga="Alveo U200",
        dsp=3368,
        latency_ms=0.32,
        gops=555.0,
        gops_per_dsp_x1000=164.0,
        method="HLS",
        sparsity=0.90,
        protea_model="model1-peng-isqed21",
        paper_protea_latency_ms=4.48,
        notes="column-balanced block pruning",
    ),
    CompetitorRecord(
        key="wojcicki22",
        citation="[23] Wojcicki et al., ICFPT'22",
        precision="Float32",
        fpga="Alveo U250",
        dsp=4351,
        latency_ms=1.2,
        gops=0.0006,
        gops_per_dsp_x1000=0.00013,
        method="HLS",
        sparsity=0.0,
        protea_model="model2-lhc-trigger",
        paper_protea_latency_ms=0.425,
        notes="LHC trigger TNN, tiny workload",
    ),
    CompetitorRecord(
        key="efa-trans",
        citation="[25] Yang & Su, EFA-Trans",
        precision="Int8",
        fpga="ZCU102",
        dsp=1024,
        latency_ms=1.47,
        gops=279.0,
        gops_per_dsp_x1000=272.0,
        method="HDL",
        sparsity=0.0,
        protea_model="model3-efa-trans",
        paper_protea_latency_ms=5.18,
        notes="HDL design; dense mode of a dense/sparse-switchable core",
    ),
    CompetitorRecord(
        key="qi21",
        citation="[28] Qi et al., ICCAD'21",
        precision="-",
        fpga="Alveo U200",
        dsp=4145,
        latency_ms=15.8,
        gops=75.94,
        gops_per_dsp_x1000=18.0,
        method="HLS",
        sparsity=0.0,
        protea_model="model4-qi-iccad21",
        paper_protea_latency_ms=9.12,
    ),
    CompetitorRecord(
        key="ftrans",
        citation="[29] Li et al., FTRANS",
        precision="Fix16",
        fpga="VCU118",
        dsp=5647,
        latency_ms=2.94,
        gops=60.0,
        gops_per_dsp_x1000=11.0,
        method="HLS",
        sparsity=0.93,
        protea_model="ftrans-workload",
        paper_protea_latency_ms=4.48,
        notes="block-circulant compression (93%)",
    ),
)


