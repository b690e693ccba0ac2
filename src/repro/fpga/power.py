"""FPGA power and energy-efficiency model.

The paper motivates FPGAs with "low run time inference latencies with
efficient power consumption" but reports no watts.  This model supplies
the missing column with the standard XPE-style decomposition:

``P = P_static + Σ_resource (count · toggle · mW/MHz · f)``

Per-resource dynamic coefficients are order-of-magnitude figures for
UltraScale+ at nominal voltage (DSP48 ~0.02 mW/MHz fully toggling,
BRAM18 ~0.015, logic LUT ~0.00015, FF ~0.00005) with an activity factor
for realistic toggle rates; HBM adds a bandwidth-proportional term.
Good to a factor of ~1.5 — enough for GOPS/W *comparisons*, which is
how the numbers are used.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._checks import check_non_negative, check_positive
from ..hls.resources import ResourceEstimate

__all__ = ["PowerModel", "PowerReport", "GPU_CPU_TDP_W"]

#: Published board powers of the Table III comparators (TDP, watts).
GPU_CPU_TDP_W = {
    "NVIDIA Titan XP GPU": 250.0,
    "Jetson TX2 GPU": 15.0,
    "NVIDIA RTX 3060 GPU": 170.0,
    "Intel i5-5257U CPU": 28.0,
    "Intel i5-4460 CPU": 84.0,
}


@dataclass(frozen=True)
class PowerModel:
    """Per-resource dynamic power coefficients (mW per MHz per unit)."""

    static_w: float = 3.5            # shell + HBM PHY idle
    dsp_mw_per_mhz: float = 0.020
    bram_mw_per_mhz: float = 0.015
    lut_mw_per_mhz: float = 0.00015
    ff_mw_per_mhz: float = 0.00005
    activity: float = 0.25           # average toggle factor
    hbm_w_per_gbps: float = 0.030    # HBM2 access energy ≈ 3.7 pJ/bit

    def dynamic_w(self, resources: ResourceEstimate, clock_mhz: float) -> float:
        """Core dynamic power of the mapped design."""
        check_positive("clock_mhz", clock_mhz)
        mw = (
            resources.dsps * self.dsp_mw_per_mhz
            + resources.bram18k * self.bram_mw_per_mhz
            + resources.luts * self.lut_mw_per_mhz
            + resources.ffs * self.ff_mw_per_mhz
        ) * clock_mhz * self.activity
        return mw / 1000.0

    def total_w(
        self,
        resources: ResourceEstimate,
        clock_mhz: float,
        achieved_gbps: float = 0.0,
    ) -> float:
        """Board power: static + core dynamic + memory traffic."""
        check_non_negative("achieved_gbps", achieved_gbps)
        return (self.static_w
                + self.dynamic_w(resources, clock_mhz)
                + achieved_gbps * self.hbm_w_per_gbps)


@dataclass(frozen=True)
class PowerReport:
    """Power/energy profile of one workload on one instance."""

    total_w: float
    dynamic_w: float
    static_w: float
    energy_per_inference_j: float
    gops_per_w: float

    @classmethod
    def evaluate(
        cls,
        model: PowerModel,
        resources: ResourceEstimate,
        clock_mhz: float,
        latency_s: float,
        gops: float,
        achieved_gbps: float = 0.0,
    ) -> "PowerReport":
        check_positive("latency_s", latency_s)
        check_positive("gops", gops)
        total = model.total_w(resources, clock_mhz, achieved_gbps)
        return cls(
            total_w=total,
            dynamic_w=model.dynamic_w(resources, clock_mhz),
            static_w=model.static_w,
            energy_per_inference_j=total * latency_s,
            gops_per_w=gops / total,
        )
