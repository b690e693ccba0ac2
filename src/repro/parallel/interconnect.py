"""Inter-device interconnect cost model for multi-FPGA pipelines.

The single-device substrates (:mod:`repro.memory`) price on-card
traffic — AXI bursts into HBM.  Crossing *between* cards is a different
medium: a serial transceiver link (Aurora over QSFP28, Ethernet through
a switch, or PCIe peer-to-peer through the host).  The cost of moving
an activation tensor from stage *i* to stage *i+1* is

``time = latency + (payload + overhead) / (bandwidth x efficiency)``

where ``latency`` is the first-bit flight time (serializer, switch
hops), ``efficiency`` the line-coding/protocol tax (64b/66b for Aurora,
preamble + IFG + headers for Ethernet), and ``overhead`` the per-message
framing bytes.  Costs convert to kernel cycles so the pipeline engine
can compose them with :class:`~repro.core.latency.LayerLatency` cycle
counts — the same lower-level-model-as-parameter layering the memory
subsystem uses.

Collectives: tensor-parallel stages all-reduce partial activations.
The ring all-reduce moves ``2 (w-1)/w`` of the payload per member in
``2 (w-1)`` latency-bearing steps — both charged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from .._checks import check_count, check_non_negative, check_positive

__all__ = [
    "InterconnectLink",
    "AURORA_64B66B",
    "ETHERNET_100G",
    "ETHERNET_10G",
    "PCIE_GEN4_X8",
    "LINKS",
    "get_link",
]


@dataclass(frozen=True)
class InterconnectLink:
    """One point-to-point device-to-device link.

    Parameters
    ----------
    name:
        Registry key (also printed in reports).
    bandwidth_gbps:
        Raw line rate per direction in Gbit/s.
    latency_us:
        First-bit latency per message (serdes + flight + switch hops).
    efficiency:
        Fraction of the line rate available to payload after line
        coding and protocol framing (e.g. 64/66 for Aurora).
    overhead_bytes:
        Per-message framing bytes added to the payload.
    """

    name: str
    bandwidth_gbps: float
    latency_us: float
    efficiency: float = 1.0
    overhead_bytes: int = 0

    def __post_init__(self) -> None:
        check_positive("bandwidth_gbps", self.bandwidth_gbps)
        check_non_negative("latency_us", self.latency_us)
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency must be in (0, 1]")
        check_non_negative("overhead_bytes", self.overhead_bytes)

    # ------------------------------------------------------------------
    @property
    def payload_gbps(self) -> float:
        """Effective payload bandwidth per direction."""
        return self.bandwidth_gbps * self.efficiency

    def transfer_us(self, nbytes: int) -> float:
        """Wall time to move one ``nbytes`` message (zero bytes free)."""
        check_non_negative("nbytes", nbytes)
        if nbytes == 0:
            return 0.0
        bits = (nbytes + self.overhead_bytes) * 8
        return self.latency_us + bits / (self.payload_gbps * 1e3)

    def transfer_cycles(self, nbytes: int, clock_mhz: float) -> int:
        """Message cost in kernel cycles at ``clock_mhz``."""
        check_positive("clock_mhz", clock_mhz)
        return math.ceil(self.transfer_us(nbytes) * clock_mhz)

    # ------------------------------------------------------------------
    def allreduce_us(self, nbytes: int, ways: int) -> float:
        """Per-member wall time of a ring all-reduce of ``nbytes``.

        ``2 (w-1)`` steps each moving an ``nbytes / w`` shard: the
        classic bandwidth-optimal ring, so wide groups pay latency in
        step count, not payload.
        """
        check_non_negative("nbytes", nbytes)
        check_count("ways", ways)
        if ways == 1 or nbytes == 0:
            return 0.0
        shard = math.ceil(nbytes / ways)
        return 2 * (ways - 1) * self.transfer_us(shard)

    def allreduce_cycles(self, nbytes: int, ways: int,
                         clock_mhz: float) -> int:
        """Ring all-reduce cost in kernel cycles."""
        check_positive("clock_mhz", clock_mhz)
        return math.ceil(self.allreduce_us(nbytes, ways) * clock_mhz)


#: Aurora 64B/66B over 4 x 25.78G QSFP28 lanes — the FPGA-native
#: point-to-point fabric (no switch, sub-microsecond).
AURORA_64B66B = InterconnectLink(
    name="aurora",
    bandwidth_gbps=103.1,
    latency_us=0.6,
    efficiency=64 / 66,
    overhead_bytes=16,
)

#: 100G Ethernet through a ToR switch (headers + preamble + IFG, a few
#: microseconds of switching).
ETHERNET_100G = InterconnectLink(
    name="eth100g",
    bandwidth_gbps=100.0,
    latency_us=4.0,
    efficiency=0.94,
    overhead_bytes=58,
)

#: 10G Ethernet — the budget fabric; bandwidth-bound for activations.
ETHERNET_10G = InterconnectLink(
    name="eth10g",
    bandwidth_gbps=10.0,
    latency_us=8.0,
    efficiency=0.94,
    overhead_bytes=58,
)

#: PCIe Gen4 x8 peer-to-peer through the host root complex.
PCIE_GEN4_X8 = InterconnectLink(
    name="pcie4x8",
    bandwidth_gbps=128.0,
    latency_us=1.5,
    efficiency=0.85,
    overhead_bytes=24,
)

LINKS: Dict[str, InterconnectLink] = {
    link.name: link
    for link in (AURORA_64B66B, ETHERNET_100G, ETHERNET_10G, PCIE_GEN4_X8)
}


def get_link(name: str) -> InterconnectLink:
    """Look up a preset link (raises ``KeyError`` with choices)."""
    try:
        return LINKS[name]
    except KeyError:
        raise KeyError(
            f"unknown link {name!r}; available: {sorted(LINKS)}"
        ) from None
