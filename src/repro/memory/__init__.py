"""Memory-system substrate: HBM channels, AXI transactions and
double-buffered load/compute overlap."""

from .axi import AXI4Master, AXILiteSlave
from .dma import OverlapReport, TilePhase, overlapped_cycles, serialized_cycles
from .hbm import HBMChannel, HBMSubsystem

__all__ = [
    "AXI4Master",
    "AXILiteSlave",
    "HBMChannel",
    "HBMSubsystem",
    "TilePhase",
    "OverlapReport",
    "overlapped_cycles",
    "serialized_cycles",
]
