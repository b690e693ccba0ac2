"""Analysis helpers: op counting, accuracy/SQNR reports, memory
traffic profiles and table rendering."""

from .accuracy import AccuracyReport, StageError, evaluate_accuracy, sqnr_db
from .metrics import (
    OpBreakdown,
    encoder_layer_ops,
    encoder_ops,
    gops,
    gops_per_dsp,
    speedup,
)
from .traffic import TrafficReport, analyze_traffic
from .tables import format_value, render_table

__all__ = [
    "AccuracyReport",
    "StageError",
    "evaluate_accuracy",
    "sqnr_db",
    "TrafficReport",
    "analyze_traffic",
    "OpBreakdown",
    "encoder_layer_ops",
    "encoder_ops",
    "gops",
    "gops_per_dsp",
    "speedup",
    "render_table",
    "format_value",
]
