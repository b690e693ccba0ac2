"""Quantization-accuracy analysis: where does the 8-bit datapath lose
precision?

The paper quantizes to 8-bit fixed point and notes "this might result
in accuracy loss depending on the application [but] it was not a
primary focus."  This harness makes the loss measurable: it runs the
fixed-point accelerator and the float golden encoder side by side and
reports per-layer, per-stage error statistics (RMS, max, and SQNR —
signal-to-quantization-noise ratio in dB), so a user can decide whether
Fix8 suffices or the "larger bit width" variant is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - avoid circular import at runtime
    from ..core.accelerator import ProTEA
from ..fixedpoint import FxTensor
from ..nn.encoder import Encoder
from ..nn.functional import layer_norm

__all__ = ["StageError", "AccuracyReport", "evaluate_accuracy", "sqnr_db"]


def sqnr_db(signal: np.ndarray, error: np.ndarray) -> float:
    """Signal-to-quantization-noise ratio in decibels."""
    p_sig = float(np.mean(np.square(signal)))
    p_err = float(np.mean(np.square(error)))
    if p_err == 0.0:
        return math.inf
    if p_sig == 0.0:
        return -math.inf
    return 10.0 * math.log10(p_sig / p_err)


@dataclass(frozen=True)
class StageError:
    """Error statistics of one pipeline stage."""

    layer: int
    stage: str
    rms: float
    max_abs: float
    sqnr_db: float


@dataclass
class AccuracyReport:
    """Full stagewise accuracy evaluation."""

    stages: List[StageError]
    output_rms: float
    output_sqnr_db: float

    def worst_stage(self) -> StageError:
        """The stage with the lowest SQNR (most precision lost)."""
        return min(self.stages, key=lambda s: s.sqnr_db)


def _stage(layer: int, name: str, fx: np.ndarray, ref: np.ndarray) -> StageError:
    err = fx - ref
    return StageError(
        layer=layer,
        stage=name,
        rms=float(np.sqrt(np.mean(err * err))),
        max_abs=float(np.max(np.abs(err))),
        sqnr_db=sqnr_db(ref, err),
    )


def evaluate_accuracy(
    accel: "ProTEA", golden: Encoder, x: np.ndarray
) -> AccuracyReport:
    """Run both datapaths and collect stagewise error statistics.

    The accelerator must already be programmed and loaded with the
    quantization of ``golden``.  Stages compared per layer: the
    concatenated attention output, the post-LN1 state, and the layer
    output.  The float reference is computed from the *float* golden
    weights (so the report captures weight-quantization + datapath
    error together — the user-visible total).
    """
    cfg = accel.config
    fx_state = FxTensor.from_float(np.asarray(x, dtype=np.float64),
                                   accel.formats.activation)
    ref_state = np.asarray(x, dtype=np.float64)
    stages: List[StageError] = []

    for li in range(cfg.num_layers):
        qlayer = accel.weights.layers[li]
        glayer = golden.layers[li]

        concat_fx, _ = accel.attention.forward(fx_state, qlayer)
        trace = accel.ffn.forward(concat_fx, fx_state, qlayer)

        ref_trace = glayer.attention.forward_trace(ref_state)
        ref_h = layer_norm(ref_state + ref_trace.output,
                           glayer.ln1_gamma, glayer.ln1_beta, glayer.eps)
        ref_out = layer_norm(ref_h + glayer.ffn(ref_h),
                             glayer.ln2_gamma, glayer.ln2_beta, glayer.eps)

        stages.append(_stage(li, "attention_concat",
                             concat_fx.to_float(), ref_trace.concat))
        stages.append(_stage(li, "post_ln1", trace.ln1.to_float(), ref_h))
        stages.append(_stage(li, "layer_output", trace.out.to_float(), ref_out))

        fx_state = trace.out
        ref_state = ref_out

    err = fx_state.to_float() - ref_state
    return AccuracyReport(
        stages=stages,
        output_rms=float(np.sqrt(np.mean(err * err))),
        output_sqnr_db=sqnr_db(ref_state, err),
    )
