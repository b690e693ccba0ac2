"""Closed-form generation estimates: TTFT, TPOT, token throughput.

The unloaded numbers come straight from the analytic prefill/decode
split (:meth:`ProTEA.generation_report`) — the
``ttft_p99_ms``/``tokens_per_s`` pair both DSE scorers read for a
point with no pipeline decode split
(:func:`repro.dse.objectives.unloaded_generation`; a lower bound on
the simulated tail).  Passing an offered ``qps`` adds the M/M/c wait
tail over the fleet's ``fleet * slots`` decode slots, turning the
unloaded floor into a loaded TTFT tail estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .._checks import check_count, check_positive
from ..core.accelerator import ProTEA
from ..nn.model_zoo import TransformerConfig
from .queueing import wait_quantile_ms

__all__ = ["AnalyticGenerationEstimate", "estimate_generation"]


@dataclass(frozen=True)
class AnalyticGenerationEstimate:
    """Closed-form counterpart of a generation serving report."""

    fleet: int
    slots: int
    #: Unloaded prefill latency — the TTFT floor.
    ttft_ms: float
    #: Mean decode time per output token after the first.
    tpot_ms: float
    #: Whole-invocation latency (prefill + all decode steps).
    latency_ms: float
    #: Fleet-wide output tokens/s at full occupancy.
    tokens_per_s: float
    #: TTFT q99 including queueing for a slot (equals ``ttft_ms`` when
    #: no ``qps`` was offered — the unloaded lower bound).
    ttft_p99_ms: float
    #: Offered load in erlangs across ``fleet * slots`` slots (0.0 when
    #: no ``qps`` was offered).
    erlangs: float = 0.0

    def as_dict(self) -> dict:
        return {
            "fleet": self.fleet,
            "slots": self.slots,
            "ttft_ms": self.ttft_ms,
            "tpot_ms": self.tpot_ms,
            "latency_ms": self.latency_ms,
            "tokens_per_s": self.tokens_per_s,
            "ttft_p99_ms": self.ttft_p99_ms,
            "erlangs": self.erlangs,
        }


def estimate_generation(
    accel: ProTEA,
    cfg: TransformerConfig,
    prompt_tokens: int,
    output_tokens: int,
    *,
    fleet: int = 1,
    slots: int = 1,
    qps: Optional[float] = None,
    duration_ms: Optional[float] = None,
) -> AnalyticGenerationEstimate:
    """Estimate a generation deployment without simulating it.

    With ``qps=None`` (the default) every field is the unloaded
    analytic value.  With an
    offered ``qps``, ``ttft_p99_ms`` adds the M/M/c conditional wait
    over ``fleet * slots`` servers whose service time is the full
    invocation; saturated loads push the tail out by the workload
    horizon (``duration_ms``, required then).  ``fleet`` and ``slots``
    are ``int >= 1``; an offered ``qps`` is positive and finite.
    """
    check_count("fleet", fleet)
    check_count("slots", slots)
    if qps is not None:
        check_positive("qps", qps)
    report = accel.generation_report(cfg, prompt_tokens, output_tokens)
    ttft = report.ttft_ms
    total = report.total_ms
    ttft_p99 = ttft
    erlangs = 0.0
    if qps is not None:
        servers = fleet * slots
        lam_per_ms = qps / 1e3
        mu_per_ms = 1.0 / total
        erlangs = lam_per_ms / mu_per_ms
        if erlangs >= servers:
            if duration_ms is None:
                raise ValueError(
                    "saturated generation load needs duration_ms to "
                    "bound the wait")
            ttft_p99 = ttft + duration_ms
        else:
            ttft_p99 = ttft + wait_quantile_ms(
                servers, erlangs, servers * mu_per_ms - lam_per_ms, 99.0)
    return AnalyticGenerationEstimate(
        fleet=fleet,
        slots=slots,
        ttft_ms=ttft,
        tpot_ms=report.tpot_ms,
        latency_ms=total,
        tokens_per_s=report.tokens_per_s * fleet,
        ttft_p99_ms=ttft_p99,
        erlangs=erlangs,
    )
