"""Batching policies and the batched service-time kernel.

Batch service time reuses the per-inference cycle model: a batch of B
same-model requests is packed into accelerator invocations whose
``seq_len`` is the concatenation of the member sequences, capped by the
synthesized ``max_seq_len``.  Each invocation's latency comes from
:meth:`ProTEA.latency_report`, so batching wins exactly what the
hardware wins — the per-invocation weight streams are amortized over
more tokens — and nothing more.

Policies (how the dispatcher forms a batch from an instance's FIFO):

* ``no_batching()`` — every request is its own invocation.
* ``fixed_size(B)`` — greedy: take up to B queued same-model requests
  the moment the instance frees; never waits for stragglers.
* ``timeout(B, ms)`` — dynamic batching: wait until B requests of the
  head model queue up or the head request has aged ``ms``, whichever
  comes first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.accelerator import ProTEA
from ..nn.model_zoo import TransformerConfig

__all__ = [
    "BatchingPolicy",
    "no_batching",
    "fixed_size",
    "timeout",
    "get_batching",
    "ServiceTimeModel",
]

_EPS = 1e-9


@dataclass(frozen=True)
class BatchingPolicy:
    """Max batch size + optional head-of-line wait deadline."""

    name: str
    max_batch: int = 1
    timeout_ms: Optional[float] = None

    def __post_init__(self) -> None:
        max_batch = self.max_batch
        # NaN and inf compare false against every prefix length, so
        # either would lift the batch cap instead of setting one.
        if (not isinstance(max_batch, int) or isinstance(max_batch, bool)
                or max_batch < 1):
            raise ValueError(
                f"max_batch must be an int >= 1, got {max_batch!r}")
        # A NaN deadline never fires (the run never returns) and an
        # infinite one fires at t = inf, after every other event, so
        # the held batch completes at infinity.
        timeout_ms = self.timeout_ms
        if timeout_ms is not None and not 0 <= timeout_ms < math.inf:
            raise ValueError(
                f"timeout_ms must be finite and >= 0, got {timeout_ms}")

    def decide(self, prefix_len: int, head_wait_ms: float) -> Optional[int]:
        """Batch size to dispatch now, or ``None`` to keep waiting.

        ``prefix_len`` is the run of same-model requests at the head of
        the queue; ``head_wait_ms`` how long the head has been queued.
        """
        if prefix_len >= self.max_batch:
            return self.max_batch
        if self.timeout_ms is None:
            return prefix_len
        if head_wait_ms + _EPS >= self.timeout_ms:
            return prefix_len
        return None


def no_batching() -> BatchingPolicy:
    return BatchingPolicy(name="none", max_batch=1)


def fixed_size(max_batch: int) -> BatchingPolicy:
    return BatchingPolicy(name=f"fixed-{max_batch}", max_batch=max_batch)


def timeout(max_batch: int, timeout_ms: float) -> BatchingPolicy:
    return BatchingPolicy(name=f"timeout-{max_batch}@{timeout_ms:g}ms",
                          max_batch=max_batch, timeout_ms=timeout_ms)


def get_batching(name: str, max_batch: int = 8,
                 timeout_ms: float = 2.0) -> BatchingPolicy:
    """CLI-facing factory: ``none`` | ``fixed`` | ``timeout``."""
    if name == "none":
        return no_batching()
    if name == "fixed":
        return fixed_size(max_batch)
    if name == "timeout":
        return timeout(max_batch, timeout_ms)
    raise KeyError(f"unknown batching policy {name!r}; "
                   "available: ['fixed', 'none', 'timeout']")


class ServiceTimeModel:
    """Maps (model, batch size) → milliseconds on one instance.

    Latency reports are memoized per ``(model, invocation seq_len)``;
    the cycle model is deterministic, so the cache is exact.
    """

    def __init__(self, accel: "ProTEA",
                 models: Mapping[str, TransformerConfig]):
        self.accel = accel
        self.models = dict(models)
        self._cache: Dict[Tuple[str, int], float] = {}

    def config(self, model: str) -> TransformerConfig:
        """Look up + servability-check a model (lazily: the table may
        hold zoo entries the workload never requests)."""
        try:
            cfg = self.models[model]
        except KeyError:
            raise KeyError(
                f"unknown model {model!r}; available: {sorted(self.models)}"
            ) from None
        max_sl = self.accel.synth.max_seq_len
        if cfg.seq_len > max_sl:
            raise ValueError(
                f"model {model!r} has seq_len={cfg.seq_len} beyond the "
                f"synthesized max_seq_len={max_sl}; it cannot be served"
            )
        return cfg

    def invocation_seq_lens(self, model: str, batch_size: int) -> List[int]:
        """Token-packing plan: one entry per accelerator invocation."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        cfg = self.config(model)
        per_inv = max(1, self.accel.synth.max_seq_len // cfg.seq_len)
        full, rem = divmod(batch_size, per_inv)
        lens = [per_inv * cfg.seq_len] * full
        if rem:
            lens.append(rem * cfg.seq_len)
        return lens

    def _invocation_ms(self, model: str, seq_len: int) -> float:
        key = (model, seq_len)
        if key not in self._cache:
            cfg = self.config(model).with_(seq_len=seq_len)
            self._cache[key] = self.accel.latency_report(cfg).latency_ms
        return self._cache[key]

    def batch_service_ms(self, model: str, batch_size: int) -> float:
        """Total service time of a same-model batch (no switch cost)."""
        return sum(self._invocation_ms(model, sl)
                   for sl in self.invocation_seq_lens(model, batch_size))
