"""Open-loop request workloads for the serving simulator.

Every generator is *deterministic given its seed*: the same seed and
parameters produce the identical request list, which is what makes
simulated event traces reproducible and capacity plans auditable.

Shapes:

* :class:`PoissonArrivals` — memoryless arrivals at a constant rate,
  the classic open-loop baseline.
* :class:`BurstyArrivals` — a 2-state Markov-modulated Poisson process
  (quiet/burst) for flash-crowd traffic.
* :class:`DiurnalArrivals` — a raised-cosine rate ramp (thinning
  method), a compressed day/night cycle.
* :class:`TraceReplay` — replay an explicit ``(t_ms, model)`` list,
  e.g. captured from production logs.

Multi-model mixes are drawn per-request from a :class:`ModelMix` over
``repro.nn.MODEL_ZOO`` names (or any names the simulator's model table
knows).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .._gcpause import gc_paused

__all__ = [
    "Request",
    "GenerationRequest",
    "LengthSampler",
    "ModelMix",
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "TraceReplay",
    "attach_generation_lengths",
    "attach_priorities",
]


@dataclass(frozen=True)
class Request:
    """One inference request in the open-loop stream."""

    rid: int
    t_ms: float
    model: str


@dataclass(frozen=True)
class GenerationRequest(Request):
    """One autoregressive request: a prompt plus a token budget.

    Subclasses :class:`Request` so dispatch schedulers and trace tooling
    see the same surface; the extra fields drive the prefill/decode
    split in the generation service mode.  ``priority`` feeds the
    kernel engine's priority admission: higher values admit first, and
    a strictly-higher-priority arrival may preempt an in-flight
    sequence at a step boundary (0 everywhere = plain FIFO).
    """

    prompt_tokens: int = 1
    output_tokens: int = 1
    priority: int = 0

    def __post_init__(self) -> None:
        if self.prompt_tokens < 1 or self.output_tokens < 1:
            raise ValueError("prompt_tokens and output_tokens must be >= 1")

    @property
    def total_tokens(self) -> int:
        """KV-cache positions the request occupies when finished."""
        return self.prompt_tokens + self.output_tokens


class LengthSampler:
    """Seed-deterministic token-length distribution.

    Kinds (all clamped to ``[lo, hi]`` with ``lo >= 1``):

    * ``fixed``     — every sample is ``lo``;
    * ``uniform``   — integer uniform on ``[lo, hi]``;
    * ``geometric`` — ``lo + Geometric(1/mean_extra)``, the classic
      open-ended output-length model, truncated at ``hi``.

    Degenerate parameters are accepted, not rejected: a zero-variance
    uniform (``lo == hi``), a single-token fixed sampler (``lo == 1``),
    and a zero-``mean_extra`` geometric (which collapses to ``fixed``)
    all sample cleanly — capacity sweeps routinely drive distributions
    to their edges and must not die in the sampler.
    """

    def __init__(self, kind: str = "fixed", lo: int = 16,
                 hi: Optional[int] = None, mean_extra: float = 8.0):
        if kind not in ("fixed", "uniform", "geometric"):
            raise ValueError(
                f"unknown length distribution {kind!r}; "
                "available: ['fixed', 'geometric', 'uniform']")
        hi = lo if hi is None else hi
        for name, value in (("lo", lo), ("hi", hi)):
            # A float length makes fractional-token requests; NaN dies
            # deep in the simulation and inf is silently clamped.
            if (not isinstance(value, int) or isinstance(value, bool)
                    or value < 1):
                raise ValueError(
                    f"{name} must be an int >= 1, got {value!r}")
        if hi < lo:
            raise ValueError("need hi >= lo")
        if not 0 <= mean_extra < math.inf:
            raise ValueError(
                f"mean_extra must be finite and >= 0, got {mean_extra!r}")
        self.kind = kind
        self.lo = lo
        self.hi = hi
        self.mean_extra = mean_extra

    @classmethod
    def parse(cls, spec: str) -> "LengthSampler":
        """CLI form: ``N`` (fixed), ``LO:HI`` (uniform), ``geo:LO:MEAN``."""
        parts = spec.split(":")
        try:
            if len(parts) == 1:
                return cls("fixed", int(parts[0]))
            if parts[0] == "geo" and len(parts) == 3:
                lo = int(parts[1])
                mean = float(parts[2])
                return cls("geometric", lo, lo + int(8 * mean),
                           mean_extra=mean)
            if len(parts) == 2:
                return cls("uniform", int(parts[0]), int(parts[1]))
        except (ValueError, OverflowError) as exc:  # int(8 * inf) overflows
            raise ValueError(f"invalid length spec {spec!r}: {exc}") from None
        raise ValueError(
            f"invalid length spec {spec!r} (expected N, LO:HI, or "
            "geo:LO:MEAN)")

    def sample(self, rng: random.Random) -> int:
        if self.kind == "fixed":
            return self.lo
        if self.kind == "uniform":
            return rng.randint(self.lo, self.hi)
        # geometric: count Bernoulli(p) failures, p = 1/mean_extra.
        # Degenerate mean (zero extra tokens) collapses to ``lo``
        # without consuming a draw that log(1 - 1) would reject.
        if self.mean_extra == 0:
            return min(self.lo, self.hi)
        extra = int(math.log(max(rng.random(), 1e-12))
                    / math.log(1.0 - 1.0 / (self.mean_extra + 1.0)))
        return min(self.lo + extra, self.hi)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LengthSampler({self.kind!r}, lo={self.lo}, hi={self.hi}, "
                f"mean_extra={self.mean_extra})")


def attach_generation_lengths(
    requests: Sequence[Request],
    prompt: LengthSampler,
    output: LengthSampler,
    seed: int = 0,
    max_total: Optional[int] = None,
) -> List["GenerationRequest"]:
    """Decorate an arrival stream with sampled prompt/output lengths.

    Deterministic given ``seed`` and the request order; any arrival
    process composes with any length distribution.  ``max_total`` caps
    ``prompt + output`` (the synthesized KV-cache capacity): prompts
    clamp first, outputs take the remainder (always >= 1).
    """
    if max_total is not None and not (
            isinstance(max_total, int) and max_total >= 2):
        # Checked before the loop so an empty stream is validated too;
        # NaN would compare false in the clamps and lift the cap.
        raise ValueError(
            f"max_total must be None or an int >= 2, got {max_total!r}")
    rng = random.Random(seed)
    out: List[GenerationRequest] = []
    for req in requests:
        p = prompt.sample(rng)
        o = output.sample(rng)
        if max_total is not None:
            p = min(p, max_total - 1)
            o = min(o, max_total - p)
        out.append(GenerationRequest(
            rid=req.rid, t_ms=req.t_ms, model=req.model,
            prompt_tokens=p, output_tokens=o))
    return out


def attach_priorities(
    requests: Sequence["GenerationRequest"],
    high_fraction: float,
    seed: int = 0,
    high: int = 1,
) -> List["GenerationRequest"]:
    """Mark a seeded random ``high_fraction`` of requests as priority.

    Deterministic given ``seed`` and the request order (one draw per
    request).  The stream is derived as ``Random(f"{seed}/priority")``
    — the :mod:`repro.sim.rng` naming scheme — so passing the same
    seed here and to :func:`attach_generation_lengths` keeps the two
    draws independent: marking must never correlate with sampled
    lengths, or priority-class comparisons would be confounded.  The
    kernel engine admits priority ``high`` requests first and lets
    them preempt in-flight priority-0 sequences at step boundaries.
    """
    if not 0 <= high_fraction <= 1:
        raise ValueError("high_fraction must be in [0, 1]")
    if high < 1:
        raise ValueError("high priority must be >= 1")
    rng = random.Random(f"{seed}/priority")
    return [
        GenerationRequest(
            rid=req.rid, t_ms=req.t_ms, model=req.model,
            prompt_tokens=req.prompt_tokens,
            output_tokens=req.output_tokens,
            priority=high if rng.random() < high_fraction else 0)
        for req in requests
    ]


class ModelMix:
    """A normalized categorical distribution over model names."""

    def __init__(
        self,
        weights: Union[Mapping[str, float], Sequence[Tuple[str, float]], str],
    ):
        if isinstance(weights, str):
            weights = {weights: 1.0}
        items = list(weights.items()) if isinstance(weights, Mapping) else list(weights)
        if not items:
            raise ValueError("model mix must name at least one model")
        total = float(sum(w for _, w in items))
        # NaN compares false everywhere, so test finiteness explicitly:
        # a NaN weight would otherwise normalize every weight to NaN.
        if not (math.isfinite(total) and total > 0) or any(
                not (math.isfinite(w) and w >= 0) for _, w in items):
            raise ValueError("invalid model mix: weights must be finite "
                             f"and non-negative, sum > 0, got {items!r}")
        self.weights: List[Tuple[str, float]] = [
            (name, w / total) for name, w in items
        ]
        self._cum: List[Tuple[float, str]] = []
        acc = 0.0
        for name, w in self.weights:
            acc += w
            self._cum.append((acc, name))

    @property
    def names(self) -> List[str]:
        return [name for name, _ in self.weights]

    def sample(self, rng: random.Random) -> str:
        u = rng.random()
        for edge, name in self._cum:
            if u <= edge:
                return name
        return self._cum[-1][1]  # float round-off guard


def _finalize(times_models: Iterable[Tuple[float, str]]) -> List[Request]:
    """Sort by time and assign sequential ids (stable for ties)."""
    ordered = sorted(times_models, key=lambda tm: tm[0])
    return [Request(rid=i, t_ms=t, model=m) for i, (t, m) in enumerate(ordered)]


class ArrivalProcess:
    """Base: a seedable generator of a finite open-loop request list."""

    def generate(self, duration_ms: float) -> List[Request]:
        """The requests arriving in ``[0, duration_ms)``, time-ordered.

        The stock processes pause the cyclic garbage collector for the
        call: they build no reference cycles.  Cycles a subclass or a
        custom :class:`ModelMix` builds are kept until the call
        returns, and a thread that re-enables the collector mid-call
        costs speed only.
        """
        raise NotImplementedError


def _check_horizon(duration_ms: float) -> None:
    """An open-ended process needs a finite horizon: ``inf`` would never
    stop drawing arrivals, and NaN would silently draw none."""
    if not 0 <= duration_ms < math.inf:
        raise ValueError(
            f"duration_ms must be finite and >= 0, got {duration_ms!r}")


class PoissonArrivals(ArrivalProcess):
    """Constant-rate Poisson arrivals at ``qps`` requests/second."""

    def __init__(self, qps: float, mix: ModelMix, seed: int = 0):
        if not (math.isfinite(qps) and qps > 0):
            raise ValueError(f"qps must be positive and finite, got {qps!r}")
        self.qps = qps
        self.mix = mix
        self.seed = seed

    @gc_paused()
    def generate(self, duration_ms: float) -> List[Request]:
        _check_horizon(duration_ms)
        rng = random.Random(self.seed)
        rate_ms = self.qps / 1e3
        out: List[Tuple[float, str]] = []
        t = rng.expovariate(rate_ms)
        while t < duration_ms:
            out.append((t, self.mix.sample(rng)))
            t += rng.expovariate(rate_ms)
        return _finalize(out)


class BurstyArrivals(ArrivalProcess):
    """2-state MMPP: quiet periods at a low rate, bursts at a high one.

    ``qps`` is the *long-run average*; ``burst_factor`` is the ratio of
    burst rate to quiet rate, and ``burst_fraction`` the expected share
    of time spent bursting.  Dwell times in each state are exponential
    with means ``dwell_ms`` (quiet) and ``dwell_ms * burst_fraction /
    (1 - burst_fraction)`` (burst), so the time shares come out right.
    """

    def __init__(
        self,
        qps: float,
        mix: ModelMix,
        seed: int = 0,
        burst_factor: float = 4.0,
        burst_fraction: float = 0.2,
        dwell_ms: float = 200.0,
    ):
        if not (math.isfinite(qps) and qps > 0
                and math.isfinite(burst_factor) and burst_factor >= 1
                and 0 < burst_fraction < 1):
            raise ValueError("need finite qps > 0, finite burst_factor >= 1, "
                             "0 < burst_fraction < 1")
        if not (math.isfinite(dwell_ms) and dwell_ms > 0):
            # A zero dwell would divide by zero inside expovariate;
            # reject it with a named error instead.
            raise ValueError(
                f"dwell_ms must be positive and finite, got {dwell_ms!r}")
        self.qps = qps
        self.mix = mix
        self.seed = seed
        self.burst_factor = burst_factor
        self.burst_fraction = burst_fraction
        self.dwell_ms = dwell_ms
        f = burst_fraction
        # average = (1-f)*low + f*low*factor  →  solve for low.
        self.quiet_qps = qps / ((1 - f) + f * burst_factor)
        self.burst_qps = self.quiet_qps * burst_factor

    @gc_paused()
    def generate(self, duration_ms: float) -> List[Request]:
        _check_horizon(duration_ms)
        rng = random.Random(self.seed)
        f = self.burst_fraction
        dwell = {False: self.dwell_ms, True: self.dwell_ms * f / (1 - f)}
        rate_ms = {False: self.quiet_qps / 1e3, True: self.burst_qps / 1e3}
        out: List[Tuple[float, str]] = []
        t, bursting = 0.0, False
        while t < duration_ms:
            phase_end = min(duration_ms, t + rng.expovariate(1.0 / dwell[bursting]))
            nxt = t + rng.expovariate(rate_ms[bursting])
            while nxt < phase_end:
                out.append((nxt, self.mix.sample(rng)))
                nxt += rng.expovariate(rate_ms[bursting])
            t, bursting = phase_end, not bursting
        return _finalize(out)


class DiurnalArrivals(ArrivalProcess):
    """Raised-cosine rate ramp: valley → peak → valley over ``period_ms``.

    The instantaneous rate is ``peak_qps * (floor + (1-floor) *
    (1 - cos(2πt/period)) / 2)``; arrivals are drawn by thinning a
    ``peak_qps`` Poisson stream, which keeps the generator exact and
    seed-deterministic.
    """

    def __init__(
        self,
        peak_qps: float,
        mix: ModelMix,
        seed: int = 0,
        period_ms: float = 1000.0,
        floor: float = 0.1,
    ):
        if not (math.isfinite(peak_qps) and peak_qps > 0
                and math.isfinite(period_ms) and period_ms > 0
                and 0 <= floor <= 1):
            raise ValueError("need finite peak_qps > 0, finite period_ms > 0, "
                             "0 <= floor <= 1")
        self.peak_qps = peak_qps
        self.mix = mix
        self.seed = seed
        self.period_ms = period_ms
        self.floor = floor

    def rate_qps(self, t_ms: float) -> float:
        shape = (1 - math.cos(2 * math.pi * t_ms / self.period_ms)) / 2
        return self.peak_qps * (self.floor + (1 - self.floor) * shape)

    @gc_paused()
    def generate(self, duration_ms: float) -> List[Request]:
        _check_horizon(duration_ms)
        rng = random.Random(self.seed)
        peak_ms = self.peak_qps / 1e3
        out: List[Tuple[float, str]] = []
        t = rng.expovariate(peak_ms)
        while t < duration_ms:
            if rng.random() < self.rate_qps(t) / self.peak_qps:
                out.append((t, self.mix.sample(rng)))
            t += rng.expovariate(peak_ms)
        return _finalize(out)


class TraceReplay(ArrivalProcess):
    """Replay an explicit ``[(t_ms, model), ...]`` arrival trace."""

    def __init__(self, events: Sequence[Tuple[float, str]]):
        for t, _ in events:
            # NaN and +inf would fail ``t < duration_ms`` in generate
            # and be dropped silently.
            if not 0 <= t < math.inf:
                raise ValueError(f"trace timestamps must be finite and "
                                 f"non-negative, got {t!r}")
        self.events = list(events)

    @gc_paused()
    def generate(self, duration_ms: float = math.inf) -> List[Request]:
        if not duration_ms >= 0:  # a finite trace may replay to inf, not NaN
            raise ValueError(f"duration_ms must be >= 0, got {duration_ms!r}")
        return _finalize((t, m) for t, m in self.events if t < duration_ms)
