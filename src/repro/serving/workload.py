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
from dataclasses import FrozenInstanceError
from itertools import count
from math import log
from typing import (Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from .._checks import (check_count, check_non_negative, check_positive,
                       is_count, is_non_negative, is_positive)
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


class Request:
    """One inference request in the open-loop stream.

    Immutable: assigning or deleting a field raises
    :class:`~dataclasses.FrozenInstanceError`, so one request list can
    be shared read-only (the DSE evaluator memoizes seeded workloads
    across points).  Equality and hashing are by value and by exact
    class, ``repr`` is the dataclass form, and pickling rebuilds the
    request through its constructor.

    A ``__slots__`` class with no per-instance ``__dict__``; the
    constructor fills the slots through their member descriptors, as
    its own ``__setattr__`` refuses every assignment.
    """

    __slots__ = ("rid", "t_ms", "model")
    #: The fields, in constructor order (equality, hash, repr, pickle).
    __match_args__ = __slots__

    def __init__(self, rid: int, t_ms: float, model: str) -> None:
        _set_rid(self, rid)
        _set_t_ms(self, t_ms)
        _set_model(self, model)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._astuple()


_set_rid = Request.rid.__set__
_set_t_ms = Request.t_ms.__set__
_set_model = Request.model.__set__


class GenerationRequest(Request):
    """One autoregressive request: a prompt plus a token budget.

    Subclasses :class:`Request` so dispatch schedulers and trace tooling
    see the same surface; the extra fields drive the prefill/decode
    split in the generation service mode.  ``priority`` feeds the
    kernel engine's priority admission: higher values admit first, and
    a strictly-higher-priority arrival may preempt an in-flight
    sequence at a step boundary (0 everywhere = plain FIFO).
    """

    __slots__ = ("prompt_tokens", "output_tokens", "priority")
    __match_args__ = Request.__match_args__ + __slots__

    def __init__(self, rid: int, t_ms: float, model: str,
                 prompt_tokens: int = 1, output_tokens: int = 1,
                 priority: int = 0) -> None:
        if not (is_count(prompt_tokens) and is_count(output_tokens)):
            raise ValueError("prompt_tokens and output_tokens must be >= 1")
        if not is_count(priority, 0):
            raise ValueError(
                f"priority must be an int >= 0, got {priority!r}")
        Request.__init__(self, rid, t_ms, model)
        _set_prompt_tokens(self, prompt_tokens)
        _set_output_tokens(self, output_tokens)
        _set_priority(self, priority)

    @property
    def total_tokens(self) -> int:
        """KV-cache positions the request occupies when finished."""
        return self.prompt_tokens + self.output_tokens


_set_prompt_tokens = GenerationRequest.prompt_tokens.__set__
_set_output_tokens = GenerationRequest.output_tokens.__set__
_set_priority = GenerationRequest.priority.__set__


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
        # A float length makes fractional-token requests; NaN dies
        # deep in the simulation and inf is silently clamped.
        check_count("lo", lo)
        check_count("hi", hi)
        if hi < lo:
            raise ValueError("need hi >= lo")
        check_non_negative("mean_extra", mean_extra)
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
        out.append(GenerationRequest(req.rid, req.t_ms, req.model, p, o))
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
    check_count("high priority", high)
    rng = random.Random(f"{seed}/priority")
    return [
        GenerationRequest(
            req.rid, req.t_ms, req.model, req.prompt_tokens,
            req.output_tokens,
            high if rng.random() < high_fraction else 0)
        for req in requests
    ]


class ModelMix:
    """A normalized categorical distribution over model names.

    The stock arrival processes draw through :meth:`_draws`, not
    :meth:`sample`, so a subclass that overrides ``sample`` does not
    change their model sequence.
    """

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
        if not is_positive(total) or not all(
                is_non_negative(w) for _, w in items):
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
        return next(self._draws(rng.random))

    def _draws(self, rand) -> Iterator[str]:
        """Endless draws, one ``rand()`` each: the first model with
        ``u <= edge``, the last on float round-off."""
        cum = self._cum
        last = cum[-1][1]
        while True:
            u = rand()
            for edge, model in cum:
                if u <= edge:
                    break
            else:
                model = last
            yield model


def _numbered(times: Iterable[float], rand, mix: ModelMix) -> List[Request]:
    """Requests for arrival ``times`` (non-decreasing), numbered in order.

    ``map`` advances its iterators left to right and stops at the first
    exhausted one, so each arrival's model is drawn right after its
    time, and no model is drawn after the last time.
    """
    return list(map(Request, count(), times, mix._draws(rand)))


def _finalize(times_models: Iterable[Tuple[float, str]]) -> List[Request]:
    """Sort by time and assign sequential ids (stable for ties)."""
    ordered = sorted(times_models, key=lambda tm: tm[0])
    return [Request(i, t, m) for i, (t, m) in enumerate(ordered)]


class ArrivalProcess:
    """Base: a seedable generator of a finite open-loop request list."""

    def generate(self, duration_ms: float) -> List[Request]:
        """The requests arriving in ``[0, duration_ms)``, time-ordered,
        with sequential ``rid`` from 0.

        An open-ended process needs a finite ``duration_ms >= 0``:
        ``inf`` would never stop drawing arrivals, and NaN would
        silently draw none.  The stock random processes build the list
        in one pass: they draw arrival times in non-decreasing order,
        so each :class:`Request` is appended as it is drawn, with no
        intermediate list and no sort.  Their draws are
        ``random.Random(seed).random`` with ``expovariate`` inlined,
        the same stream and floats as calling it, and models come from
        ``ModelMix._draws``: they never call :meth:`ModelMix.sample`,
        so overriding it has no effect.  The stock processes pause the
        cyclic garbage collector for the call: they build no reference
        cycles.  Cycles a subclass builds are kept until the call
        returns, and a thread that re-enables the collector mid-call
        costs speed only.
        """
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Constant-rate Poisson arrivals at ``qps`` requests/second."""

    def __init__(self, qps: float, mix: ModelMix, seed: int = 0):
        check_positive("qps", qps)
        self.qps = qps
        self.mix = mix
        self.seed = seed

    @gc_paused()
    def generate(self, duration_ms: float) -> List[Request]:
        check_non_negative("duration_ms", duration_ms)
        rand = random.Random(self.seed).random
        return _numbered(self._times(rand, duration_ms), rand, self.mix)

    def _times(self, rand, duration_ms: float) -> Iterator[float]:
        rate_ms = self.qps / 1e3
        t = -log(1.0 - rand()) / rate_ms
        while t < duration_ms:
            yield t
            t += -log(1.0 - rand()) / rate_ms


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
        if not (is_positive(qps) and is_positive(burst_factor)
                and burst_factor >= 1 and 0 < burst_fraction < 1):
            raise ValueError("need finite qps > 0, finite burst_factor >= 1, "
                             "0 < burst_fraction < 1")
        # A zero dwell would divide by zero in the dwell-time draw.
        check_positive("dwell_ms", dwell_ms)
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
        check_non_negative("duration_ms", duration_ms)
        rand = random.Random(self.seed).random
        return _numbered(self._times(rand, duration_ms), rand, self.mix)

    def _times(self, rand, duration_ms: float) -> Iterator[float]:
        f = self.burst_fraction
        # Rates out of each state: 1 / mean dwell.
        leave = {False: 1.0 / self.dwell_ms,
                 True: 1.0 / (self.dwell_ms * f / (1 - f))}
        rate_ms = {False: self.quiet_qps / 1e3, True: self.burst_qps / 1e3}
        t, bursting = 0.0, False
        while t < duration_ms:
            phase_end = min(duration_ms,
                            t + -log(1.0 - rand()) / leave[bursting])
            rate = rate_ms[bursting]
            nxt = t + -log(1.0 - rand()) / rate
            while nxt < phase_end:
                yield nxt
                nxt += -log(1.0 - rand()) / rate
            t, bursting = phase_end, not bursting


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
        if not (is_positive(peak_qps) and is_positive(period_ms)
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
        check_non_negative("duration_ms", duration_ms)
        rand = random.Random(self.seed).random
        return _numbered(self._times(rand, duration_ms), rand, self.mix)

    def _times(self, rand, duration_ms: float) -> Iterator[float]:
        peak_ms = self.peak_qps / 1e3
        t = -log(1.0 - rand()) / peak_ms
        while t < duration_ms:
            if rand() < self.rate_qps(t) / self.peak_qps:
                yield t
            t += -log(1.0 - rand()) / peak_ms


class TraceReplay(ArrivalProcess):
    """Replay an explicit ``[(t_ms, model), ...]`` arrival trace."""

    def __init__(self, events: Sequence[Tuple[float, str]]):
        for t, _ in events:
            # NaN and +inf would fail ``t < duration_ms`` in generate
            # and be dropped silently.
            if not is_non_negative(t):
                raise ValueError(f"trace timestamps must be finite and "
                                 f"non-negative, got {t!r}")
        self.events = list(events)

    @gc_paused()
    def generate(self, duration_ms: float = math.inf) -> List[Request]:
        if not duration_ms >= 0:  # a finite trace may replay to inf, not NaN
            raise ValueError(f"duration_ms must be >= 0, got {duration_ms!r}")
        return _finalize((t, m) for t, m in self.events if t < duration_ms)
