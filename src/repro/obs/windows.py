"""Windowed time-series aggregation over sim-time sample streams.

A stand-alone analysis toolkit: everything here operates on
``(t_ms, value)`` samples in *simulated* time, fed in nondecreasing
time order — exactly the shape of the
:class:`~repro.obs.metrics.MetricsSampler` series and of per-request
outcome streams derived from engine events.  :mod:`repro.obs.alerts`
and :mod:`repro.obs.anomaly` keep their own inlined windows instead.

Three window kinds:

* :class:`SlidingWindow` — a trailing ``width_ms`` window with O(1)
  amortized push/evict; queries: count, sum, mean, min/max,
  nearest-rank percentile, and event rate per second.
* :class:`TumblingWindow` — fixed ``[k*w, (k+1)*w)`` buckets, each
  reduced by one aggregator (``mean``/``sum``/``count``/``min``/
  ``max``/``last``/``rate``/``p50``/``p90``/``p95``/``p99``) into a
  ``(t_start_ms, value)`` row as the stream crosses its right edge.
* :class:`GaugeWindow` — tumbling *utilization* of a step function
  (a gauge/level): each bucket row is the time-weighted mean of the
  level across the bucket, carrying the level over bucket boundaries.

All widths are validated strictly positive — a zero-width window is a
configuration error, never a silent divide-by-zero.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional, Tuple, Union

from ..serving.slo import percentile

__all__ = ["SlidingWindow", "TumblingWindow", "GaugeWindow",
           "windowed_series", "AGGREGATORS"]

#: Named aggregators accepted by :class:`TumblingWindow`.
AGGREGATORS = ("mean", "sum", "count", "min", "max", "last", "rate",
               "p50", "p90", "p95", "p99")


def _check_width(width_ms: float) -> float:
    if not width_ms > 0:
        raise ValueError(f"window width must be > 0 ms, got {width_ms}")
    return float(width_ms)


class SlidingWindow:
    """Trailing time window of ``(t_ms, value)`` samples.

    ``push`` appends and evicts in one motion; ``advance`` evicts
    without appending (useful to age a window at a later timestamp).
    Samples exactly ``width_ms`` old are evicted: the window covers
    the half-open interval ``(t - width_ms, t]``.
    """

    __slots__ = ("width_ms", "_samples", "_sum")

    def __init__(self, width_ms: float) -> None:
        self.width_ms = _check_width(width_ms)
        self._samples: deque = deque()
        self._sum = 0.0

    def push(self, t_ms: float, value: float) -> None:
        self._samples.append((t_ms, value))
        self._sum += value
        self.advance(t_ms)

    def advance(self, t_ms: float) -> None:
        """Evict every sample at or before ``t_ms - width_ms``."""
        edge = t_ms - self.width_ms
        samples = self._samples
        while samples and samples[0][0] <= edge:
            self._sum -= samples.popleft()[1]

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def sum(self) -> float:
        return self._sum

    def mean(self) -> float:
        if not self._samples:
            raise ValueError("mean of an empty window is undefined")
        return self._sum / len(self._samples)

    def min(self) -> float:
        if not self._samples:
            raise ValueError("min of an empty window is undefined")
        return min(v for _, v in self._samples)

    def max(self) -> float:
        if not self._samples:
            raise ValueError("max of an empty window is undefined")
        return max(v for _, v in self._samples)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the windowed values."""
        if not self._samples:
            raise ValueError(
                f"percentile p{q:g} of an empty window is undefined")
        return percentile([v for _, v in self._samples], q)

    def rate_per_s(self) -> float:
        """Samples per second over the window width."""
        return len(self._samples) / (self.width_ms / 1e3)

    def values(self) -> List[float]:
        return [v for _, v in self._samples]


def _close_value(agg: Union[str, Callable[[List[float]], float]],
                 width_ms: float, values: List[float]) -> Optional[float]:
    """Reduce one bucket; None = skip the row (empty value-aggregates)."""
    if callable(agg):
        return agg(values) if values else None
    if agg == "count":
        return float(len(values))
    if agg == "sum":
        return float(sum(values))
    if agg == "rate":
        return len(values) / (width_ms / 1e3)
    if not values:
        return None  # mean/min/max/last/percentile of nothing: no row
    if agg == "mean":
        return sum(values) / len(values)
    if agg == "min":
        return min(values)
    if agg == "max":
        return max(values)
    if agg == "last":
        return values[-1]
    return percentile(values, float(agg[1:]))  # p50 / p90 / p95 / p99


class TumblingWindow:
    """Fixed ``[k*w, (k+1)*w)`` buckets reduced by one aggregator.

    Rows land in :attr:`rows` as ``(t_start_ms, value)`` when the
    sample stream crosses a bucket's right edge; :meth:`flush` closes
    through a final timestamp (the bucket containing it included, as a
    partial).  Count-like aggregators (``count``/``sum``/``rate``)
    emit a zero row for empty buckets; value aggregators skip them —
    an empty bucket has no mean, and a silent NaN would poison
    downstream consumers.
    """

    __slots__ = ("width_ms", "agg", "rows", "_bucket", "_values")

    def __init__(self, width_ms: float,
                 agg: Union[str, Callable[[List[float]], float]] = "mean",
                 ) -> None:
        self.width_ms = _check_width(width_ms)
        if not callable(agg) and agg not in AGGREGATORS:
            raise ValueError(
                f"unknown aggregator {agg!r}; expected one of "
                f"{AGGREGATORS} or a callable")
        self.agg = agg
        self.rows: List[Tuple[float, float]] = []
        self._bucket = 0
        self._values: List[float] = []

    def _close_through(self, bucket: int) -> None:
        """Close every bucket with index < ``bucket``."""
        while self._bucket < bucket:
            value = _close_value(self.agg, self.width_ms, self._values)
            if value is not None:
                self.rows.append((self._bucket * self.width_ms, value))
            self._values = []
            self._bucket += 1

    def push(self, t_ms: float, value: float) -> None:
        bucket = int(t_ms // self.width_ms)
        if bucket < self._bucket:
            raise ValueError(
                f"sample at t={t_ms} ms lands in closed bucket {bucket} "
                f"(stream is at bucket {self._bucket}); tumbling windows "
                "need nondecreasing time")
        self._close_through(bucket)
        self._values.append(value)

    def flush(self, t_ms: float) -> List[Tuple[float, float]]:
        """Close every bucket up to and including the one holding
        ``t_ms`` (the last as a partial) and return all rows."""
        self._close_through(int(t_ms // self.width_ms) + 1)
        return self.rows


class GaugeWindow:
    """Per-bucket time-weighted mean of a step function (utilization).

    Feed level *changes* via :meth:`set`; each completed bucket emits
    ``(t_start_ms, mean_level)`` where the mean weights every level by
    how long it held within the bucket — the utilization aggregator
    for gauges like in-flight load or down-instance count.
    """

    __slots__ = ("width_ms", "rows", "_level", "_t", "_bucket", "_area")

    def __init__(self, width_ms: float, initial: float = 0.0) -> None:
        self.width_ms = _check_width(width_ms)
        self.rows: List[Tuple[float, float]] = []
        self._level = float(initial)
        self._t = 0.0
        self._bucket = 0
        self._area = 0.0

    def _advance(self, t_ms: float) -> None:
        if t_ms < self._t:
            raise ValueError(
                f"gauge window moved backwards: t={t_ms} ms after "
                f"t={self._t} ms")
        width = self.width_ms
        end = (self._bucket + 1) * width
        while t_ms >= end:
            self._area += self._level * (end - self._t)
            self.rows.append((self._bucket * width, self._area / width))
            self._t = end
            self._bucket += 1
            self._area = 0.0
            end += width
        self._area += self._level * (t_ms - self._t)
        self._t = t_ms

    def set(self, t_ms: float, level: float) -> None:
        self._advance(t_ms)
        self._level = float(level)

    def add(self, t_ms: float, delta: float) -> None:
        self._advance(t_ms)
        self._level += delta

    @property
    def level(self) -> float:
        return self._level

    def flush(self, t_ms: float) -> List[Tuple[float, float]]:
        """Close through ``t_ms`` (final partial bucket weighted by its
        elapsed fraction) and return all rows."""
        self._advance(t_ms)
        start = self._bucket * self.width_ms
        if t_ms > start:
            self.rows.append((start, self._area / (t_ms - start)))
            self._area = 0.0
            self._t = t_ms
        return self.rows


def windowed_series(series, key: str, width_ms: float,
                    agg: Union[str, Callable[[List[float]], float]] = "mean",
                    ) -> List[Tuple[float, float]]:
    """Tumble one column of a sampled metrics series.

    ``series`` is the row list a :class:`~repro.obs.metrics.
    MetricsRegistry` accumulates (each row a dict with ``t_ms`` plus
    instrument columns); rows missing ``key`` are skipped, so a
    lazily-created instrument simply contributes nothing before its
    first sample.
    """
    window = TumblingWindow(width_ms, agg)
    t_last = 0.0
    for row in series:
        t_last = row["t_ms"]
        value = row.get(key)
        if value is not None:
            window.push(t_last, value)
    return window.flush(t_last)
