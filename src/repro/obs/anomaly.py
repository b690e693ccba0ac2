"""Changepoint detection over latency series: rolling median + MAD.

:class:`AnomalyDetector` flags the *onset* of degradation in a
streaming series (per-request latency, TTFT) deterministically: the
baseline is a rolling window of recent healthy samples, a new sample
scores by its distance above the baseline median in units of the MAD
(median absolute deviation), and ``debounce`` consecutive anomalous
samples are required before an onset fires — one tail request does not
an outage make.

Design choices that keep detection stable and reproducible:

* **one-sided** — only *upward* excursions score (latency getting
  better is not an anomaly);
* **robust scale with a floor** — the MAD is floored at
  ``rel_floor * |median|`` (and an absolute epsilon) so a near-constant
  healthy baseline (MAD ≈ 0) doesn't turn harmless jitter into
  infinite scores;
* **baseline exclusion** — anomalous samples never enter the baseline,
  so a sustained outage cannot drag the median up and mask itself;
* **debounced recovery** — after an onset, the first healthy sample
  closes the episode and is recorded in :attr:`recoveries`.

Everything is driven by simulated-time samples in arrival order, so
two identical runs produce byte-identical onset lists (asserted by the
watch integration tests).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Dict, List

from .._checks import (check_count, check_positive, is_non_negative,
                       is_positive)

__all__ = ["AnomalyDetector"]


class AnomalyDetector:
    """Rolling-median + MAD changepoint detector with debounce."""

    def __init__(self, window: int = 64, threshold: float = 6.0,
                 debounce: int = 3, min_samples: int = 12,
                 rel_floor: float = 0.05, abs_floor: float = 1e-9) -> None:
        check_count("window", window)
        check_count("min_samples", min_samples)
        if min_samples > window:
            raise ValueError(
                f"min_samples must be in [1, window={window}], got "
                f"{min_samples}")
        # score >= threshold: a NaN threshold never fires, nor does inf.
        check_positive("threshold", threshold)
        check_count("debounce", debounce)
        if not (is_non_negative(rel_floor) and is_positive(abs_floor)):
            raise ValueError(
                f"scale floors must be >= 0 (rel) and > 0 (abs), both "
                f"finite, got rel_floor={rel_floor}, abs_floor={abs_floor}")
        self.window = window
        self.threshold = threshold
        self.debounce = debounce
        self.min_samples = min_samples
        self.rel_floor = rel_floor
        self.abs_floor = abs_floor
        #: Degradation onsets: {"t_ms", "value", "score"} per episode,
        #: stamped at the *first* sample of the debounced streak.
        self.onsets: List[Dict[str, float]] = []
        #: Timestamps where an episode ended (first healthy sample).
        self.recoveries: List[float] = []
        self.triggered = False
        self._baseline: deque = deque(maxlen=window)
        #: The baseline's values in sorted order, maintained
        #: incrementally — score() runs once per completion and needs
        #: the rolling median without re-sorting the window each time.
        self._sorted: List[float] = []
        self._streak = 0
        self._streak_start = (0.0, 0.0, 0.0)

    def score(self, value: float) -> float:
        """Robust one-sided z-score of ``value`` against the baseline
        (0.0 while the baseline is still warming up)."""
        ordered = self._sorted
        n = len(ordered)
        if n < self.min_samples:
            return 0.0
        # Inlined medians (identical float results to statistics.median,
        # without its per-call overhead): score() runs once per
        # completion, so this is the watchdog's hottest loop.
        half = n // 2
        if n & 1:
            med = ordered[half]
            devs = sorted([abs(x - med) for x in ordered])
            mad = devs[half]
        else:
            med = (ordered[half - 1] + ordered[half]) / 2
            devs = sorted([abs(x - med) for x in ordered])
            mad = (devs[half - 1] + devs[half]) / 2
        scale = max(mad, self.rel_floor * abs(med), self.abs_floor)
        return (value - med) / scale

    def observe(self, t_ms: float, value: float) -> bool:
        """Feed one sample; returns True while the sample is anomalous."""
        score = self.score(value)
        if score >= self.threshold:
            if self._streak == 0:
                self._streak_start = (t_ms, value, score)
            self._streak += 1
            if not self.triggered and self._streak >= self.debounce:
                self.triggered = True
                t0, v0, s0 = self._streak_start
                self.onsets.append({"t_ms": t0, "value": v0, "score": s0})
            return True
        self._streak = 0
        if self.triggered:
            self.triggered = False
            self.recoveries.append(t_ms)
        baseline = self._baseline
        if len(baseline) == self.window:
            del self._sorted[bisect_left(self._sorted, baseline[0])]
        insort(self._sorted, value)
        baseline.append(value)
        return False

    @property
    def onset_times(self) -> List[float]:
        return [onset["t_ms"] for onset in self.onsets]

    def summary(self) -> dict:
        return {
            "onsets": [dict(onset) for onset in self.onsets],
            "recoveries": list(self.recoveries),
            "triggered": self.triggered,
        }
