"""The shared input rules: what a valid count, rate or duration is.

* :func:`is_int` — an int that is not a bool, any sign (bit positions
  such as ``QFormat.frac_bits``): 2.5 or NaN makes fractional units,
  and ``True`` reads as 1;
* :func:`is_count` — an :func:`is_int` ``>= 1``, or ``>= least`` (0
  for levels such as a request priority);
* :func:`is_positive` — ``0 < v < inf`` (rates, widths, SLOs);
* :func:`is_non_negative` — ``0 <= v < inf`` (latencies, horizons).

NaN compares false everywhere, so it fails all four.  Each
``check_*`` raises ``ValueError(f"{name} must ..., got {v!r}")``; a
site whose wording a caller relies on calls the predicate and keeps
its own text.  Entry points and constructors check, never per event.
This module imports nothing from :mod:`repro`.
"""

from __future__ import annotations

import math


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_count(value, least: int = 1) -> bool:
    return is_int(value) and value >= least


def is_positive(value) -> bool:
    return 0 < value < math.inf


def is_non_negative(value) -> bool:
    return 0 <= value < math.inf


def check_count(name: str, value) -> None:
    if not is_count(value):
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")


def check_positive(name: str, value) -> None:
    if not is_positive(value):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_non_negative(name: str, value) -> None:
    if not is_non_negative(value):
        raise ValueError(f"{name} must be >= 0 and finite, got {value!r}")
