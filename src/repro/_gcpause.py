"""Pause CPython's cyclic garbage collector over bulk allocation.

Arrival generation and the engine drains allocate hundreds of thousands
of small objects per run — requests, events, records, sample tuples —
and build no reference cycles, so reference counting frees all of it.
The cyclic collector is still triggered by the allocation count alone,
and its full passes walk every live object to free nothing.
:func:`gc_paused` switches it off for such a block.  It is applied in
exactly two places: ``_FleetSimulator._drive`` (every engine run) and
the ``generate`` of each arrival process.

The pause only defers work: every object allocated under it is still
in the young generation afterwards, so the first allocation after the
block pays one young pass over them.  That pass stays inside the call
that caused it (the caller allocates its results next).

This module imports nothing from :mod:`repro`, so any layer can use it
without an import cycle.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def gc_paused():
    """Disable the cyclic collector for the block (or decorated call).

    On exit, normal or by exception, the collector is re-enabled only
    if it was enabled on entry: a collector the caller disabled stays
    disabled, and nested pauses are free.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
