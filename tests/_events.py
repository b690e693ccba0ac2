"""How tests see an engine run's event stream.

A run keeps no copy of its events: the observer is the stream's only
consumer.  :func:`run_events` attaches a list (next to any observer the
test passes) and hands back what it collected with the result.
"""

from repro.obs import compose


def run_events(run, *args, observer=None, **kwargs):
    """``run(*args, observer=..., **kwargs)`` with a list collecting the
    event stream; returns ``(result, events)``.

    ``run`` is any entry point taking ``observer=`` — ``sim.run``,
    ``simulate`` or ``simulate_generation``.  A given ``observer`` sees
    the stream too, after the list.
    """
    events = []
    tap = (events.append if observer is None
           else compose(events.append, observer))
    return run(*args, observer=tap, **kwargs), events


def golden_events(events):
    """The stream as ``tests/goldens/trace_digests.json`` froze it: the
    digests predate ``requeue`` events, so those are left out."""
    return [e for e in events if e[0] != "requeue"]
