"""The engines and arrival processes pause the cyclic garbage collector
and leave it as they found it: on after a run that raised, off after a
run whose caller had turned it off.  :func:`acyclic` checks the
invariant the pause rests on, for the tests that run each mode."""

import gc

import pytest

from repro.serving import ModelMix, PoissonArrivals, Request, simulate


def acyclic(run, *args, **kwargs):
    """``run(*args, **kwargs)``, checked to leave no reference cycles and
    the collector on or off as it found it.

    Everything alive before the call is frozen first, so the check sees
    only what the call allocates, and costs that much rather than a walk
    over the whole test session's heap.  Every collection from then on
    counts, the final ``gc.collect()`` and those the call triggers
    itself, so a cycle freed by the young pass the pause defers is
    caught too.
    """
    enabled = gc.isenabled()
    freed = []

    def tally(phase, info):
        if phase == "stop":
            freed.append(info["collected"])

    gc.freeze()
    gc.callbacks.append(tally)
    try:
        result = run(*args, **kwargs)
        assert gc.isenabled() == enabled
        gc.collect()
    finally:
        gc.callbacks.remove(tally)
        gc.unfreeze()
    assert sum(freed) == 0, f"collections freed {freed}"
    return result


@pytest.fixture
def collector_restored():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollectorState:
    def test_enabled_again_after_a_run_raises(self, default_accel,
                                              collector_restored):
        requests = [Request(rid=0, t_ms=0.0, model="model2-lhc-trigger"),
                    Request(rid=1, t_ms=1.0, model="no-such-model")]
        gc.enable()
        with pytest.raises(KeyError, match="no-such-model"):
            simulate(default_accel, requests, n_instances=2)
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self, default_accel,
                                            collector_restored):
        gc.disable()
        requests = PoissonArrivals(
            500, ModelMix("model2-lhc-trigger"), seed=1).generate(100.0)
        simulate(default_accel, requests, n_instances=2)
        assert not gc.isenabled()
