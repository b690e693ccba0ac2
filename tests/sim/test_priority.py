"""Priority admission and step-boundary preemption for generation."""

import pytest

from repro.serving import (
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
    attach_priorities,
    render_generation_report,
    summarize_generation,
)
from repro.serving.generation import GenerationClusterSimulator
from repro.serving.workload import GenerationRequest, LengthSampler

from .._events import run_events

MODEL = "model2-lhc-trigger"
MIX = ModelMix(MODEL)


def _req(rid, t_ms, prompt=8, out=4, priority=0, model=MODEL):
    return GenerationRequest(rid=rid, t_ms=t_ms, model=model,
                             prompt_tokens=prompt, output_tokens=out,
                             priority=priority)


class TestAttachPriorities:
    def test_deterministic_and_bounded(self):
        arrivals = PoissonArrivals(50, MIX, seed=1).generate(500)
        reqs = attach_generation_lengths(
            arrivals, LengthSampler("fixed", 8), LengthSampler("fixed", 8))
        a = attach_priorities(reqs, 0.3, seed=5)
        b = attach_priorities(reqs, 0.3, seed=5)
        assert a == b
        assert 0 < sum(1 for r in a if r.priority) < len(a)
        assert attach_priorities(reqs, 0.0) == reqs
        with pytest.raises(ValueError, match="high_fraction"):
            attach_priorities(reqs, 1.5)
        with pytest.raises(ValueError, match="high priority"):
            attach_priorities(reqs, 0.5, high=0)

    def test_priority_validates_on_request(self):
        assert _req(0, 0.0, priority=3).priority == 3

    def test_marking_independent_of_length_draws(self):
        """Regression: with one shared seed, priority marking used to
        consume the same PRNG sequence as the geometric length
        sampler, so the marked class was exactly the long-output
        requests.  The streams must be independent."""
        arrivals = PoissonArrivals(200, MIX, seed=0).generate(1000)
        reqs = attach_generation_lengths(
            arrivals, LengthSampler("fixed", 8),
            LengthSampler("geometric", 1, 256, mean_extra=32.0), seed=0)
        marked = attach_priorities(reqs, 0.5, seed=0)
        hi = [r.output_tokens for r in marked if r.priority]
        lo = [r.output_tokens for r in marked if not r.priority]
        assert hi and lo
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        # Both classes sample the same distribution; their means must
        # be in the same ballpark, not an extreme-order split.
        assert 0.5 < mean(hi) / mean(lo) < 2.0


class TestPreemption:
    def test_preempts_the_last_active_slot(self, default_accel):
        """slots=1: the single in-flight low-priority sequence is the
        'last active slot' — a high-priority arrival must evict it at
        the next boundary, run to completion, then let it resume."""
        reqs = [
            _req(0, 0.0, out=64, priority=0),
            _req(1, 1.0, out=2, priority=5),
        ]
        res, events = run_events(GenerationClusterSimulator(
            default_accel, 1, slots=1).run, reqs)
        assert res.total_preemptions == 1
        rec0 = next(r for r in res.records if r.rid == 0)
        rec1 = next(r for r in res.records if r.rid == 1)
        assert rec0.preemptions == 1
        assert rec1.preemptions == 0
        # The high-priority request finishes before the evicted one.
        assert rec1.t_complete_ms < rec0.t_complete_ms
        assert rec0.output_tokens == 64  # resume lost no tokens
        kinds = [ev[0] for ev in events]
        assert "preempt" in kinds and "resume" in kinds

    def test_no_preemption_without_priorities(self, default_accel):
        reqs = [_req(0, 0.0, out=64), _req(1, 1.0, out=2)]
        res = GenerationClusterSimulator(
            default_accel, 1, slots=1).run(reqs)
        assert res.total_preemptions == 0
        rec0, rec1 = sorted(res.records, key=lambda r: r.rid)
        assert rec1.t_complete_ms > rec0.t_complete_ms  # plain FIFO

    def test_equal_priority_never_preempts(self, default_accel):
        reqs = [_req(0, 0.0, out=64, priority=2),
                _req(1, 1.0, out=2, priority=2)]
        res = GenerationClusterSimulator(
            default_accel, 1, slots=1, preemption=True).run(reqs)
        assert res.total_preemptions == 0

    def test_cross_model_waiter_cannot_preempt(self, default_accel):
        """Preemption cannot admit a different model (its weights are
        not resident), so a foreign high-priority waiter must wait for
        the active set to drain, not evict it."""
        reqs = [_req(0, 0.0, out=32, priority=0),
                _req(1, 1.0, out=2, priority=9,
                     model="model1-peng-isqed21")]
        res = GenerationClusterSimulator(
            default_accel, 1, slots=1).run(reqs)
        assert res.total_preemptions == 0
        rec0, rec1 = sorted(res.records, key=lambda r: r.rid)
        assert rec1.t_admit_ms >= rec0.t_complete_ms

    def test_priority_cuts_high_class_wait_under_load(self, default_accel):
        # Overloaded single slot: queueing is deep, so priority class
        # separation (and preemption) must show up unmistakably.
        arrivals = PoissonArrivals(400, MIX, seed=8).generate(300)
        base = attach_generation_lengths(
            arrivals, LengthSampler("fixed", 12),
            LengthSampler("fixed", 48),
            max_total=default_accel.synth.max_seq_len)
        prioritized = attach_priorities(base, 0.15, seed=4)
        sim = GenerationClusterSimulator(default_accel, 1, slots=1)
        fifo = sim.run(base)
        prio = sim.run(prioritized)
        marked = {r.rid for r in prioritized if r.priority}
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        hi_fifo = mean([r.wait_ms for r in fifo.records
                        if r.rid in marked])
        hi_prio = mean([r.wait_ms for r in prio.records
                        if r.rid in marked])
        assert hi_prio < hi_fifo
        assert prio.total_preemptions > 0
        # Conservation: everything still completes exactly once.
        assert sorted(r.rid for r in prio.records) == \
               [r.rid for r in base]

    def test_preemptions_surface_in_report(self, default_accel):
        reqs = [_req(0, 0.0, out=64, priority=0),
                _req(1, 1.0, out=2, priority=5)]
        rep = summarize_generation(GenerationClusterSimulator(
            default_accel, 1, slots=1).run(reqs))
        assert rep.total_preemptions == 1
        assert "preemptions" in render_generation_report(rep)
        assert rep.as_dict()["preemptions"] == 1
