"""TraceRecorder: event interpretation, span pairing, Chrome export."""

import json

import pytest

from repro.obs import TraceRecorder

from .._events import run_events


def _by_name(tracer, name):
    return [e for e in tracer.events if e["name"] == name]


class TestPrimitives:
    def test_instant_complete_counter_shapes(self):
        tr = TraceRecorder()
        tr.instant("tick", 1.0, rid=7)
        tr.complete("work", 2.0, 3.5, tid=4, model="m")
        tr.counter("depth", 5.0, 9.0)
        inst, comp, ctr = tr.events
        assert inst["ph"] == "i" and inst["ts"] == 1.0
        assert inst["args"] == {"rid": 7}
        assert comp["ph"] == "X" and comp["dur"] == 3.5 and comp["tid"] == 4
        assert ctr["ph"] == "C" and ctr["args"] == {"depth": 9.0}
        assert len(tr) == 3

    def test_unknown_event_kinds_ignored(self):
        tr = TraceRecorder()
        tr(("requeue", 1.0, 3, -1))
        tr(("brand-new-kind", 2.0, "whatever"))
        assert tr.events == []


class TestServeVocabulary:
    def test_dispatch_free_becomes_batch_span(self):
        tr = TraceRecorder()
        tr(("arrive", 0.0, 0, "m", 1))
        tr(("dispatch", 1.0, 1, "m", 4, 0.0))
        tr(("free", 6.0, 1))
        (span,) = _by_name(tr, "batch")
        assert span["ts"] == 1.0 and span["dur"] == 5.0
        assert span["args"] == {"model": "m", "size": 4}
        assert span["tid"] == 2  # instance 1 -> row 1 + 1
        (arrival,) = _by_name(tr, "arrive")
        assert arrival["tid"] == 0  # requests lane

    def test_reprogram_span_emitted_on_switch(self):
        tr = TraceRecorder()
        tr(("dispatch", 2.0, 0, "m", 1, 5.0))
        (rep,) = _by_name(tr, "reprogram")
        assert rep["ts"] == 2.0 and rep["dur"] == 5.0

    def test_fail_aborts_open_batch_and_recover_closes_down(self):
        tr = TraceRecorder()
        tr(("dispatch", 1.0, 0, "m", 2, 0.0))
        tr(("fail", 3.0, 0))
        tr(("recover", 10.0, 0))
        (span,) = _by_name(tr, "batch")
        assert span["args"]["aborted"] is True and span["dur"] == 2.0
        (down,) = _by_name(tr, "down")
        assert down["ts"] == 3.0 and down["dur"] == 7.0

    def test_thread_name_metadata_emitted_once(self):
        tr = TraceRecorder()
        tr(("dispatch", 1.0, 0, "m", 1, 0.0))
        tr(("free", 2.0, 0))
        tr(("dispatch", 3.0, 0, "m", 1, 0.0))
        metas = _by_name(tr, "thread_name")
        assert len(metas) == 1
        assert metas[0]["args"] == {"name": "instance 0"}


class TestGenerateVocabulary:
    def test_admit_finish_becomes_sequence_span(self):
        tr = TraceRecorder()
        tr(("admit", 1.0, 0, 9, 16, 32))
        tr(("finish", 21.0, 0, 9))
        (seq,) = _by_name(tr, "sequence")
        assert seq["ts"] == 1.0 and seq["dur"] == 20.0
        assert seq["args"]["prompt_tokens"] == 16

    def test_step_is_complete_span_with_known_duration(self):
        tr = TraceRecorder()
        tr(("step", 4.0, 1, "m", 2, 3, 1.25))
        (step,) = _by_name(tr, "step")
        assert step["dur"] == 1.25
        assert step["args"] == {"model": "m", "admitted": 2, "decoding": 3}

    def test_preempt_closes_span_and_marks_instant(self):
        tr = TraceRecorder()
        tr(("admit", 1.0, 0, 5, 8, 8))
        tr(("preempt", 3.0, 0, 5))
        assert _by_name(tr, "preempt")
        (seq,) = _by_name(tr, "sequence (preempted)")
        assert seq["dur"] == 2.0

    def test_fail_displaces_open_sequences_on_that_instance_only(self):
        tr = TraceRecorder()
        tr(("admit", 1.0, 0, 5, 8, 8))
        tr(("resume", 1.5, 1, 6, 4, 12))
        tr(("fail", 2.0, 0))
        failed = _by_name(tr, "sequence (failed over)")
        assert [s["args"]["rid"] for s in failed] == [5]
        tr(("finish", 9.0, 1, 6))
        (seq,) = _by_name(tr, "sequence")
        assert seq["args"]["resumed"] is True


class TestFinish:
    def test_finish_closes_open_spans(self):
        tr = TraceRecorder()
        tr(("dispatch", 1.0, 0, "m", 2, 0.0))
        tr(("admit", 2.0, 1, 7, 8, 8))
        tr(("fail", 3.0, 2))
        tr.finish(10.0)
        (batch,) = _by_name(tr, "batch")
        assert batch["args"]["unfinished"] is True and batch["dur"] == 9.0
        assert _by_name(tr, "sequence (unfinished)")
        (down,) = _by_name(tr, "down")
        assert down["dur"] == 7.0

    def test_finish_is_idempotent(self):
        tr = TraceRecorder()
        tr(("dispatch", 1.0, 0, "m", 2, 0.0))
        tr.finish(5.0)
        n = len(tr.events)
        tr.finish(9.0)
        assert len(tr.events) == n


class TestExport:
    def test_to_chrome_structure(self):
        tr = TraceRecorder()
        tr(("arrive", 0.0, 0, "m", 0))
        doc = tr.to_chrome(run_config={"seed": 3})
        assert set(doc) == {"traceEvents", "displayTimeUnit", "metadata"}
        assert doc["displayTimeUnit"] == "ms"
        assert doc["metadata"]["run_config"] == {"seed": 3}
        assert "timebase" in doc["metadata"]
        for event in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event)
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_dump_roundtrips(self, tmp_path):
        tr = TraceRecorder()
        tr(("dispatch", 1.0, 0, "m", 1, 0.0))
        tr(("free", 2.0, 0))
        path = tmp_path / "run.trace.json"
        tr.dump(path, run_config={"qps": 10})
        loaded = json.loads(path.read_text())
        assert loaded == tr.to_chrome(run_config={"qps": 10})

    def test_dump_unwritable_path_raises_oserror(self, tmp_path):
        tr = TraceRecorder()
        with pytest.raises(OSError):
            tr.dump(tmp_path / "no-such-dir" / "run.json")


class TestHeterogeneousFleetFailures:
    """Satellite coverage: down spans overlapping preemption/requeue
    on a mixed-speed fleet under failure injection."""

    @pytest.fixture(scope="class")
    def traced_run(self, default_accel):
        from repro.obs import MetricsSampler, compose
        from repro.serving import (
            LengthSampler,
            ModelMix,
            PoissonArrivals,
            attach_generation_lengths,
            attach_priorities,
        )
        from repro.serving.generation import GenerationClusterSimulator
        from repro.sim import FailurePlan, FleetSpec

        mix = ModelMix({"model2-lhc-trigger": 2.0,
                        "model1-peng-isqed21": 1.0})
        arrivals = PoissonArrivals(300, mix, seed=21).generate(500.0)
        requests = attach_generation_lengths(
            arrivals, LengthSampler("uniform", 8, 24),
            LengthSampler("geometric", 4, mean_extra=16.0), seed=9,
            max_total=default_accel.synth.max_seq_len)
        requests = attach_priorities(requests, 0.3, seed=4)
        fleet = FleetSpec.parse("1.0/4,0.5/4,1.5/2")  # mixed speeds+slots
        sim = GenerationClusterSimulator(
            default_accel, scheduler="least-loaded", fleet=fleet,
            failures=FailurePlan(mtbf_ms=120.0, mttr_ms=40.0, seed=3))
        bare = sim.run(requests)
        tracer, sampler = TraceRecorder(), MetricsSampler(grid_ms=25.0)
        observed, events = run_events(sim.run, requests,
                                      observer=compose(tracer, sampler))
        return bare, observed, tracer, sampler, events

    def test_observed_run_identical(self, traced_run):
        bare, observed, _, _, _ = traced_run
        assert observed.records == bare.records
        assert observed.queue_samples == bare.queue_samples
        assert observed.instances == bare.instances

    def test_scenario_exercises_all_disruptions(self, traced_run):
        _, _, _, sampler, events = traced_run
        kinds = {e[0] for e in events}
        assert {"fail", "recover", "preempt"} <= kinds
        assert sampler.registry.counters["requeues"].value > 0

    def test_down_spans_match_fail_recover_pairs(self, traced_run):
        _, _, tracer, _, events = traced_run
        downs = [e for e in tracer.events if e["name"] == "down"]
        fails = [e for e in events if e[0] == "fail"]
        assert len(downs) == len(fails)
        # Every down span starts at a fail and ends at the matching
        # recover (or the horizon, flagged unfinished by finish()).
        fail_times = sorted(e[1] for e in fails)
        assert sorted(d["ts"] for d in downs) == pytest.approx(fail_times)
        for d in downs:
            assert d["dur"] > 0

    def test_disruptions_overlap_down_spans(self, traced_run):
        _, _, tracer, _, events = traced_run
        downs = [(d["tid"], d["ts"], d["ts"] + d["dur"])
                 for d in tracer.events if d["name"] == "down"]
        # While at least one instance is down, displaced and preempted
        # work churns: some preempt/requeue activity must land inside
        # a down interval (the point of the satellite scenario).
        preempts = [e[1] for e in events if e[0] == "preempt"]
        overlapping = [
            t for t in preempts
            if any(t0 - 1e-9 <= t <= t1 + 1e-9 for _, t0, t1 in downs)]
        assert downs, "failure plan must take instances down"
        assert overlapping, (
            "scenario must preempt while an instance is down")

    def test_displaced_sequences_flagged_and_recorder_drains(
            self, traced_run):
        _, _, tracer, _, _ = traced_run
        failed_over = [e for e in tracer.events
                       if e["name"] == "sequence (failed over)"]
        preempted = [e for e in tracer.events
                     if e["name"] == "sequence (preempted)"]
        assert failed_over, "failures must displace in-flight sequences"
        assert preempted, "priority mix must evict sequences"
        assert not tracer._open_seqs and not tracer._open_batches
        assert not tracer._down_since

    def test_chrome_export_has_instance_rows(self, traced_run):
        _, _, tracer, _, _ = traced_run
        doc = tracer.to_chrome()
        tids = {e["tid"] for e in doc["traceEvents"]
                if e["name"] == "down"}
        assert len(tids) >= 2  # failures hit more than one instance row
