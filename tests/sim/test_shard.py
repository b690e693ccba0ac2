"""Sharded simulation: partitioning, RNG derivation, and merge exactness.

Three contracts under test:

* **Partition/stripe determinism** — :class:`repro.sim.shard.ShardPlan`
  is a pure function of ``(fleet, shards)`` and the request stripe a
  pure function of input order.
* **RNG stability** (the per-shard derivation satellite) — cell
  namespaces key by the cell's first *global* instance index and
  failure streams by global instance index, so re-partitioning a fleet
  renumbers nothing and no cell can draw from a sibling's stream.
* **Merge exactness** — a merged summary's percentile multisets,
  sums, and depth integral equal the cells' combined truth, and the
  process-pool path is byte-identical to the serial in-process path.

``shards=1`` never enters the shard module at all: the façade runs the
ordinary engine, which is what keeps the trace-identity goldens
byte-identical with the flag present.
"""

import pytest

from repro.obs import KernelProfiler, TraceRecorder
from repro.serving import (
    ClusterSimulator,
    GenerationClusterSimulator,
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
    fixed_size,
    summarize,
    summarize_generation,
)
from repro.sim.failures import FailureInjector, FailurePlan
from repro.sim.fleet import FleetSpec, InstanceSpec
from repro.sim.rng import RngStreams
from repro.sim.shard import (
    ShardPlan,
    merge_generation_summaries,
    merge_serve_summaries,
    run_sharded,
)

MIX = ModelMix({"model2-lhc-trigger": 3.0, "model1-peng-isqed21": 2.0,
                "model3-efa-trans": 1.0})


def _requests(qps=350, seed=11, duration=800):
    return PoissonArrivals(qps, MIX, seed=seed).generate(duration)


def _gen_requests(accel, qps=30, seed=404, duration=600.0):
    arrivals = PoissonArrivals(qps, MIX, seed=seed).generate(duration)
    return attach_generation_lengths(
        arrivals,
        LengthSampler("uniform", 8, 24),
        LengthSampler("geometric", 4, 48, mean_extra=10.0),
        seed=77, max_total=accel.synth.max_seq_len)


# ----------------------------------------------------------------------
# ShardPlan
# ----------------------------------------------------------------------

class TestShardPlan:
    def test_even_partition(self):
        plan = ShardPlan.partition(FleetSpec.uniform(8), 4)
        assert plan.bounds == ((0, 2), (2, 4), (4, 6), (6, 8))

    def test_uneven_partition_covers_everything(self):
        plan = ShardPlan.partition(FleetSpec.uniform(7), 3)
        assert plan.bounds[0][0] == 0 and plan.bounds[-1][1] == 7
        sizes = [hi - lo for lo, hi in plan.bounds]
        assert sum(sizes) == 7
        assert max(sizes) - min(sizes) <= 1
        # Contiguous: each cell starts where the previous ended.
        for (_, hi), (lo, _) in zip(plan.bounds, plan.bounds[1:]):
            assert hi == lo

    def test_cell_fleets_slice_the_specs(self):
        specs = tuple(InstanceSpec(speed=float(i + 1)) for i in range(5))
        fleet = FleetSpec(specs)
        plan = ShardPlan.partition(fleet, 2)
        fleets = plan.cell_fleets(fleet)
        assert [f.n for f in fleets] == [2, 3]
        assert fleets[1].specs == specs[2:]

    def test_request_striping_is_positional(self):
        plan = ShardPlan.partition(FleetSpec.uniform(4), 2)
        cells = plan.split_requests(list(range(9)))
        assert cells == [[0, 2, 4, 6, 8], [1, 3, 5, 7]]

    def test_too_many_shards_rejected(self):
        with pytest.raises(ValueError, match="every cell needs"):
            ShardPlan.partition(FleetSpec.uniform(2), 3)

    def test_nonpositive_shards_rejected(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            ShardPlan.partition(FleetSpec.uniform(2), 0)

    def test_merge_refuses_empty(self):
        with pytest.raises(ValueError, match="no cell summaries"):
            merge_serve_summaries([])
        with pytest.raises(ValueError, match="no cell summaries"):
            merge_generation_summaries([])

    def test_unknown_mode_rejected(self, default_accel):
        sim = ClusterSimulator(default_accel, 4)
        with pytest.raises(ValueError, match="unknown shard mode"):
            run_sharded(sim, [], mode="dse", shards=2)


# ----------------------------------------------------------------------
# RNG derivation (satellite: stability under renumbering, isolation)
# ----------------------------------------------------------------------

class TestRngDerivation:
    def test_derive_is_deterministic(self):
        a = RngStreams(7).derive("cell/4").stream("x").random()
        b = RngStreams(7).derive("cell/4").stream("x").random()
        assert a == b

    def test_derive_namespaces_are_independent(self):
        root = RngStreams(7)
        a = root.derive("cell/0").stream("x").random()
        b = root.derive("cell/4").stream("x").random()
        assert a != b
        # A child namespace never collides with a root-level stream of
        # the same name.
        assert a != RngStreams(7).stream("x").random()

    def test_cell_streams_stable_under_renumbering(self):
        """A cell's namespace depends on which instances it holds, not
        on how many sibling cells exist."""
        fleet = FleetSpec.uniform(8)
        two = ShardPlan.partition(fleet, 2).cell_streams(seed=3)
        four = ShardPlan.partition(fleet, 4).cell_streams(seed=3)
        # 2-shard cell 1 starts at instance 4; 4-shard cell 2 does too.
        assert two[1].seed == four[2].seed
        assert (two[1].stream("x").random()
                == RngStreams(3).derive("cell/4").stream("x").random())

    def test_failure_streams_key_by_global_index(self, default_accel):
        """Instance 2's fault history is identical whether it's local
        index 2 of an unsharded engine or local index 0 of a cell with
        ``instance_base=2`` — the stream name is ``failure/2`` both
        ways (shard-renumbering stability)."""
        plan = FailurePlan(mtbf_ms=500.0, mttr_ms=60.0, seed=9)
        whole = FailureInjector(plan, horizon_ms=10_000.0)
        cell = FailureInjector(plan, horizon_ms=10_000.0)
        # Whole-fleet draw order: instances 0..3 interleaved.
        seq_whole = [whole.next_failure_ms(i, 0.0) for i in range(4)]
        # Sibling cell [0, 2) draws first and heavily — it must not
        # perturb cell [2, 4)'s streams.
        for _ in range(50):
            cell.next_failure_ms(0, 0.0)
            cell.repair_duration_ms(1)
        assert cell.next_failure_ms(2, 0.0) == seq_whole[2]
        assert cell.next_failure_ms(3, 0.0) == seq_whole[3]

    def test_per_instance_failure_counts_survive_sharding(
            self, default_accel):
        """End-to-end renumbering stability: every instance's injected-
        fault count matches between shards=1 and shards=2 (global
        stream keys + the global failure horizon)."""
        reqs = _requests(qps=250, seed=13, duration=2000)
        plan = FailurePlan(mtbf_ms=600.0, mttr_ms=80.0, seed=5)
        sim = ClusterSimulator(default_accel, 4, scheduler="least-loaded",
                               batching=fixed_size(4), failures=plan)
        whole = sim.run(reqs, detail="summary")
        sharded = sim.run(reqs, detail="summary", shards=2)
        assert ([i.failures for i in sharded.instances]
                == [i.failures for i in whole.instances])
        assert sharded.availability is not None
        assert sharded.degraded_count is not None


# ----------------------------------------------------------------------
# Merged runs
# ----------------------------------------------------------------------

class TestShardedServe:
    def test_shards_one_is_the_ordinary_run(self, default_accel):
        """The flag's identity case: byte-identical full results."""
        reqs = _requests(duration=300)
        sim = ClusterSimulator(default_accel, 3, scheduler="round-robin",
                               batching=fixed_size(4))
        plain = sim.run(reqs)
        flagged = sim.run(reqs, shards=1)
        assert flagged.records == plain.records
        assert flagged.trace == plain.trace

    def test_merge_preserves_multisets_and_sums(self, default_accel):
        reqs = _requests()
        sim = ClusterSimulator(default_accel, 4, scheduler="round-robin",
                               batching=fixed_size(4))
        plan = ShardPlan.partition(sim.fleet, 2)
        merged = sim.run(reqs, detail="summary", shards=2)
        cells = [
            sim._shard_cell(
                fleet=f, instance_base=lo, requests=cell_reqs,
                failure_horizon_ms=max(r.t_ms for r in reqs),
                rng_seed=stream.seed)
            for f, (lo, _), cell_reqs, stream in zip(
                plan.cell_fleets(sim.fleet), plan.bounds,
                plan.split_requests(reqs), plan.cell_streams())
        ]
        assert merged.total_requests == sum(c.total_requests for c in cells)
        assert merged.total_requests == len(reqs)
        for model in merged.model_lats:
            want = sorted(lat for c in cells
                          for lat in c.model_lats.get(model, []))
            assert sorted(merged.model_lats[model]) == want
        assert merged.makespan_ms == max(c.makespan_ms for c in cells)
        assert [i.index for i in merged.instances] == [0, 1, 2, 3]
        # Depth integrals add: close every cell at the same horizon.
        horizon = merged.makespan_ms
        want_area = sum(c.mean_queue_depth(horizon) for c in cells)
        assert merged.mean_queue_depth(horizon) == pytest.approx(
            want_area, rel=1e-12)

    def test_pool_path_matches_serial(self, default_accel):
        reqs = _requests(duration=600)
        sim = ClusterSimulator(default_accel, 4, scheduler="round-robin",
                               batching=fixed_size(4))
        serial = sim.run(reqs, detail="summary", shards=2)
        pooled = sim.run(reqs, detail="summary", shards=2, shard_jobs=2)
        assert summarize(pooled) == summarize(serial)

    def test_observer_sees_globally_indexed_rows(self, default_accel):
        reqs = _requests(duration=300)
        sim = ClusterSimulator(default_accel, 4, scheduler="round-robin",
                               batching=fixed_size(4))
        recorder = TraceRecorder()
        sim.run(reqs, detail="summary", shards=2, observer=recorder)
        named = {ev["args"]["name"] for ev in recorder.events
                 if ev["name"] == "thread_name"}
        # Rows from both cells, carrying global instance indices.
        assert {"instance 0", "instance 1"} & named
        assert {"instance 2", "instance 3"} & named

    def test_full_detail_rejected(self, default_accel):
        sim = ClusterSimulator(default_accel, 2)
        with pytest.raises(ValueError, match="summary-detail only"):
            sim.run(_requests(duration=50), shards=2)

    def test_profiler_rejected(self, default_accel):
        sim = ClusterSimulator(default_accel, 2)
        with pytest.raises(ValueError, match="cannot span shard cells"):
            sim.run(_requests(duration=50), detail="summary", shards=2,
                    profiler=KernelProfiler())

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_nonpositive_shard_jobs_rejected(self, default_accel, jobs):
        """``shard_jobs=0`` used to run the cells serially in silence."""
        sim = ClusterSimulator(default_accel, 2)
        with pytest.raises(ValueError, match="shard_jobs"):
            sim.run(_requests(duration=50), detail="summary", shards=2,
                    shard_jobs=jobs)

    def test_observer_rejected_on_pool_path(self, default_accel):
        sim = ClusterSimulator(default_accel, 2)
        with pytest.raises(ValueError, match="cannot cross shard"):
            sim.run(_requests(duration=50), detail="summary", shards=2,
                    shard_jobs=2, observer=TraceRecorder())


class TestShardedGeneration:
    def test_merge_preserves_multisets(self, default_accel):
        reqs = _gen_requests(default_accel)
        sim = GenerationClusterSimulator(default_accel, 4, slots=4,
                                         scheduler="least-loaded")
        whole = sim.run(reqs, detail="summary")
        merged = sim.run(reqs, detail="summary", shards=2)
        assert merged.total_requests == whole.total_requests
        assert merged.total_tokens == whole.total_tokens
        assert len(merged.ttfts) == len(merged.lats) == len(merged.req_tpots)
        assert [i.index for i in merged.instances] == [0, 1, 2, 3]
        report = summarize_generation(merged)
        assert report.total_requests == len(reqs)

    def test_pool_path_matches_serial(self, default_accel):
        reqs = _gen_requests(default_accel)
        sim = GenerationClusterSimulator(default_accel, 4, slots=4,
                                         scheduler="least-loaded")
        serial = sim.run(reqs, detail="summary", shards=2)
        pooled = sim.run(reqs, detail="summary", shards=2, shard_jobs=2)
        assert summarize_generation(pooled) == summarize_generation(serial)

    def test_failure_run_merges_availability(self, default_accel):
        reqs = _gen_requests(default_accel, qps=35, seed=909,
                             duration=1500.0)
        plan = FailurePlan(mtbf_ms=900.0, mttr_ms=120.0, seed=5)
        sim = GenerationClusterSimulator(default_accel, 4, slots=4,
                                         scheduler="least-loaded",
                                         failures=plan)
        merged = sim.run(reqs, detail="summary", shards=2)
        assert merged.availability is not None
        assert 0.0 < merged.availability <= 1.0
        assert merged.total_failures == sum(
            i.failures for i in merged.instances)

    def test_full_detail_rejected(self, default_accel):
        sim = GenerationClusterSimulator(default_accel, 2, slots=4)
        with pytest.raises(ValueError, match="summary-detail only"):
            sim.run(_gen_requests(default_accel, duration=50.0), shards=2)
