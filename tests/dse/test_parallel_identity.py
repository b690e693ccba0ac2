"""Parallel-determinism harness: jobs and batching change nothing.

The engine promises that an exploration's *results* are a pure
function of (space, strategy, seed, settings) — ``jobs`` and
``batch_size`` may only move the wall clock.  These tests hold that
promise byte for byte, for every strategy, across:

* serial (``jobs=1``), the persistent pool (``jobs=3``), and every
  batching shape (auto, single-point, mid, oversized);
* the rendered report (``as_dict()`` minus the wall clock and the job
  count themselves);
* the on-disk cache: same entry *filenames* (content keys) and same
  entry *bytes*, whichever path wrote them.
"""

import json

import pytest

from repro.dse import Axis, EvalCache, Objective, SearchSpace, explore

OBJS = (Objective("y", "min"), Objective("z", "max"))

#: Every (jobs, batch_size) execution shape under test.  jobs=3 on a
#: 4x3 space exercises multi-worker dispatch; batch sizes cover
#: per-point round-trips (1), uneven splits (2, 5), one-dispatch
#: oversize (50), and the auto heuristic (None).
SHAPES = [(1, None), (3, None), (3, 1), (3, 2), (3, 5), (3, 50)]

STRATEGIES = [
    ("grid", {}),
    ("random", {"samples": 8, "seed": 7}),
    ("evolutionary", {"population": 6, "generations": 3, "seed": 3}),
]


def _space(n=4, m=3):
    return SearchSpace((Axis("a", tuple(range(1, n + 1))),
                        Axis("b", tuple(range(1, m + 1)))))


def bumpy_eval(point, settings):
    """Module-level (picklable) evaluator with an error corner."""
    if point["a"] == settings.get("poison"):
        raise ValueError(f"bad corner a={point['a']}")
    return {"y": float(point["a"] * point["b"]),
            "z": float(point["a"]) - 0.1 * point["b"],
            "extra": point["a"] + point["b"]}


def toy_surrogate(point, settings):
    """Exactly-correlated surrogate for prescreen identity runs."""
    return {"y": float(point["a"] * point["b"]),
            "z": float(point["a"]) - 0.1 * point["b"]}


def report_blob(result) -> str:
    """The canonical report: everything except the wall clock."""
    out = result.as_dict()
    del out["jobs"]
    del out["elapsed_s"]
    return json.dumps(out, sort_keys=True)


def cache_snapshot(path) -> dict:
    """Key -> raw bytes for every cache entry on disk."""
    return {entry.name: entry.read_bytes()
            for entry in path.glob("*.json")}


class TestReportIdentity:
    @pytest.mark.parametrize("strategy,options", STRATEGIES)
    def test_all_shapes_identical(self, strategy, options):
        blobs = {
            report_blob(explore(
                _space(), bumpy_eval, objectives=OBJS,
                strategy=strategy, strategy_options=options,
                settings={"poison": 3}, jobs=jobs, batch_size=batch))
            for jobs, batch in SHAPES
        }
        assert len(blobs) == 1

    @pytest.mark.parametrize("strategy,options", STRATEGIES)
    def test_prescreen_identical_across_shapes(self, strategy, options):
        """A prescreened sweep is deterministic too: survivor selection
        happens strategy-side, before jobs or batching exist."""
        blobs = set()
        for jobs, batch in SHAPES:
            result = explore(
                _space(), bumpy_eval, objectives=OBJS,
                strategy="prescreen",
                strategy_options={"inner": strategy,
                                  "surrogate": toy_surrogate,
                                  "keep": 0.4, "min_keep": 2, **options},
                jobs=jobs, batch_size=batch)
            assert result.prescreen is not None
            blobs.add(report_blob(result))
        assert len(blobs) == 1


class TestCacheIdentity:
    @pytest.mark.parametrize("strategy,options", STRATEGIES)
    def test_same_keys_same_bytes(self, tmp_path, strategy, options):
        """Whoever evaluates, the parent writes the same records under
        the same content keys."""
        snapshots = []
        for i, (jobs, batch) in enumerate(SHAPES):
            cache_dir = tmp_path / f"run{i}"
            explore(_space(), bumpy_eval, objectives=OBJS,
                    strategy=strategy, strategy_options=options,
                    settings={"poison": 2}, jobs=jobs, batch_size=batch,
                    cache=EvalCache(cache_dir))
            snapshots.append(cache_snapshot(cache_dir))
        assert all(snap == snapshots[0] for snap in snapshots[1:])
        assert snapshots[0]  # the sweep actually cached something

    def test_serial_cache_serves_parallel_and_back(self, tmp_path):
        """A cache written serially resumes a pooled sweep verbatim,
        and vice versa — entries carry no trace of who computed them."""
        a, b = tmp_path / "a", tmp_path / "b"
        explore(_space(), bumpy_eval, objectives=OBJS,
                cache=EvalCache(a), jobs=1)
        explore(_space(), bumpy_eval, objectives=OBJS,
                cache=EvalCache(b), jobs=3, batch_size=2)
        assert cache_snapshot(a) == cache_snapshot(b)
        warm = explore(_space(), bumpy_eval, objectives=OBJS,
                       cache=EvalCache(a), jobs=3)
        assert warm.n_evaluated == 0
        assert warm.cache_hits == 12


class TestFrontierIdentity:
    def test_frontier_points_and_objectives_match(self):
        runs = [explore(_space(5, 4), bumpy_eval, objectives=OBJS,
                        jobs=jobs, batch_size=batch)
                for jobs, batch in SHAPES]
        reference = [(r.point, r.objectives) for r in runs[0].frontier]
        assert reference  # non-trivial frontier
        for run in runs[1:]:
            assert [(r.point, r.objectives)
                    for r in run.frontier] == reference
