"""Engine tests: serial/parallel evaluation, cache hits, resume semantics."""

import pytest

from repro.dse import (
    Axis,
    EvalCache,
    Objective,
    SearchSpace,
    explore,
)

OBJS = (Objective("y", "min"), Objective("z", "max"))


def _space(n=3, m=2):
    return SearchSpace((Axis("a", tuple(range(1, n + 1))),
                        Axis("b", tuple(range(1, m + 1)))))


def toy_eval(point, settings):
    """Module-level (hence picklable) toy evaluator."""
    scale = settings.get("scale", 1.0)
    if point["a"] == settings.get("poison"):
        raise ValueError(f"bad corner a={point['a']}")
    return {"y": scale * point["a"] * point["b"],
            "z": float(point["a"]),
            "extra": "kept"}


def inf_eval(point, settings):
    """Evaluator with a non-finite objective value."""
    return {"y": float(point["a"]), "z": float("inf")}


class TestSerial:
    def test_grid_results_in_order(self):
        result = explore(_space(), toy_eval, objectives=OBJS)
        assert [r.point for r in result.results] == list(_space().grid())
        assert result.n_evaluated == 6
        assert all(r.ok for r in result.results)
        assert result.results[0].metrics["extra"] == "kept"

    def test_objectives_extracted(self):
        result = explore(_space(), toy_eval, objectives=OBJS)
        first = result.results[0]
        assert first.objectives == {"y": 1.0, "z": 1.0}

    def test_settings_reach_evaluator(self):
        result = explore(_space(), toy_eval, objectives=OBJS,
                         settings={"scale": 10.0})
        assert result.results[0].objectives["y"] == 10.0

    def test_frontier_is_non_dominated(self):
        result = explore(_space(), toy_eval, objectives=OBJS)
        # y = a*b (min), z = a (max): the frontier trades a up vs y down.
        frontier_points = {(r.point["a"], r.point["b"])
                           for r in result.frontier}
        assert (1, 1) in frontier_points       # min y
        assert (3, 1) in frontier_points       # max z at min y for that a
        assert (3, 2) not in frontier_points   # dominated by (3, 1)

    def test_no_objectives_means_no_frontier(self):
        result = explore(_space(), toy_eval)
        assert result.frontier == []
        assert result.results[0].objectives == {}

    def test_missing_objective_metric_raises(self):
        with pytest.raises(KeyError, match="objective"):
            explore(_space(), toy_eval,
                    objectives=(Objective("nope", "min"),))

    def test_invalid_jobs(self):
        with pytest.raises(ValueError):
            explore(_space(), toy_eval, jobs=0)

    def test_duplicate_grid_values_evaluated_once(self, tmp_path):
        """A duplicated axis value appears per occurrence in the
        results but is scored (and cache-counted) exactly once."""
        space = SearchSpace((Axis("a", (8, 8, 12)),))

        def counting(point, settings):
            counting.calls += 1
            return {"y": float(point["a"]), "z": 1.0}

        counting.calls = 0
        cold = explore(space, counting, objectives=OBJS,
                       cache=EvalCache(tmp_path))
        assert counting.calls == 2
        assert cold.n_evaluated == 2
        assert cold.cache_misses == 2
        assert [r.point["a"] for r in cold.results] == [8, 8, 12]
        warm = explore(space, counting, objectives=OBJS,
                       cache=EvalCache(tmp_path))
        assert warm.cache_hits == 2 and warm.n_evaluated == 0


class TestErrors:
    def test_continue_on_error_records(self):
        result = explore(_space(), toy_eval, objectives=OBJS,
                         settings={"poison": 2})
        errors = [r for r in result.results if not r.ok]
        assert len(errors) == 2
        assert all("bad corner a=2" in r.error for r in errors)
        assert all(r.error.startswith("ValueError") for r in errors)
        # Errored points never reach the frontier.
        assert all(r.ok for r in result.frontier)

    def test_error_record_is_type_and_message(self):
        """An error record keeps the exception type and ``str(exc)``
        verbatim, and no metrics; its neighbours still score."""
        def picky(point, settings):
            if point["a"] % 2:
                raise KeyError(f"odd {point['a']}")
            return {"a": point["a"]}

        space = SearchSpace((Axis("a", (1, 2, 3, 4)),))
        results = explore(space, picky).results
        assert [r.error for r in results] == [
            "KeyError: 'odd 1'", "", "KeyError: 'odd 3'", ""]
        assert [r.metrics for r in results] == [{}, {"a": 2}, {}, {"a": 4}]

    def test_error_propagates_when_not_tolerated(self):
        with pytest.raises(ValueError, match="bad corner"):
            explore(_space(), toy_eval, settings={"poison": 1},
                    continue_on_error=False)


class TestParallel:
    def test_pool_matches_serial(self):
        serial = explore(_space(4, 3), toy_eval, objectives=OBJS)
        pooled = explore(_space(4, 3), toy_eval, objectives=OBJS, jobs=2)
        assert ([(r.point, r.objectives, r.error) for r in serial.results]
                == [(r.point, r.objectives, r.error) for r in pooled.results])
        assert ([r.point for r in serial.frontier]
                == [r.point for r in pooled.frontier])

    def test_pool_tolerates_errors(self):
        pooled = explore(_space(4, 3), toy_eval, objectives=OBJS, jobs=2,
                         settings={"poison": 3})
        assert sum(1 for r in pooled.results if not r.ok) == 3

    def test_explicit_chunk_size(self):
        result = explore(_space(4, 3), toy_eval, objectives=OBJS, jobs=2,
                         batch_size=5)
        assert len(result.results) == 12


class TestCacheAndResume:
    def test_cold_run_populates_cache(self, tmp_path):
        cache = EvalCache(tmp_path)
        result = explore(_space(), toy_eval, objectives=OBJS, cache=cache)
        assert result.cache_hits == 0
        assert result.cache_misses == 6
        assert result.n_evaluated == 6
        assert len(cache) == 6

    def test_resume_same_space_same_seed(self, tmp_path):
        """Same space + same seed => identical frontier, zero re-evals."""
        kwargs = dict(objectives=OBJS, strategy="random",
                      strategy_options={"samples": 5, "seed": 11})
        cold = explore(_space(4, 3), toy_eval,
                       cache=EvalCache(tmp_path), **kwargs)
        warm = explore(_space(4, 3), toy_eval,
                       cache=EvalCache(tmp_path), **kwargs)
        assert warm.n_evaluated == 0
        assert warm.cache_hits == 5 and warm.cache_misses == 0
        assert ([(r.point, r.objectives) for r in warm.frontier]
                == [(r.point, r.objectives) for r in cold.frontier])
        assert all(r.cached for r in warm.results)

    def test_errors_are_cached_too(self, tmp_path):
        settings = {"poison": 2}
        explore(_space(), toy_eval, objectives=OBJS,
                cache=EvalCache(tmp_path), settings=settings)
        warm = explore(_space(), toy_eval, objectives=OBJS,
                       cache=EvalCache(tmp_path), settings=settings)
        assert warm.n_evaluated == 0
        assert sum(1 for r in warm.results if not r.ok) == 2

    def test_different_evaluators_do_not_collide(self, tmp_path):
        """Two evaluators over the same (space, settings) sharing one
        cache directory must key separate namespaces."""
        explore(_space(), toy_eval, objectives=OBJS,
                cache=EvalCache(tmp_path))
        other = explore(_space(), inf_eval, objectives=OBJS,
                        cache=EvalCache(tmp_path))
        assert other.cache_hits == 0
        assert other.n_evaluated == 6
        assert other.results[0].objectives["z"] == float("inf")

    def test_changed_settings_invalidate(self, tmp_path):
        explore(_space(), toy_eval, objectives=OBJS,
                cache=EvalCache(tmp_path), settings={"scale": 1.0})
        rerun = explore(_space(), toy_eval, objectives=OBJS,
                        cache=EvalCache(tmp_path), settings={"scale": 2.0})
        assert rerun.cache_hits == 0
        assert rerun.n_evaluated == 6

    def test_partial_resume_extends_space(self, tmp_path):
        """Growing an axis re-scores only the new points."""
        explore(_space(2, 2), toy_eval, objectives=OBJS,
                cache=EvalCache(tmp_path))
        grown = explore(_space(3, 2), toy_eval, objectives=OBJS,
                        cache=EvalCache(tmp_path))
        assert grown.cache_hits == 4
        assert grown.n_evaluated == 2

    def test_resume_with_different_objective_selection(self, tmp_path):
        """The cache key excludes the objective selection, so a resume
        may score the same cached points along *different* axes — the
        hit path must re-derive objectives from the full metrics."""
        explore(_space(), toy_eval, objectives=(Objective("y", "min"),),
                cache=EvalCache(tmp_path))
        widened = explore(_space(), toy_eval, objectives=OBJS,
                          cache=EvalCache(tmp_path))
        assert widened.n_evaluated == 0
        assert all(set(r.objectives) == {"y", "z"}
                   for r in widened.results)
        fresh = explore(_space(), toy_eval, objectives=OBJS)
        assert ([r.objectives for r in widened.frontier]
                == [r.objectives for r in fresh.frontier])

    def test_non_finite_objectives_survive_the_cache(self, tmp_path):
        """NaN/inf metrics round-trip through the on-disk cache, so a
        warm run is bit-identical to a cold one (as_dict() is where the
        strict-JSON sanitizing happens, not the cache)."""
        cold = explore(_space(2, 1), inf_eval, objectives=OBJS,
                       cache=EvalCache(tmp_path))
        warm = explore(_space(2, 1), inf_eval, objectives=OBJS,
                       cache=EvalCache(tmp_path))
        assert warm.n_evaluated == 0
        assert ([r.objectives for r in warm.results]
                == [r.objectives for r in cold.results])
        assert warm.results[0].objectives["z"] == float("inf")


class TestResultShape:
    def test_as_dict_is_json_safe(self):
        import json

        result = explore(_space(), toy_eval, objectives=OBJS,
                         settings={"poison": 1})
        blob = json.loads(json.dumps(result.as_dict()))
        assert blob["evaluated"] == 6
        assert len(blob["results"]) == 6
        assert {o["name"] for o in blob["objectives"]} == {"y", "z"}

    def test_elapsed_and_counters(self):
        result = explore(_space(), toy_eval, objectives=OBJS)
        assert result.elapsed_s >= 0
        assert result.strategy == "grid"
        assert result.jobs == 1
