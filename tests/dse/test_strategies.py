"""Unit tests for the grid / random / evolutionary proposal loops."""

import pytest

from repro.dse import (
    Axis,
    EvalResult,
    Objective,
    SearchSpace,
    get_strategy,
    point_id,
)

OBJS = (Objective("y", "min"),)


def _space():
    return SearchSpace((Axis("a", (1, 2, 3, 4)), Axis("b", (10, 20, 30))))


def _score(point) -> EvalResult:
    return EvalResult(point=dict(point),
                      objectives={"y": float(point["a"] * point["b"])},
                      metrics={})


class TestGrid:
    def test_one_batch_then_done(self):
        strategy = get_strategy("grid", _space())
        batch = strategy.ask()
        assert len(batch) == 12
        assert strategy.ask() == []

    def test_grid_order(self):
        batch = get_strategy("grid", _space()).ask()
        assert batch[0] == {"a": 1, "b": 10}
        assert batch[-1] == {"a": 4, "b": 30}


class TestRandom:
    def test_seeded_and_distinct(self):
        s1 = get_strategy("random", _space(), samples=6, seed=42).ask()
        s2 = get_strategy("random", _space(), samples=6, seed=42).ask()
        assert s1 == s2
        assert len({point_id(p) for p in s1}) == 6

    def test_different_seed_differs(self):
        s1 = get_strategy("random", _space(), samples=8, seed=1).ask()
        s2 = get_strategy("random", _space(), samples=8, seed=2).ask()
        assert s1 != s2

    def test_samples_capped_by_space(self):
        batch = get_strategy("random", _space(), samples=999, seed=0).ask()
        assert len(batch) == _space().size

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            get_strategy("random", _space(), samples=0)


class TestEvolutionary:
    def _drive(self, seed=0, generations=3, population=4):
        strategy = get_strategy("evolutionary", _space(), objectives=OBJS,
                                population=population,
                                generations=generations, seed=seed)
        proposed = []
        while True:
            batch = strategy.ask()
            if not batch:
                break
            proposed.extend(batch)
            strategy.tell([_score(p) for p in batch])
        return proposed

    def test_runs_all_generations_without_repeats(self):
        proposed = self._drive(generations=3, population=4)
        ids = [point_id(p) for p in proposed]
        assert len(ids) == len(set(ids)), "points must never repeat"
        assert len(proposed) == 12  # space holds enough distinct points

    def test_points_stay_on_the_grid(self):
        grid = list(_space().grid())
        for point in self._drive(seed=5):
            assert point in grid

    def test_seeded_determinism(self):
        assert self._drive(seed=9) == self._drive(seed=9)

    def test_requires_objectives(self):
        with pytest.raises(ValueError, match="objectives"):
            get_strategy("evolutionary", _space())

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            get_strategy("evolutionary", _space(), objectives=OBJS,
                         population=1)
        with pytest.raises(ValueError):
            get_strategy("evolutionary", _space(), objectives=OBJS,
                         generations=0)


class TestRegistry:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            get_strategy("anneal", _space())


def exact_surrogate(point, settings):
    """Surrogate that equals the true toy objective."""
    return {"y": float(point["a"] * point["b"])}


def broken_surrogate(point, settings):
    if point["a"] == 4:
        raise RuntimeError("cannot estimate this corner")
    return {"y": float(point["a"] * point["b"])}


def partial_surrogate(point, settings):
    """Estimates an objective nobody ranks on."""
    return {"other": 1.0}


class TestPrescreen:
    def _strategy(self, **options):
        return get_strategy("prescreen", _space(), objectives=OBJS,
                            **options)

    def test_validation(self):
        with pytest.raises(ValueError, match="objectives"):
            get_strategy("prescreen", _space())
        with pytest.raises(ValueError, match="keep"):
            self._strategy(keep=0.0)
        with pytest.raises(ValueError, match="keep"):
            self._strategy(keep=1.5)
        with pytest.raises(ValueError, match="min_keep"):
            self._strategy(min_keep=0)
        with pytest.raises(ValueError, match="unknown strategy"):
            self._strategy(inner="anneal")

    def test_prescreen_does_not_nest(self):
        inner = self._strategy()
        with pytest.raises(ValueError, match="nest"):
            get_strategy("prescreen", _space(), objectives=OBJS,
                         inner=inner)

    def test_name_carries_the_inner(self):
        assert self._strategy(inner="random").name == "prescreen+random"

    def test_screens_to_whole_fronts(self):
        """keep=0.1 of 12 points targets ceil(1.2)=2 survivors; whole
        fronts are kept, so the 2-point second front rides along."""
        strategy = self._strategy(surrogate=exact_surrogate, keep=0.1,
                                  min_keep=1)
        batch = strategy.ask()
        # y = a*b minimized: front 1 is {(1,10)} (y=10) — short of the
        # target of 2 — so front 2 {(1,20), (2,10)} (y=20) is kept
        # whole, in original batch order.
        assert batch == [{"a": 1, "b": 10}, {"a": 1, "b": 20},
                         {"a": 2, "b": 10}]
        assert strategy.stats == {"proposed": 12, "forwarded": 3,
                                  "screened_out": 9,
                                  "surrogate_errors": 0}

    def test_small_batches_skip_the_screen(self):
        space = SearchSpace((Axis("a", (1, 2, 3)),))
        strategy = get_strategy("prescreen", space, objectives=OBJS,
                                surrogate=exact_surrogate, min_keep=4)
        batch = strategy.ask()
        assert len(batch) == 3  # <= min_keep: everything forwarded
        assert strategy.stats["forwarded"] == 3
        assert strategy.stats["screened_out"] == 0

    def test_surrogate_errors_forward_conservatively(self):
        strategy = self._strategy(surrogate=broken_surrogate, keep=0.1,
                                  min_keep=1)
        batch = strategy.ask()
        points_a = {p["a"] for p in batch}
        assert 4 in points_a  # unscoreable column forwarded whole
        assert strategy.stats["surrogate_errors"] == 3

    def test_unrankable_objectives_forward_everything(self):
        strategy = self._strategy(surrogate=partial_surrogate, keep=0.1)
        batch = strategy.ask()
        assert len(batch) == 12
        assert strategy.stats["screened_out"] == 0

    def test_tell_reaches_the_inner_strategy(self):
        strategy = self._strategy(inner="evolutionary", population=4,
                                  generations=2, seed=5,
                                  surrogate=exact_surrogate, keep=0.5)
        batch = strategy.ask()
        strategy.tell([_score(p) for p in batch])
        assert strategy.inner._archive  # survivors reached the inner

    def test_summary_shape(self):
        strategy = self._strategy(surrogate=exact_surrogate, keep=0.25)
        strategy.ask()
        summary = strategy.summary()
        assert summary["inner"] == "grid"
        assert summary["keep"] == 0.25
        assert summary["proposed"] == 12
        assert (summary["forwarded"] + summary["screened_out"]
                == summary["proposed"])
