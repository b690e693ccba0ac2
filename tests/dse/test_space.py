"""Unit tests for the declarative search space."""

from random import Random

import pytest

from repro.dse import Axis, SearchSpace, point_id


def _space():
    return SearchSpace((Axis("a", (1, 2, 3)), Axis("b", ("x", "y"))))


class TestAxis:
    def test_values_frozen_as_tuple(self):
        axis = Axis("a", [1, 2])
        assert axis.values == (1, 2)
        assert len(axis) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Axis("a", ())
        with pytest.raises(ValueError):
            Axis("", (1,))


class TestSearchSpace:
    def test_size_and_names(self):
        space = _space()
        assert space.size == 6
        assert space.names == ("a", "b")
        assert space.axis("b").values == ("x", "y")
        with pytest.raises(KeyError):
            space.axis("missing")

    def test_grid_is_nested_loop_order(self):
        points = list(_space().grid())
        assert points == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
            {"a": 3, "b": "x"}, {"a": 3, "b": "y"},
        ]

    def test_needs_axes_and_unique_names(self):
        with pytest.raises(ValueError):
            SearchSpace(())
        with pytest.raises(ValueError):
            SearchSpace((Axis("a", (1,)), Axis("a", (2,))))

    def test_sample_is_seeded_and_on_the_grid(self):
        space = _space()
        first = [space.sample(Random(7)) for _ in range(5)]
        second = [space.sample(Random(7)) for _ in range(5)]
        assert first == second
        assert all(p in list(space.grid()) for p in first)

    def test_mutate_changes_exactly_one_axis(self):
        space = _space()
        point = {"a": 1, "b": "x"}
        child = space.mutate(point, Random(3))
        diffs = [k for k in point if child[k] != point[k]]
        assert len(diffs) == 1

    def test_crossover_draws_from_parents(self):
        space = _space()
        a, b = {"a": 1, "b": "x"}, {"a": 3, "b": "y"}
        child = space.crossover(a, b, Random(5))
        assert child["a"] in (1, 3) and child["b"] in ("x", "y")

    # The draw sequences below are what seeded strategies replay: a
    # change to them moves every seeded search.
    def test_sample_draws_one_choice_per_axis(self):
        rng = Random(11)
        expected = {"a": rng.choice((1, 2, 3)), "b": rng.choice(("x", "y"))}
        assert _space().sample(Random(11)) == expected

    def test_mutate_draws_an_axis_then_a_new_value(self):
        space = _space()
        point = {"a": 2, "b": "y"}
        rng = Random(4)
        axis = rng.choice(space.axes)
        alternatives = [v for v in axis.values if v != point[axis.name]]
        expected = {**point, axis.name: rng.choice(alternatives)}
        assert space.mutate(point, Random(4)) == expected

    def test_mutate_skips_single_valued_axes(self):
        space = SearchSpace((Axis("fixed", (0,)), Axis("b", ("x", "y"))))
        for seed in range(8):
            child = space.mutate({"fixed": 0, "b": "x"}, Random(seed))
            assert child == {"fixed": 0, "b": "y"}
        frozen = SearchSpace((Axis("fixed", (0,)),))
        assert frozen.mutate({"fixed": 0}, Random(0)) == {"fixed": 0}

    def test_crossover_draws_once_per_axis(self):
        a, b = {"a": 1, "b": "x"}, {"a": 3, "b": "y"}
        rng = Random(9)
        expected = {name: (a if rng.random() < 0.5 else b)[name]
                    for name in ("a", "b")}
        assert _space().crossover(a, b, Random(9)) == expected

    def test_size_counts_the_grid(self):
        space = SearchSpace((Axis("a", (1, 2, 3)), Axis("b", ("x", "y")),
                             Axis("c", (0.5, 1.0, 2.0, 4.0))))
        assert space.size == len(list(space.grid())) == 24


class TestPointId:
    def test_order_insensitive(self):
        assert point_id({"a": 1, "b": 2}) == point_id({"b": 2, "a": 1})

    def test_value_sensitive(self):
        assert point_id({"a": 1}) != point_id({"a": 2})
