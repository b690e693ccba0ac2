"""Surrogate prescreen tests: exactness, queueing, frontier safety.

Three layers of assurance that the prescreen cannot cost us a
frontier point:

* unit: the Erlang-C queueing estimate behaves (bounds, monotonicity,
  the known M/M/1 closed form);
* agreement: on the analytic axes the surrogate returns *exactly* the
  full evaluator's frozen numbers on every record of
  ``tests/goldens/dse_points.json`` — one design-point model under both
  — and raises the frozen error for every infeasible corner;
* golden + property: on real and randomized scenarios, a prescreened
  sweep's frontier equals the brute-force frontier (the structural
  guarantee: whole non-dominated fronts survive, and Pareto domination
  is invariant under strictly monotone per-objective transforms).
"""

import math
from random import Random

import pytest

from repro.analytic.queueing import erlang_c
from repro.dse import (
    DEFAULT_OBJECTIVE_NAMES,
    Axis,
    Objective,
    SearchSpace,
    evaluate_point,
    explore,
    get_objectives,
    standard_space,
    surrogate_point,
)
from repro.dse.objectives import GENERATION_OBJECTIVE_NAMES
from repro.dse.pool import _error_text

from .._goldens import load

#: Simulations off: the golden sweeps only need the serving sim.
FAST = {"qps": 1000.0, "duration_ms": 500.0, "seed": 0,
        "gen_objectives": False, "fail_objectives": False,
        "watch_objectives": False}


class TestErlangC:
    def test_bounds(self):
        assert erlang_c(4, 0.0) == 0.0
        assert erlang_c(4, 4.0) == 1.0
        assert erlang_c(4, 9.9) == 1.0
        assert 0.0 < erlang_c(4, 2.0) < 1.0

    def test_mm1_closed_form(self):
        """For c=1 the wait probability is exactly rho."""
        for rho in (0.1, 0.5, 0.9):
            assert erlang_c(1, rho) == pytest.approx(rho)

    def test_monotone_in_load(self):
        probs = [erlang_c(8, e / 10) for e in range(1, 80)]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_more_servers_wait_less(self):
        assert erlang_c(8, 4.0) < erlang_c(5, 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            erlang_c(0, 1.0)
        with pytest.raises(ValueError):
            erlang_c(4, -0.1)


#: The full evaluator's frozen records (``test_points_golden.py``): 54
#: points, feasible and infeasible, scored under the file's settings.
GOLDEN = load("dse_points.json")


def _record_id(record):
    p = record["point"]
    rid = (f"{p['model']}-{p['tiles_mha']}x{p['tiles_ffn']}-{p['format']}"
           f"-d{p['devices']}-f{p['fleet']}")
    if p["scheduler"] != "least-loaded":
        rid += f"-{p['scheduler']}"
    return rid


class TestAgreementWithFullEvaluator:
    """The surrogate starts from the full evaluator's design-point model
    — on the analytic axes the numbers must be equal, not merely close,
    and an infeasible corner must raise the same error."""

    POINT = {"model": "bert-variant", "tiles_mha": 12, "tiles_ffn": 6,
             "format": "fix8", "devices": 1, "fleet": 1}

    @pytest.mark.parametrize("record", GOLDEN["records"], ids=_record_id)
    def test_analytic_axes_exact(self, record):
        """Against the frozen records, with no re-evaluation: the same
        ``repr`` on the four shared axes, or the same error text.  A
        ``devices > 1`` point is not simulated for generation, so its
        generation pair is shared too."""
        if record["error"]:
            with pytest.raises(Exception) as info:
                surrogate_point(record["point"], GOLDEN["settings"])
            assert _error_text(info.value) == record["error"]
            return
        est = surrogate_point(record["point"], GOLDEN["settings"])
        shared = ["latency_ms", "throughput_inf_s", "power_w", "util_pct"]
        if record["point"]["devices"] > 1:
            shared += ["ttft_p99_ms", "tokens_per_s"]
        for name in shared:
            assert repr(est[name]) == record["metrics"][name], name

    def test_p99_estimate_is_sane(self):
        """The tail estimate at least covers the service time and stays
        within the saturation penalty."""
        point = self.POINT
        est = surrogate_point(point, FAST)
        assert est["p99_ms"] >= est["latency_ms"]
        assert est["p99_ms"] <= est["latency_ms"] + FAST["duration_ms"]

    def test_infeasible_corner_raises_like_the_evaluator(self):
        bad = {"model": "bert-variant", "tiles_mha": 8, "tiles_ffn": 3,
               "format": "fix8", "devices": 1, "fleet": 1}
        with pytest.raises(ValueError, match="does not fit"):
            evaluate_point(bad, FAST)
        with pytest.raises(ValueError, match="does not fit"):
            surrogate_point(bad, FAST)

    def test_estimates_only_known_names(self):
        est = surrogate_point(self.POINT, dict(FAST, gen_objectives=True))
        # The failure and watchdog objectives have no closed form.
        assert set(est) <= {"latency_ms", "throughput_inf_s", "p99_ms",
                            "power_w", "util_pct", "ttft_p99_ms",
                            "tokens_per_s"}
        assert all(math.isfinite(v) for v in est.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            surrogate_point({"model": "bert-variant", "devices": 0}, FAST)


class TestGoldenFrontierSafety:
    """Prescreened sweeps of real scenarios keep the full evaluator's
    frontier — points, objective values, and error records."""

    def _frontier(self, result):
        return [(r.point, r.objectives) for r in result.frontier]

    def _run(self, space, settings, **kwargs):
        return explore(space, evaluate_point,
                       objectives=get_objectives(), settings=settings,
                       **kwargs)

    def _assert_prescreen_safe(self, space, settings, keep=0.25):
        brute = self._run(space, settings)
        fast = self._run(space, settings, strategy="prescreen",
                         strategy_options={"inner": "grid", "keep": keep})
        assert self._frontier(fast) == self._frontier(brute)
        assert fast.prescreen["screened_out"] > 0  # it actually screened
        return brute, fast

    def test_single_device_grid(self):
        space = standard_space(
            models=("bert-variant", "model2-lhc-trigger"),
            tiles_mha=(8, 12, 48), tiles_ffn=(3, 6))
        brute, fast = self._assert_prescreen_safe(space, FAST)
        assert fast.n_evaluated < brute.n_evaluated

    def test_partitioned_devices_grid(self):
        space = standard_space(models=("bert-variant",),
                               tiles_mha=(12, 48), tiles_ffn=(6,),
                               devices=(1, 2), fleets=(1, 2))
        self._assert_prescreen_safe(space, FAST, keep=0.34)

    @pytest.mark.parametrize("keep", [0.25, 0.34])
    def test_partitioned_generation_grid(self, keep):
        """Ranked on the generation pair too, a partitioned sweep keeps
        every frontier point: the surrogate prices a group's decode
        with the evaluator's own model."""
        space = standard_space(models=("bert-variant",),
                               tiles_mha=(12, 48), tiles_ffn=(3, 6),
                               devices=(1, 2, 4), fleets=(1, 2))
        settings = dict(FAST, duration_ms=300.0, gen_objectives=True,
                        gen_qps=200.0)
        objectives = get_objectives(DEFAULT_OBJECTIVE_NAMES
                                    + GENERATION_OBJECTIVE_NAMES)
        brute = explore(space, evaluate_point, objectives=objectives,
                        settings=settings)
        fast = explore(space, evaluate_point, objectives=objectives,
                       settings=settings, strategy="prescreen",
                       strategy_options={"inner": "grid", "keep": keep})
        assert fast.prescreen["surrogate_errors"] == 0  # it ranked all
        assert self._frontier(fast) == self._frontier(brute)

    def test_infeasible_corners_keep_their_error_records(self):
        """Unscoreable points are forwarded, so the full evaluator's
        authoritative errors appear in the prescreened results too."""
        space = standard_space(models=("bert-variant",),
                               tiles_mha=(8, 12, 48), tiles_ffn=(3, 6))
        brute = self._run(space, FAST)
        fast = self._run(space, FAST, strategy="prescreen",
                         strategy_options={"inner": "grid", "keep": 0.25})
        brute_errors = {(str(r.point), r.error)
                        for r in brute.results if not r.ok}
        fast_errors = {(str(r.point), r.error)
                       for r in fast.results if not r.ok}
        assert brute_errors
        assert brute_errors == fast_errors
        assert self._frontier(fast) == self._frontier(brute)


def monotone_eval(point, settings):
    """Toy ground truth over a 2-axis space."""
    return {"u": float(point["a"] * point["b"] + point["a"]),
            "v": float(point["a"] - 2.0 * point["b"])}


class TestMonotoneSurrogateProperty:
    """Seeded property check of the structural guarantee: any surrogate
    that is a strictly increasing transform of the true objectives
    preserves domination, hence fronts, hence the frontier — for every
    seed, keep fraction, and space shape tried."""

    OBJS = (Objective("u", "min"), Objective("v", "max"))

    @staticmethod
    def _transform(rng):
        scale = rng.uniform(0.1, 5.0)
        shift = rng.uniform(-10.0, 10.0)
        cube = rng.random() < 0.5
        def f(x):
            y = scale * x + shift
            return y ** 3 if cube else y
        return f

    def test_never_drops_a_frontier_point(self):
        rng = Random(2026)
        for trial in range(20):
            n = rng.randint(3, 6)
            m = rng.randint(2, 5)
            space = SearchSpace((Axis("a", tuple(range(1, n + 1))),
                                 Axis("b", tuple(range(1, m + 1)))))
            fu, fv = self._transform(rng), self._transform(rng)

            def warped(point, settings, fu=fu, fv=fv):
                true = monotone_eval(point, settings)
                return {"u": fu(true["u"]), "v": fv(true["v"])}

            keep = rng.choice([0.1, 0.25, 0.5])
            brute = explore(space, monotone_eval, objectives=self.OBJS)
            fast = explore(space, monotone_eval, objectives=self.OBJS,
                           strategy="prescreen",
                           strategy_options={"inner": "grid",
                                             "surrogate": warped,
                                             "keep": keep,
                                             "min_keep": 1})
            assert ([(r.point, r.objectives) for r in fast.frontier]
                    == [(r.point, r.objectives) for r in brute.frontier]), (
                f"trial {trial}: keep={keep}, space {n}x{m}")
