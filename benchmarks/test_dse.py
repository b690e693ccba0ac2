"""Bench: persistent-pool + prescreen DSE vs brute force, as perf records.

The headline race: a brute-force **serial full-grid** sweep against
the production configuration — persistent worker pool plus surrogate
prescreen — over the same grid, with the frontier asserted *identical*
before any timing is recorded.  ``dse_parallel_speedup_x`` is the
ratio, and it is **enforced**: the run fails (and records nothing)
below ``max(2.0, 0.5 * host_cores)``.  On multi-core hosts the pool
provides the scaling; on small hosts the surrogate prescreen provides
it by fully evaluating only the surviving fronts — same answer, less
work, measured honestly against the strongest serial baseline.

``dse_eval_points_per_s`` is the absolute serial evaluator
throughput over the same grid, trended by ``obs bench``.

Also recorded: ``dse_prescreen_reduction_x`` (full evaluations saved
by the prescreen), the pooled-without-prescreen time (so the pool's
own contribution is trackable), and the cold/warm cache split.  The
warm-resume contract (zero re-evaluations, identical frontier) stays
hard-asserted, along with the paper regression that the 12 MHA x 6 FFN
tile optimum sits on its own grid's frontier.

Writes the rendered exploration table to ``benchmarks/output/dse.txt``.
"""

import os
import time

from repro.dse import (
    EvalCache,
    evaluate_point,
    explore,
    get_objectives,
    render_exploration,
    standard_space,
)

#: A workload heavy enough that evaluation dominates engine overhead.
SETTINGS = {"qps": 2000.0, "duration_ms": 1000.0, "seed": 0}

SPACE = standard_space(models=("bert-variant", "model2-lhc-trigger"),
                       tiles_mha=(8, 12, 16, 24, 48), tiles_ffn=(3, 4, 6))
OBJECTIVES = get_objectives()

HOST_CPUS = os.cpu_count() or 1
JOBS = max(2, HOST_CPUS)
#: Fraction of each batch the prescreen forwards (whole fronts kept).
KEEP = 0.25


def _explore(**kwargs):
    return explore(SPACE, evaluate_point, objectives=OBJECTIVES,
                   settings=SETTINGS, **kwargs)


def _frontier(result):
    return [(r.point, r.objectives) for r in result.frontier]


def test_bench_parallel_speedup(record_perf, save_artifact):
    _explore()  # warm the per-process synthesis memo for a fair race

    t0 = time.perf_counter()
    brute = _explore(jobs=1)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled = _explore(jobs=JOBS)
    t_pool = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = _explore(jobs=JOBS, strategy="prescreen",
                    strategy_options={"inner": "grid", "keep": KEEP})
    t_fast = time.perf_counter() - t0

    # The pool must change nothing but the wall clock...
    assert ([(r.point, r.objectives, r.error) for r in brute.results]
            == [(r.point, r.objectives, r.error) for r in pooled.results])
    assert brute.n_evaluated == pooled.n_evaluated == SPACE.size
    # ...and the prescreen must keep the exact frontier while actually
    # saving full evaluations.
    assert _frontier(fast) == _frontier(brute)
    assert 0 < fast.n_evaluated < brute.n_evaluated

    # The published optimum sits on its own grid's frontier.
    frontier_tiles = {(r.point["tiles_mha"], r.point["tiles_ffn"])
                      for r in brute.frontier}
    assert (12, 6) in frontier_tiles

    speedup = t_serial / t_fast
    gate = max(2.0, 0.5 * HOST_CPUS)
    assert speedup >= gate, (
        f"prescreen+pool sweep only {speedup:.2f}x faster than brute "
        f"serial (gate {gate:.1f}x): serial {t_serial:.2f}s, "
        f"pool {t_pool:.2f}s, prescreen+pool {t_fast:.2f}s")

    context = {"host_cpus": HOST_CPUS, "jobs": JOBS, "keep": KEEP,
               "full_evals": brute.n_evaluated,
               "prescreen_evals": fast.n_evaluated}
    record_perf("dse", "dse_serial_s", t_serial, "s")
    record_perf("dse", "dse_pool_s", t_pool, "s")
    record_perf("dse", "dse_parallel_s", t_fast, "s")
    record_perf("dse", "dse_parallel_speedup_x", speedup, "x",
                context)
    record_perf("dse", "dse_prescreen_reduction_x",
                brute.n_evaluated / fast.n_evaluated, "x", context)
    record_perf("dse", "dse_host_cpus", float(HOST_CPUS), "cores")
    record_perf("dse", "dse_grid_points", float(SPACE.size), "points")
    save_artifact("dse.txt", render_exploration(
        brute, title=f"DSE bench grid ({SPACE.size} points)"))


def test_bench_eval_points_per_s(record_perf):
    """Absolute serial evaluator throughput over ``SPACE`` (points/s).

    Starts from empty per-process memos, so the figure includes what
    one sweep pays per design variant (synthesis, latency reports,
    the seeded workload) as well as the per-point simulations.
    """
    from repro.dse import objectives

    objectives._SYNTH_MEMO.clear()
    objectives._GROUP_MEMO.clear()
    objectives._ARRIVALS_MEMO.clear()
    points = list(SPACE.grid())
    t0 = time.perf_counter()
    for point in points:
        try:
            evaluate_point(point, SETTINGS)
        except ValueError:
            pass  # infeasible corners cost a fit check, same as a sweep
    elapsed = time.perf_counter() - t0
    record_perf("dse", "dse_eval_points_per_s", len(points) / elapsed,
                "points/s", {"points": len(points), "serial_s": elapsed})


def test_bench_cache_speedup(record_perf, tmp_path):
    t0 = time.perf_counter()
    cold = _explore(cache=EvalCache(tmp_path))
    t_cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = _explore(cache=EvalCache(tmp_path))
    t_warm = time.perf_counter() - t0

    # Resume contract: zero re-evaluations, identical frontier.
    assert cold.n_evaluated == SPACE.size
    assert warm.n_evaluated == 0
    assert warm.cache_hits == SPACE.size
    assert _frontier(warm) == _frontier(cold)

    record_perf("dse", "dse_cold_s", t_cold, "s")
    record_perf("dse", "dse_warm_s", t_warm, "s")
    record_perf("dse", "dse_warm_speedup_x", t_cold / t_warm, "x")
