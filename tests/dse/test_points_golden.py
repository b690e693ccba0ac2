"""Frozen outputs of the standard DSE evaluator.

``evaluate_point`` memoizes per-variant latency work and runs its
simulations at summary detail; neither may move a single bit of its
output.  This module freezes the evaluator's records — every metric
stored as its ``repr``, infeasible corners as their error strings — on
a grid of tiles x format x fleet {1, 2, 4} x devices {1, 2} with the
generation, failure and watchdog objectives on, plus a few corners
off the grid (deep models, a partitioning failure, a bad fleet).

It also freezes the on-disk :class:`~repro.dse.cache.EvalCache` that a
sweep over the grid writes: a cache written before a change must be
reused after it with zero re-evaluations, since the results (and so
the cache keys) are unchanged.
"""

import json

import pytest

from repro.dse import EvalCache, evaluate_point, explore, standard_space
from repro.dse.objectives import design_point
from repro.dse.pool import _error_text
from repro.serving import Request, simulate, summarize

from .._goldens import load

#: Generation, failure and watchdog objectives stay on (the defaults).
SETTINGS = {"qps": 1500.0, "duration_ms": 200.0, "seed": 3, "gen_qps": 300.0}

GRID = standard_space(models=("model2-lhc-trigger",), tiles_mha=(8, 48),
                      tiles_ffn=(3, 6), formats=("fix8", "fix16"),
                      devices=(1, 2), fleets=(1, 2, 4))


def _point(model, tiles_mha, tiles_ffn, fmt, devices, fleet,
           scheduler="least-loaded"):
    return {"model": model, "tiles_mha": tiles_mha, "tiles_ffn": tiles_ffn,
            "format": fmt, "devices": devices, "fleet": fleet,
            "scheduler": scheduler}


EXTRA = (
    _point("bert-variant", 12, 6, "fix8", 1, 2),
    _point("bert-variant", 12, 6, "fix8", 2, 1),
    _point("model3-efa-trans", 48, 3, "fix16", 2, 4),
    _point("model1-peng-isqed21", 12, 6, "fix8", 1, 4, "round-robin"),
    _point("model2-lhc-trigger", 12, 6, "fix8", 4, 1),  # no partitioning
    _point("model2-lhc-trigger", 12, 6, "fix8", 1, 0),  # bad fleet
)


def _points():
    return list(GRID.grid()) + [dict(p) for p in EXTRA]


def _record(point):
    try:
        metrics, error = evaluate_point(point, SETTINGS), ""
    except Exception as exc:  # noqa: BLE001 - corners are recorded
        metrics, error = {}, _error_text(exc)
    return {"point": point,
            "metrics": {k: repr(v) for k, v in sorted(metrics.items())},
            "error": error}


def _dumps(value) -> str:
    return json.dumps(value, indent=1, sort_keys=True)


def _write_cache(tmp_path):
    cache = EvalCache(tmp_path)
    explore(GRID, evaluate_point, settings=SETTINGS, cache=cache)
    return {entry.name: entry.read_text()
            for entry in sorted(tmp_path.glob("*.json"))}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    return load("dse_points.json", lambda: {
        "settings": SETTINGS,
        "records": [_record(p) for p in _points()],
        "cache": _write_cache(tmp_path_factory.mktemp("cache"))})


def test_golden_covers_feasible_and_infeasible_points(golden):
    records = golden["records"]
    assert len(records) == GRID.size + len(EXTRA)
    errors = [r["error"] for r in records if r["error"]]
    assert any("does not fit" in e for e in errors)
    assert any("factorization" in e for e in errors)
    assert any("fleet must be >= 1" in e for e in errors)
    feasible = [r for r in records if not r["error"]]
    assert len(feasible) >= 30
    for name in ("ttft_p99_ms", "availability", "budget_burn"):
        assert all(name in r["metrics"] for r in feasible), name


def test_evaluate_point_outputs_are_byte_equal(golden):
    assert golden["settings"] == SETTINGS
    assert (_dumps([_record(p) for p in _points()])
            == _dumps(golden["records"]))


def test_priced_latency_is_served_latency(golden):
    """A ``devices > 1`` point is priced by the plan its group serves:
    one request alone on ``design_point(...).target`` takes exactly the
    frozen ``latency_ms``."""
    partitioned = [r for r in golden["records"]
                   if not r["error"] and r["point"]["devices"] > 1]
    assert len(partitioned) >= 17
    for record in partitioned:
        dp = design_point(record["point"], SETTINGS)
        alone = summarize(simulate(dp.target, [Request(0, 0.0, dp.cfg.name)],
                                   1))
        priced = float(record["metrics"]["latency_ms"])
        assert alone.p50_ms == dp.latency_ms == priced, record["point"]


def test_evaluate_point_is_order_independent(golden):
    """Memo state left by earlier points never leaks into a record."""
    records = [_record(p) for p in reversed(_points())]
    assert _dumps(records[::-1]) == _dumps(golden["records"])


def test_frozen_cache_is_reused_without_reevaluation(golden, tmp_path):
    for name, text in golden["cache"].items():
        (tmp_path / name).write_text(text)
    result = explore(GRID, evaluate_point, settings=SETTINGS,
                     cache=EvalCache(tmp_path))
    assert result.n_evaluated == 0
    assert result.cache_hits == GRID.size
    assert {entry.name: entry.read_text()
            for entry in tmp_path.glob("*.json")} == golden["cache"]
