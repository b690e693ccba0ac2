"""Benchmark support: artifacts and machine-readable perf records.

Two session-scoped sinks:

* ``save_artifact`` — every table/figure bench writes its rendered
  table to ``benchmarks/output/`` so the regenerated artifacts survive
  the run even under pytest's output capture.
* ``record_perf`` — benches append domain metrics (suite, metric,
  value, units) to ``benchmarks/output/BENCH_results.json``.  At
  session end every pytest-benchmark timing is appended automatically
  (metric ``<test>_mean``, units ``s``), so the perf trajectory of each
  suite is trackable across PRs without parsing text dumps.

``BENCH_results.json`` is a JSON array of records; each run *appends*
(tagged with a run timestamp) rather than overwriting, preserving
history.  The record schema is documented in ``benchmarks/README.md``
and validated here at append time.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import List

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"
RESULTS_PATH = OUTPUT_DIR / "BENCH_results.json"

#: Records accumulated by this session (flushed in sessionfinish).
_records: List[dict] = []
_run_stamp = time.strftime("%Y-%m-%dT%H:%M:%S")

#: Units pinned per headline metric.  CI gates compare these metrics
#: across runs by name (`obs bench --gate`), which is only meaningful
#: if every run records them in the same units — a record that
#: disagrees fails the bench that produced it.
METRIC_UNITS = {
    "dse_parallel_speedup_x": "x",
    "dse_prescreen_reduction_x": "x",
    "dse_warm_speedup_x": "x",
    "dse_serial_s": "s",
    "dse_parallel_s": "s",
    "dse_pool_s": "s",
    "dse_cold_s": "s",
    "dse_warm_s": "s",
    "dse_host_cpus": "cores",
    "dse_grid_points": "points",
    "dse_eval_points_per_s": "points/s",
    "sim_kernel_scale_x": "x",
    "serving_1M_seed_s": "s",
    "serving_1M_requests_s": "s",
    "gen_fleet_scaling_x": "x",
    "gen_fleet16_tokens_per_s": "tokens/s",
    "gen_fleet128_tokens_per_s": "tokens/s",
    "serve_full_detail_requests_per_s": "requests/s",
    "plan_capacity_speedup_x": "x",
    "plan_capacity_seed_s": "s",
    "plan_capacity_analytic_s": "s",
}


def _validate_record(record: dict) -> None:
    """Enforce the schema in benchmarks/README.md before appending.

    A malformed record fails the bench that produced it instead of
    silently corrupting the shared history file.
    """
    expected = {"run", "suite", "metric", "value", "units"}
    if set(record) - {"context"} != expected:
        raise ValueError(
            f"perf record fields {sorted(record)} != {sorted(expected)} "
            "(plus optional 'context')")
    for key in ("run", "suite", "metric", "units"):
        if not isinstance(record[key], str) or not record[key]:
            raise ValueError(f"perf record {key!r} must be a non-empty "
                             f"string, got {record[key]!r}")
    if not isinstance(record["value"], float) or not math.isfinite(
            record["value"]):
        raise ValueError(
            f"perf record value must be a finite number, "
            f"got {record['value']!r}")
    pinned = METRIC_UNITS.get(record["metric"])
    if pinned is not None and record["units"] != pinned:
        raise ValueError(
            f"metric {record['metric']!r} must be recorded in "
            f"{pinned!r} (gated across runs by name), "
            f"got {record['units']!r}")
    if "context" in record:
        context = record["context"]
        if not isinstance(context, dict) or not context:
            raise ValueError(
                f"perf record context must be a non-empty dict, "
                f"got {context!r}")
        for key, value in context.items():
            if not isinstance(key, str) or not key:
                raise ValueError(
                    f"perf record context key must be a non-empty "
                    f"string, got {key!r}")
            ok = (isinstance(value, bool)
                  or (isinstance(value, str) and value)
                  or (isinstance(value, (int, float))
                      and math.isfinite(value)))
            if not ok:
                raise ValueError(
                    f"perf record context[{key!r}] must be a finite "
                    f"number, non-empty string, or bool, got {value!r}")


def _append(suite: str, metric: str, value: float, units: str,
            context: dict = None) -> None:
    record = {
        "run": _run_stamp,
        "suite": suite,
        "metric": metric,
        "value": float(value),
        "units": units,
    }
    if context is not None:
        record["context"] = dict(context)
    _validate_record(record)
    _records.append(record)


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def save_artifact(artifact_dir):
    def _save(name: str, text: str) -> Path:
        path = artifact_dir / name
        path.write_text(text + "\n")
        return path

    return _save


@pytest.fixture(scope="session")
def record_perf():
    """Append one (suite, metric, value, units) perf record."""
    return _append


def pytest_sessionfinish(session, exitstatus):
    """Flush this run's records, including every benchmark timing.

    Failed or interrupted sessions flush nothing: a history point from
    a run whose regression assertions tripped would be
    indistinguishable from a good one.
    """
    if exitstatus != 0:
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is not None:
        for bench in bench_session.benchmarks:
            mean = bench.get("mean")
            if mean is None:
                continue
            suite = Path(bench.fullname.split("::")[0]).stem
            _append(suite.replace("test_", "", 1),
                    f"{bench.name}_mean", mean, "s")
    if not _records:
        return
    OUTPUT_DIR.mkdir(exist_ok=True)
    history: List[dict] = []
    if RESULTS_PATH.exists():
        try:
            history = json.loads(RESULTS_PATH.read_text())
        except (ValueError, OSError):
            history = []  # corrupt history: restart rather than crash
    if not isinstance(history, list):
        history = []
    history.extend(_records)
    RESULTS_PATH.write_text(json.dumps(history, indent=2) + "\n")
