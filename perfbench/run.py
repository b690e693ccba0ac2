"""Benchmark entry point: the user-facing CLI paths, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src`` directory, so there is nothing to build.  A workload is a pair
of CLI paths (``workloads.WORKLOADS``): a *simulate* path and a
*search* path.  Every pass runs one path in a fresh ``one_pass.py``
interpreter, one pass at a time with a timeout, so set-up time and peak
RSS are per pass.  Passes alternate between the two paths until
``--seconds`` have gone by.

The shared 2-core host this was built on drifts between fast and slow
phases, in which every pass runs up to 1.8x slower.  So each pass also
times a fixed kernel (``calibrate.py``) just before and after its call,
and a path's wall time is the median over its passes of the call's
wall time rescaled to the kernel's reference speed; work rates are
medians of units over that time.  ``setup_s`` is the median rescaled
set-up of every pass (and of at least nine interpreters).
``peak_rss_mb`` and the per-layer metrics are medians too.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (each path's median, summed over
the two paths), plus ``bench.trace_overhead_x``: traced over untraced
wall time.  Either way the invocation first regenerates the paper's
tables once (``fidelity.*``), every pass checks its output, and on the
reference seed the digest of the simulated statistics must match
``reference.json``.  The last stdout line is the JSON result; metric
units come from ``BENCHMARK.json``.

Exits 2 without a result when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import calibrate
import layertrace
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
PASS_TIMEOUT_S = 60.0
#: Hard cap on one invocation: no child starts after it, so a run ends
#: within three minutes even when a pass hangs.
BUDGET_S = 150.0
#: A child is started only with at least this much of the cap left.
START_MARGIN_S = 15.0
MIN_PASSES = 4
MIN_SETUPS = 9


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of a pass's process group and reap the pass."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(50):  # forked DSE workers are not our children
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.1)


def _child(args: list, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py")] + args
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _stop_group(proc)
        proc.communicate()
        return {"errors": [f"timed out after {timeout:.0f} s"]}
    _stop_group(proc)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"errors": [f"no result (exit {proc.returncode})"]}
    if result.get("errors"):
        sys.stderr.write(stderr[-4000:])
    return result


def _rescaled(r: dict, key: str = "wall_s") -> float:
    return calibrate.rescale(r[key], r["calib_s"])


def _end_to_end(paths, plain: dict, setups: list) -> dict:
    values = {"setup_s": statistics.median(setups)}
    for kind, p in zip(("simulate", "search"), paths):
        values[f"{kind}_wall_s"] = statistics.median(
            _rescaled(r) for r in plain[p])
        values[f"{kind}_work_per_s"] = statistics.median(
            r["units"] / _rescaled(r) for r in plain[p])
    values["peak_rss_mb"] = max(statistics.median(r["peak_rss_mb"]
                                                  for r in plain[p])
                                for p in paths)
    return values


def _per_layer(paths, plain: dict, traced: dict, fidelity: dict) -> dict:
    totals = {}
    for p in paths:
        for key in traced[p][0]["layers"]:
            totals[key] = totals.get(key, 0) + statistics.median(
                r["layers"][key] for r in traced[p])
    values = layertrace.derive(totals)
    values["bench.trace_overhead_x"] = (
        sum(statistics.median(_rescaled(r) for r in traced[p]) for p in paths)
        / sum(statistics.median(_rescaled(r) for r in plain[p])
              for p in paths))
    values["fidelity.max_rel_err"] = fidelity["max_rel_err"]
    values["fidelity.regen_s"] = fidelity["regen_s"]
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        sys.stderr.write("no src/repro package under the working "
                         "directory: run from the root of a checkout\n")
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    t_begin = time.perf_counter()
    out_dir = os.path.join(root, ".bench_out")
    tmp = os.path.join(out_dir, f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONHASHSEED="0")
    jobs = max(1, min(2, len(os.sched_getaffinity(0))))

    def remaining() -> float:
        return BUDGET_S - (time.perf_counter() - t_begin)

    def child(extra: list) -> dict:
        return _child(extra, env, max(1.0, min(PASS_TIMEOUT_S, remaining())))

    errors = []
    fidelity = child(["--fidelity"])
    errors += fidelity.get("errors", [])
    ref_fid = reference["fidelity"]
    if not fidelity.get("errors") and (
            fidelity["digest"] != ref_fid["digest"]
            or abs(fidelity["max_rel_err"] - ref_fid["max_rel_err"]) > 1e-12):
        errors.append(f"fidelity drifted: max_rel_err "
                      f"{fidelity['max_rel_err']!r} (reference "
                      f"{ref_fid['max_rel_err']!r})")

    paths = workloads.WORKLOADS[args.workload]
    kinds = [False, True] if args.trace else [False]
    schedule = itertools.cycle([(p, k) for p in paths for k in kinds])
    plain = {p: [] for p in paths}
    traced = {p: [] for p in paths}
    attempted = failed = 0
    deadline = t_begin + args.seconds
    while remaining() > START_MARGIN_S and (
            attempted < MIN_PASSES * len(kinds)
            or time.perf_counter() < deadline):
        path, is_traced = next(schedule)
        extra = ["--path", path, "--seed", str(args.seed), "--tmp", tmp,
                 "--jobs", str(jobs)]
        if is_traced:
            extra += ["--traced", "--spans", os.path.join(
                out_dir, f"spans-{path}-{args.seed}-{len(traced[path])}.json")]
        result = child(extra)
        attempted += 1
        problems = list(result.get("errors", []))
        expected = reference["digests"][path]
        if (not problems and args.seed == reference["seed"]
                and result["digest"] != expected):
            problems.append(f"digest {result['digest']} != reference "
                            f"{expected}")
        if problems:
            failed += 1
            errors += [f"{path}: {p}" for p in problems]
        else:
            (traced if is_traced else plain)[path].append(result)
    for p in paths:
        if len({r["digest"] for r in plain[p] + traced[p]}) > 1:
            errors.append(f"{p}: passes disagree on the output digest")

    setups = [_rescaled(r, "setup_s") for p in paths for r in plain[p]]
    while (not args.trace and len(setups) < MIN_SETUPS
           and remaining() > START_MARGIN_S):
        result = child(["--setup-only"])
        if "setup_s" in result:
            setups.append(_rescaled(result, "setup_s"))

    complete = all(plain[p] and (traced[p] or not args.trace) for p in paths)
    if not complete or fidelity.get("errors"):
        errors.append("a path or the fidelity check has no result")
        values = {name: 0.0 for name in units}
    elif args.trace:
        values = _per_layer(paths, plain, traced, fidelity)
    else:
        values = _end_to_end(paths, plain, setups)
    for message in errors:
        print(f"FAILED: {message}")
    print(f"{args.workload} seed={args.seed}: " + ", ".join(
        f"{p} {len(plain[p])} passes + {len(traced[p])} traced"
        for p in paths) + f"; {len(setups)} set-ups")
    for name in units:
        print(f"  {name:28s} {values[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": not errors,
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    for name in os.listdir(tmp):
        os.remove(os.path.join(tmp, name))
    os.rmdir(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
