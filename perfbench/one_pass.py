"""One measured pass of one CLI path, in a fresh interpreter.

    python3 perfbench/one_pass.py --path NAME --seed N --tmp DIR
        [--jobs J] [--traced] [--spans PATH]
    python3 perfbench/one_pass.py --setup-only
    python3 perfbench/one_pass.py --fidelity

Run from the repository root with ``src`` on ``PYTHONPATH``; ``run.py``
does that.  Prints one JSON object on its last stdout line.

``setup_s`` is ``import repro`` plus the published instance's
synthesis; ``wall_s`` is one ``repro.cli.main(argv)`` call with stdout
captured; ``peak_rss_mb`` is this process's high-water mark right after
it; ``calib_s`` is the mean time of the ``calibrate`` kernel run just
before and just after the call.  Output checks run after those readings.  With ``--traced`` the
layer entry points are wrapped first and the pass also reports the
per-layer numbers and keeps its spans in ``--spans``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402


def _import_repro(traced: bool):
    import repro

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {src}")
    tracer = None
    if traced:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    from repro.experiments.common import default_accelerator

    default_accelerator()
    return tracer


def _bare_rerun_s(tracer) -> float:
    """Time the traced pass's observed ``simulate_generation`` call again
    without its observers, on the same requests (0 when none ran)."""
    import layertrace
    from repro.serving import generation

    for span in tracer.spans:
        info = span[layertrace.INFO]
        if span[layertrace.NAME] == "sim.simulate" and info["observed"]:
            kwargs = {k: v for k, v in info["kwargs"].items()
                      if k not in ("observer", "profiler")}
            bare = generation.simulate_generation.__wrapped__
            t0 = time.perf_counter()
            bare(*info["args"], **kwargs)
            return time.perf_counter() - t0
    return 0.0


def run_pass(args) -> dict:
    tracer = _import_repro(args.traced)
    setup_s = time.perf_counter() - T_START
    from repro.cli import main

    argv = workloads.argv(args.path, args.seed, args.tmp, args.jobs,
                          args.traced)
    cli_main = tracer.wrap("cli.main", main) if tracer else main
    buf = io.StringIO()
    calib_before = calibrate.time_kernel()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        cli_main(argv)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calib_s = (calib_before + calibrate.time_kernel()) / 2
    out = json.loads(buf.getvalue())
    result = {"setup_s": setup_s, "wall_s": wall_s, "calib_s": calib_s,
              "peak_rss_mb": peak_rss_mb,
              "units": workloads.work_units(args.path, out),
              "digest": workloads.digest(out)}
    if tracer is not None:
        import layertrace

        cli_span = next(i for i, s in enumerate(tracer.spans)
                        if s[layertrace.NAME] == "cli.main")
        totals = layertrace.layer_totals(tracer, cli_span)
        totals["_obs_bare_s"] = _bare_rerun_s(tracer)
        result["layers"] = totals
        tracer.dump(args.spans)
    result["errors"] = workloads.check(args.path, args.seed, out)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--path", choices=workloads.PATHS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tmp", default=".")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--fidelity", action="store_true")
    args = parser.parse_args()
    try:
        if args.setup_only:
            _import_repro(False)
            result = {"setup_s": time.perf_counter() - T_START,
                      "calib_s": calibrate.time_kernel()}
        elif args.fidelity:
            import fidelity

            _import_repro(False)
            t0 = time.perf_counter()
            result = fidelity.regenerate()
            result["regen_s"] = time.perf_counter() - t0
        else:
            result = run_pass(args)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - reported as a failed op
        traceback.print_exc()
        result = {"errors": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
