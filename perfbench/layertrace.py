"""Outside-in layer tracing: wrap the public entry points of each layer.

Nothing under ``src/`` is edited.  ``install`` replaces each listed
function, in every ``repro.*`` module that holds a reference to it,
with a wrapper that appends a span ``[name, start, end, parent,
maxrss_before, maxrss_after, info]`` to an in-memory list.  ``info``
keeps the few facts a layer metric needs from the call (request
counts, the returned plan or sweep).  ``layer_totals`` sums the spans
of one pass into per-layer totals, ``derive`` turns totals into the
reported metrics, and ``dump`` writes the spans out.

Self time is a span's duration minus its direct children's; the RSS
rise is the growth of the process's high-water mark inside the span.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import sys
import time

NAME, START, END, PARENT, RSS0, RSS1, INFO = range(7)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, info=None):
        """``fn`` recorded as span ``name``; ``info(args, kwargs, result)``
        runs after the span closes and its value is kept on the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, _maxrss_mb(),
                    0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                span[RSS1] = _maxrss_mb()
                self._stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "maxrss_mb_before", "maxrss_mb_after"],
                       "spans": [s[:INFO] for s in self.spans]}, fh)


def _replace_everywhere(orig, replacement) -> None:
    """Rebind every ``repro.*`` module attribute that is ``orig``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def _patch_function(tracer, module, attr, name, info=None):
    # A layer function that a refactor removes is left untraced, so the
    # benchmark keeps running; its metrics then read 0.
    orig = getattr(module, attr, None)
    if orig is None:
        return
    _replace_everywhere(orig, tracer.wrap(name, orig, info))


def _patch_method(tracer, cls, attr, name, info=None):
    raw = cls.__dict__.get(attr)
    if raw is None:
        return
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, info)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, info))


def _len_result(args, kwargs, result):
    return {"requests": len(result)}


def _sim_info(args, kwargs, result):
    requests = args[1] if len(args) > 1 else kwargs.get("requests", ())
    tokens = sum(getattr(r, "output_tokens", 0) for r in requests)
    batches = sum(getattr(i, "batches", None) or getattr(i, "steps", 0)
                  for i in getattr(result, "instances", ()) or ())
    return {"requests": len(requests), "tokens": tokens, "batches": batches,
            "args": args, "kwargs": kwargs,
            "observed": kwargs.get("observer") is not None}


def _plan_info(args, kwargs, result):
    proposal = getattr(result, "analytic", None)
    return {"instances": result.instances,
            "proposed": proposal.instances if proposal is not None else None}


def _rows_info(args, kwargs, result):
    return {"rows": len(getattr(args[0], "series", ()))}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the workloads enter."""
    import json as json_module
    import types

    import repro.cli
    from repro import obs, serving
    from repro.analytic import capacity
    from repro.core.accelerator import ProTEA
    from repro.dse import engine, surrogate
    from repro.serving import slo, workload

    _patch_method(tracer, ProTEA, "synthesize", "core.synthesize")

    pending = [workload.ArrivalProcess]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        _patch_method(tracer, cls, "generate", "workload.generate",
                      _len_result)
    for attr in ("attach_generation_lengths", "attach_priorities"):
        _patch_function(tracer, workload, attr, "workload.attach")

    for attr in ("simulate", "simulate_generation"):
        _patch_function(tracer, serving, attr, "sim.simulate", _sim_info)
    for attr in ("summarize", "summarize_generation"):
        _patch_function(tracer, slo, attr, "slo.summarize")
    _patch_function(tracer, slo, "plan_capacity", "slo.plan", _plan_info)
    _patch_function(tracer, capacity, "propose_fleet", "analytic.propose")

    _patch_method(tracer, obs.MetricsRegistry, "dump", "obs.export",
                  _rows_info)

    _patch_function(tracer, engine, "explore", "dse.explore",
                    lambda a, k, result: {"result": result})
    _patch_function(tracer, surrogate, "surrogate_point", "dse.surrogate")

    for attr in ("render_serving_report", "render_generation_report",
                 "render_capacity_plan"):
        _patch_function(tracer, serving, attr, "report.render")
    for cls in (slo.ServingReport, slo.GenerationServingReport,
                engine.ExplorationResult):
        _patch_method(tracer, cls, "as_dict", "report.render")
    # ``--json`` output is rendered by the CLI's own ``json.dumps`` call:
    # give ``repro.cli`` a copy of the json module whose dumps is timed.
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(json_module))
    proxy.dumps = tracer.wrap("report.render", json_module.dumps)
    repro.cli.json = proxy


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_totals(tracer: Tracer, cli_span: int) -> dict:
    """Additive per-layer totals of one traced pass.

    Every value adds across passes of different paths; ``derive``
    turns summed totals into the reported ratios and rates.  Keys
    starting with ``_`` are such ingredients, not reported metrics.
    The DSE percentiles come from the one path that runs a sweep.
    """
    spans = tracer.spans
    children: dict = {}
    for i, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def self_time(i):
        return dur(i) - sum(dur(c) for c in children.get(i, ()))

    def rise(i):
        return spans[i][RSS1] - spans[i][RSS0]

    def named(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def info(i):
        return spans[i][INFO] or {}

    gen = named("workload.generate")
    attach = named("workload.attach")
    sims = named("sim.simulate")
    plans = named("slo.plan")
    probes = [c for p in plans for c in children.get(p, ())
              if spans[c][NAME] in ("sim.simulate", "slo.summarize")]
    exports = named("obs.export")
    observed = [i for i in sims if info(i)["observed"]]
    m = {
        "core.synthesize_s": sum(dur(i) for i in named("core.synthesize")),
        "core.synthesize_calls": len(named("core.synthesize")),
        "workload.generate_s": sum(dur(i) for i in gen),
        "workload.attach_s": sum(dur(i) for i in attach),
        "workload.requests": sum(info(i)["requests"] for i in gen),
        "workload.rss_mb": sum(rise(i) for i in gen + attach),
        "sim.calls": len(sims),
        "sim.drain_s": sum(self_time(i) for i in sims),
        "_sim_requests": sum(info(i)["requests"] for i in sims),
        "_sim_tokens": sum(info(i)["tokens"] for i in sims),
        "sim.batches": sum(info(i)["batches"] for i in sims),
        "sim.rss_mb": sum(rise(i) for i in sims),
        "_obs_observed_s": sum(dur(i) for i in observed),
        "obs.export_s": sum(dur(i) for i in exports),
        "obs.metrics_rows": sum(info(i).get("rows", 0) for i in exports),
        "slo.summarize_s": sum(dur(i) for i in named("slo.summarize")),
        "slo.plan_s": sum(dur(i) for i in plans),
        "slo.plan_probes": sum(1 for c in probes
                               if spans[c][NAME] == "sim.simulate"),
        "slo.probe_s": sum(dur(c) for c in probes),
        "analytic.propose_s": sum(dur(i) for i in named("analytic.propose")),
        "analytic.proposal_miss": sum(
            abs(info(i)["instances"] - info(i)["proposed"])
            for i in plans if info(i)["proposed"] is not None),
        "report.render_s": sum(
            dur(i) for i in named("report.render")
            if spans[i][PARENT] < 0
            or spans[spans[i][PARENT]][NAME] != "report.render"),
        "cli.other_s": self_time(cli_span),
        "dse.explore_s": sum(dur(i) for i in named("dse.explore")),
        "dse.surrogate_s": sum(dur(i) for i in named("dse.surrogate")),
        "dse.points_proposed": 0, "dse.points_evaluated": 0,
        "dse.point_errors": 0, "dse.eval_point_p50_s": 0.0,
        "dse.eval_point_p90_s": 0.0, "dse.eval_point_samples": 0,
        "_dse_busy_s": 0.0, "_dse_idle_s": 0.0,
    }
    for i in named("dse.explore"):
        result = info(i)["result"]
        m["dse.points_proposed"] += (result.prescreen or {}).get(
            "proposed", len(result.results))
        m["dse.points_evaluated"] += result.n_evaluated
        m["dse.point_errors"] += sum(1 for r in result.results if r.error)
        if result.profile is not None:
            walls = [p["wall_s"] for p in result.profile.points]
            if walls:
                m["dse.eval_point_p50_s"] = statistics.median(walls)
                m["dse.eval_point_p90_s"] = _quantile(walls, 0.9)
                m["dse.eval_point_samples"] = len(walls)
            for w in result.profile.workers().values():
                m["_dse_busy_s"] += w["busy_s"]
                m["_dse_idle_s"] += w["idle_s"]
    return m


def derive(totals: dict) -> dict:
    """Reported per-layer metrics from (summed) ``layer_totals``."""
    def ratio(num, den):
        return num / den if den else 0.0

    m = {k: v for k, v in totals.items() if not k.startswith("_")}
    m["sim.requests_per_s"] = ratio(totals["_sim_requests"],
                                    totals["sim.drain_s"])
    m["sim.tokens_per_s"] = ratio(totals["_sim_tokens"], totals["sim.drain_s"])
    m["obs.overhead_x"] = ratio(totals["_obs_observed_s"],
                                totals["_obs_bare_s"])
    m["dse.forward_ratio"] = ratio(totals["dse.points_evaluated"],
                                   totals["dse.points_proposed"])
    m["dse.worker_idle_frac"] = ratio(
        totals["_dse_idle_s"], totals["_dse_busy_s"] + totals["_dse_idle_s"])
    return m
