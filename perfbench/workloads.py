"""Benchmark workloads: the four CLI paths, paired into two workloads.

Each workload pairs a *simulate* path (one simulation of a fleet) with
a *search* path (many model evaluations behind a search), and a run
alternates passes of the two.  The four paths are the user-facing ones:

* ``serve_full`` — ``serve`` at the CLI default (full detail);
* ``plan_mixed`` — ``serve --plan``: the analytic proposal plus
  summary-detail probes of the same serve engine;
* ``generate_watch`` — ``generate`` with the watchdog and metrics
  sampler of ``repro.obs`` attached;
* ``dse_prescreen`` — ``dse --prescreen``, the Fig. 7-style sweep.

They are paired, not run as four workloads, because runs must be long
to be steady on a shared host (see ``run.py``) and the run budget
allows two long workloads, not four.  Each path is sized so that one
pass takes one to two seconds on a 2-core host.  Everything here is a
pure function of the seed: the program only ever sees the argv.

``check`` returns a list of failure messages (empty = correct).  The
invariants hold for any seed; ``run.py`` compares the digest of the
simulated statistics with ``reference.json`` on the reference seed.
"""

from __future__ import annotations

import hashlib
import json
import math

#: Output keys that carry host time, not simulated statistics.
HOST_TIME_KEYS = frozenset({"elapsed_s", "profile"})

SERVE_FULL = ["serve", "--scenario", "poisson", "--qps", "20000",
              "--instances", "16", "--policy", "least-loaded",
              "--batch", "timeout", "--batch-size", "8",
              "--batch-timeout-ms", "2", "--duration-ms", "3500", "--json"]
#: At a 40 ms SLO the closed-form proposal is 8-10 instances short for
#: every seed tried (64 of 64), so the search always confirms with 8
#: probes; at looser SLOs the probe count, and so the wall time, varies
#: from seed to seed.
PLAN_MIXED = ["serve", "--plan", "--slo-ms", "40", "--qps", "4000",
              "--model", "model2-lhc-trigger:4",
              "--model", "model1-peng-isqed21:2",
              "--model", "model3-efa-trans:1",
              "--batch", "timeout", "--reprogram-ms", "5",
              "--duration-ms", "4000", "--json"]
GENERATE_WATCH = ["generate", "--qps", "1000", "--instances", "16",
                  "--slots", "8", "--prompt-tokens", "16:64",
                  "--output-tokens", "geo:8:32", "--priority", "0.1",
                  "--ttft-slo-ms", "20", "--watch", "--duration-ms", "2000",
                  "--json"]
DSE_PRESCREEN = ["dse", "--tiles-mha", "8,12,16,24,48", "--tiles-ffn", "3,4,6",
                 "--formats", "fix8,fix16", "--fleet", "1,2,4",
                 "--qps", "2000", "--duration-ms", "500", "--prescreen",
                 "--objectives", "latency_ms,throughput_inf_s,p99_ms,"
                 "power_w,ttft_p99_ms,tokens_per_s", "--json"]

#: workload -> (simulate path, search path)
WORKLOADS = {
    "serve": ("serve_full", "plan_mixed"),
    "generate_dse": ("generate_watch", "dse_prescreen"),
}
PATHS = ("serve_full", "plan_mixed", "generate_watch", "dse_prescreen")


def argv(path: str, seed: int, tmpdir: str, jobs: int, traced: bool) -> list:
    """The CLI argv of one pass of ``path``."""
    seed_args = ["--seed", str(seed)]
    if path == "serve_full":
        return SERVE_FULL + seed_args
    if path == "plan_mixed":
        return PLAN_MIXED + seed_args
    if path == "generate_watch":
        return GENERATE_WATCH + seed_args + ["--metrics", f"{tmpdir}/m.json"]
    if path == "dse_prescreen":
        extra = ["--profile"] if traced else []
        return DSE_PRESCREEN + seed_args + ["--jobs", str(jobs)] + extra
    raise ValueError(f"unknown path {path!r}")


def work_units(path: str, out: dict) -> float:
    """Units of work one pass completed: simulated requests (serve),
    requests in the planned workload (plan), simulated output tokens
    (generate), grid points proposed (dse)."""
    if path == "serve_full":
        return out["total_requests"]
    if path == "plan_mixed":
        return out["report"]["total_requests"]
    if path == "generate_watch":
        return out["total_tokens"]
    return out["prescreen"]["proposed"]


def digest(out) -> str:
    """SHA-256 of the output with host-time fields removed."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items()
                    if k not in HOST_TIME_KEYS}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value
    text = json.dumps(strip(out), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _arrivals(qps: float, duration_ms: float, seed: int):
    from repro.serving import ModelMix, PoissonArrivals

    return PoissonArrivals(qps, ModelMix("model2-lhc-trigger"),
                           seed=seed).generate(duration_ms)


def check(path: str, seed: int, out: dict) -> list:
    """Seed-independent invariants of one pass's output."""
    errors = []

    def expect(cond: bool, message: str) -> None:
        if not cond:
            errors.append(message)

    if path == "serve_full":
        generated = len(_arrivals(20000.0, 3500.0, seed))
        expect(out["total_requests"] == generated,
               f"total_requests {out['total_requests']} != generated "
               f"{generated}")
        per_instance = sum(i["requests"] for i in out["per_instance"])
        expect(per_instance == out["total_requests"],
               f"per_instance requests sum {per_instance} != total")
        lat = out["latency_ms"]
        expect(lat["p50"] <= lat["p99"], f"p50 {lat['p50']} > p99 {lat['p99']}")
    elif path == "plan_mixed":
        n, slo = out["instances"], out["target_p99_ms"]
        p99 = out["report"]["latency_ms"]["p99"]
        expect(math.isfinite(p99) and p99 <= slo,
               f"chosen fleet {n} p99 {p99} > SLO {slo}")
        below = out["probes"].get(str(n - 1))
        expect(below is None or below > slo,
               f"fleet {n - 1} was probed at p99 {below} <= SLO {slo}, "
               f"so {n} is not minimal")
    elif path == "generate_watch":
        from repro.experiments.common import default_accelerator
        from repro.serving import LengthSampler, attach_generation_lengths

        reqs = attach_generation_lengths(
            _arrivals(1000.0, 2000.0, seed), LengthSampler.parse("16:64"),
            LengthSampler.parse("geo:8:32"), seed=seed,
            max_total=default_accelerator().synth.max_seq_len)
        sampled = sum(r.output_tokens for r in reqs)
        expect(out["total_requests"] == len(reqs),
               f"total_requests {out['total_requests']} != {len(reqs)}")
        expect(out["total_tokens"] == sampled,
               f"total_tokens {out['total_tokens']} != sampled output "
               f"tokens {sampled}")
        expect(isinstance(out.get("watch"), dict) and "alerts" in out["watch"],
               "watch block missing")
    elif path == "dse_prescreen":
        forwarded = out["prescreen"]["forwarded"]
        expect(out["evaluated"] == forwarded,
               f"evaluated {out['evaluated']} != forwarded {forwarded}")
        expect(len(out["frontier"]) > 0, "empty frontier")
        expect(all(not r["error"] for r in out["frontier"]),
               "frontier holds errored points")
    return errors
