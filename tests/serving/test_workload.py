"""Unit tests for the serving workload generators and request types."""

import copy
import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    BurstyArrivals,
    DiurnalArrivals,
    GenerationRequest,
    ModelMix,
    PoissonArrivals,
    Request,
    TraceReplay,
)

from ..sim.test_gc_pause import acyclic

MIX = ModelMix("bert-variant")
TWO = ModelMix({"model1-peng-isqed21": 1.0, "model3-efa-trans": 3.0})


class TestModelMix:
    def test_single_name_shorthand(self):
        assert ModelMix("bert-variant").names == ["bert-variant"]

    def test_weights_normalized(self):
        assert sum(w for _, w in TWO.weights) == pytest.approx(1.0)

    def test_sampling_matches_weights(self):
        import random

        rng = random.Random(7)
        draws = [TWO.sample(rng) for _ in range(4000)]
        frac = draws.count("model3-efa-trans") / len(draws)
        assert 0.70 < frac < 0.80  # nominal 0.75

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            ModelMix({})
        with pytest.raises(ValueError):
            ModelMix({"a": -1.0, "b": 2.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_weight(self, bad):
        """A NaN weight used to normalize every weight to NaN, so the
        mix silently sampled only its last model."""
        with pytest.raises(ValueError, match="finite"):
            ModelMix({"a": bad, "b": 1.0})

    def test_rejects_overflowing_total(self):
        with pytest.raises(ValueError, match="finite"):
            ModelMix({"a": 1e308, "b": 1e308})


class TestPoisson:
    def test_deterministic_given_seed(self):
        a = PoissonArrivals(200, TWO, seed=5).generate(2000)
        b = PoissonArrivals(200, TWO, seed=5).generate(2000)
        assert a == b

    def test_seed_changes_stream(self):
        a = PoissonArrivals(200, MIX, seed=1).generate(2000)
        b = PoissonArrivals(200, MIX, seed=2).generate(2000)
        assert a != b

    def test_rate_approximately_respected(self):
        reqs = PoissonArrivals(500, MIX, seed=0).generate(4000)
        assert 1700 <= len(reqs) <= 2300  # 2000 expected, generous CI

    def test_sorted_with_sequential_ids(self):
        reqs = PoissonArrivals(300, MIX, seed=3).generate(1000)
        assert [r.rid for r in reqs] == list(range(len(reqs)))
        assert all(a.t_ms <= b.t_ms for a, b in zip(reqs, reqs[1:]))
        assert all(0 <= r.t_ms < 1000 for r in reqs)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0, MIX)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_rate(self, bad):
        """``PoissonArrivals(nan).generate(1000)`` used to return []."""
        with pytest.raises(ValueError, match="finite"):
            PoissonArrivals(bad, MIX)


class TestBursty:
    def test_deterministic_and_bounded(self):
        a = BurstyArrivals(400, MIX, seed=9).generate(3000)
        assert a == BurstyArrivals(400, MIX, seed=9).generate(3000)
        assert all(0 <= r.t_ms < 3000 for r in a)

    def test_long_run_average_rate(self):
        reqs = BurstyArrivals(400, MIX, seed=0, dwell_ms=50).generate(20000)
        assert 6400 <= len(reqs) <= 9600  # 8000 expected

    def test_burst_rate_solves_average(self):
        gen = BurstyArrivals(100, MIX, burst_factor=4, burst_fraction=0.2)
        avg = 0.8 * gen.quiet_qps + 0.2 * gen.burst_qps
        assert avg == pytest.approx(100)
        assert gen.burst_qps == pytest.approx(4 * gen.quiet_qps)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BurstyArrivals(100, MIX, burst_factor=0.5)
        with pytest.raises(ValueError):
            BurstyArrivals(100, MIX, burst_fraction=1.0)

    @pytest.mark.parametrize("kwargs", [
        {"qps": math.nan}, {"qps": math.inf},
        {"burst_factor": math.nan}, {"burst_factor": math.inf},
        {"burst_fraction": math.nan},
        {"dwell_ms": math.nan}, {"dwell_ms": math.inf},
    ])
    def test_rejects_non_finite(self, kwargs):
        args = {"qps": 100.0, **kwargs}
        with pytest.raises(ValueError):
            BurstyArrivals(mix=MIX, **args)


class TestDiurnal:
    def test_deterministic(self):
        a = DiurnalArrivals(300, MIX, seed=2).generate(1000)
        assert a == DiurnalArrivals(300, MIX, seed=2).generate(1000)

    def test_rate_shape(self):
        gen = DiurnalArrivals(100, MIX, period_ms=1000, floor=0.1)
        assert gen.rate_qps(0) == pytest.approx(10)       # valley = floor
        assert gen.rate_qps(500) == pytest.approx(100)    # mid-period peak
        for t in range(0, 1000, 50):
            assert 10 - 1e-9 <= gen.rate_qps(t) <= 100 + 1e-9

    @pytest.mark.parametrize("kwargs", [
        {"peak_qps": math.nan}, {"peak_qps": math.inf},
        {"period_ms": math.nan}, {"period_ms": math.inf},
        {"floor": math.nan},
    ])
    def test_rejects_non_finite(self, kwargs):
        args = {"peak_qps": 100.0, **kwargs}
        with pytest.raises(ValueError):
            DiurnalArrivals(mix=MIX, **args)

    def test_peak_heavier_than_valley(self):
        reqs = DiurnalArrivals(400, MIX, seed=0, period_ms=2000).generate(2000)
        mid = [r for r in reqs if 500 <= r.t_ms < 1500]
        edge = [r for r in reqs if r.t_ms < 500 or r.t_ms >= 1500]
        assert len(mid) > 2 * len(edge)


class TestTraceReplay:
    def test_replay_sorts_and_ids(self):
        trace = [(5.0, "b"), (1.0, "a"), (3.0, "c")]
        reqs = TraceReplay(trace).generate()
        assert reqs == [Request(0, 1.0, "a"), Request(1, 3.0, "c"),
                        Request(2, 5.0, "b")]

    def test_duration_filter(self):
        reqs = TraceReplay([(1.0, "a"), (10.0, "b")]).generate(5.0)
        assert [r.model for r in reqs] == ["a"]

    def test_default_duration_is_unbounded(self):
        assert math.isinf(float("inf"))
        assert len(TraceReplay([(1e9, "a")]).generate()) == 1

    def test_negative_time_rejected(self):
        """NaN and inf stamps used to be dropped silently by generate."""
        for t in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite and non-negative"):
                TraceReplay([(1.0, "a"), (t, "a")])

    def test_nan_duration_rejected(self):
        with pytest.raises(ValueError, match="duration_ms"):
            TraceReplay([(1.0, "a")]).generate(math.nan)


@pytest.mark.parametrize("process", [
    PoissonArrivals(2000, TWO, seed=3), BurstyArrivals(2000, TWO, seed=3),
    DiurnalArrivals(2000, TWO, seed=3),
    TraceReplay([(float(t), "model1-peng-isqed21") for t in range(500)]),
], ids=["poisson", "bursty", "diurnal", "trace"])
def test_generate_builds_no_cycles(process):
    """What the collector pause over ``generate`` rests on."""
    assert acyclic(process.generate, 1000.0)


class TestHorizon:
    @pytest.mark.parametrize("process", [
        PoissonArrivals(100, MIX), BurstyArrivals(100, MIX),
        DiurnalArrivals(100, MIX),
    ], ids=["poisson", "bursty", "diurnal"])
    @pytest.mark.parametrize("duration", [math.nan, math.inf, -1.0])
    def test_open_ended_process_needs_finite_horizon(self, process,
                                                     duration):
        """``generate(nan)`` used to return [] and ``generate(inf)``
        never returned."""
        with pytest.raises(ValueError, match="duration_ms"):
            process.generate(duration)

    def test_zero_horizon_is_empty(self):
        assert PoissonArrivals(100, MIX).generate(0.0) == []


class TestDegenerateDistributions:
    """Regression: degenerate (zero-variance / single-token) parameters
    must sample cleanly, never ZeroDivisionError (or worse)."""

    def test_zero_variance_uniform(self):
        import random

        from repro.serving import LengthSampler

        sampler = LengthSampler("uniform", 5, 5)
        rng = random.Random(0)
        assert all(sampler.sample(rng) == 5 for _ in range(50))

    def test_single_token_fixed(self):
        import random

        from repro.serving import LengthSampler

        sampler = LengthSampler("fixed", 1)
        assert sampler.sample(random.Random(0)) == 1

    def test_geometric_zero_mean_collapses_to_fixed(self):
        import random

        from repro.serving import LengthSampler

        sampler = LengthSampler("geometric", 4, 64, mean_extra=0.0)
        rng = random.Random(3)
        assert all(sampler.sample(rng) == 4 for _ in range(50))

    def test_geometric_zero_mean_parses(self):
        from repro.serving import LengthSampler

        sampler = LengthSampler.parse("geo:7:0")
        import random

        assert sampler.sample(random.Random(1)) == 7

    def test_geometric_single_token_bounds(self):
        import random

        from repro.serving import LengthSampler

        sampler = LengthSampler("geometric", 1, 1, mean_extra=8.0)
        rng = random.Random(9)
        assert all(sampler.sample(rng) == 1 for _ in range(50))

    @pytest.mark.parametrize("spec", ["geo:4:inf", "geo:4:nan"])
    def test_non_finite_geometric_mean_rejected(self, spec):
        """``geo:4:inf`` used to escape as an ``OverflowError``."""
        from repro.serving import LengthSampler

        with pytest.raises(ValueError, match="length spec"):
            LengthSampler.parse(spec)
        with pytest.raises(ValueError, match="mean_extra"):
            LengthSampler("geometric", 4, 64, mean_extra=float(spec[6:]))

    def test_negative_mean_still_rejected(self):
        from repro.serving import LengthSampler

        with pytest.raises(ValueError, match="mean_extra"):
            LengthSampler("geometric", 4, mean_extra=-1.0)

    def test_bursty_zero_dwell_named_error(self):
        """A zero dwell used to die with ZeroDivisionError inside
        expovariate at generate() time; now it's a named ValueError
        at construction."""
        with pytest.raises(ValueError, match="dwell_ms"):
            BurstyArrivals(100, MIX, dwell_ms=0.0)

    def test_bursty_unit_burst_factor_is_degenerate_but_fine(self):
        reqs = BurstyArrivals(200, MIX, seed=1,
                              burst_factor=1.0).generate(500)
        assert reqs
        times = [r.t_ms for r in reqs]
        assert times == sorted(times)

    def test_diurnal_zero_floor(self):
        reqs = DiurnalArrivals(300, MIX, seed=2, floor=0.0).generate(1000)
        assert reqs

    def test_attach_lengths_with_degenerate_samplers(self):
        from repro.serving import (LengthSampler,
                                   attach_generation_lengths)

        arrivals = PoissonArrivals(100, TWO, seed=4).generate(200)
        reqs = attach_generation_lengths(
            arrivals,
            LengthSampler("uniform", 3, 3),
            LengthSampler("geometric", 1, 1, mean_extra=0.0))
        assert all(r.prompt_tokens == 3 and r.output_tokens == 1
                   for r in reqs)


#: The dataclasses the request types used to be, for their ``repr``.
OldRequest = dataclasses.make_dataclass(
    "Request", [("rid", int), ("t_ms", float), ("model", str)],
    frozen=True)
OldGenerationRequest = dataclasses.make_dataclass(
    "GenerationRequest",
    [("prompt_tokens", int, 1), ("output_tokens", int, 1),
     ("priority", int, 0)], bases=(OldRequest,), frozen=True)

REQUESTS = [
    (Request, OldRequest, (7, 1.25, "model2-lhc-trigger")),
    (Request, OldRequest, (0, 1e-300, "a'b")),
    (GenerationRequest, OldGenerationRequest,
     (3, 0.1 + 0.2, "bert-variant", 16, 8, 1)),
    (GenerationRequest, OldGenerationRequest, (0, 0.0, "m")),
]
REQUEST_IDS = ["request", "request-quoted", "generation", "defaults"]


class TestRequestTypes:
    @pytest.mark.parametrize("cls,old,args", REQUESTS, ids=REQUEST_IDS)
    def test_repr_is_the_dataclass_repr(self, cls, old, args):
        assert repr(cls(*args)) == repr(old(*args))

    @pytest.mark.parametrize("cls,old,args", REQUESTS, ids=REQUEST_IDS)
    def test_fields_cannot_be_assigned_or_deleted(self, cls, old, args):
        req = cls(*args)
        for name in cls.__match_args__ + ("extra",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(req, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(req, name)
        assert req == cls(*args)
        assert not hasattr(req, "__dict__")

    @pytest.mark.parametrize("cls,old,args", REQUESTS, ids=REQUEST_IDS)
    def test_equality_and_hash_by_value(self, cls, old, args):
        a, b = cls(*args), cls(*args)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        other = cls(args[0] + 1, *args[1:])
        assert a != other

    def test_equality_needs_the_same_class(self):
        req = Request(1, 2.0, "m")
        gen = GenerationRequest(1, 2.0, "m")
        assert req != gen and gen != req
        assert req != (1, 2.0, "m")

    @pytest.mark.parametrize("cls,old,args", REQUESTS, ids=REQUEST_IDS)
    def test_pickle_and_copy_round_trip(self, cls, old, args):
        req = cls(*args)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(req, protocol))
            assert type(back) is cls and back == req
            assert repr(back) == repr(req)
        assert copy.copy(req) == req == copy.deepcopy(req)

    def test_generation_request_is_a_request(self):
        gen = GenerationRequest(rid=4, t_ms=0.5, model="m",
                                prompt_tokens=6, output_tokens=3,
                                priority=2)
        assert isinstance(gen, Request)
        assert (gen.rid, gen.t_ms, gen.model) == (4, 0.5, "m")
        assert (gen.prompt_tokens, gen.output_tokens, gen.priority) == (
            6, 3, 2)
        assert gen.total_tokens == 9

    @pytest.mark.parametrize("kwargs", [
        {"prompt_tokens": 0}, {"output_tokens": 0},
        {"prompt_tokens": -3, "output_tokens": -3},
    ])
    def test_generation_request_token_counts(self, kwargs):
        with pytest.raises(ValueError, match="prompt_tokens and "
                           "output_tokens must be >= 1"):
            GenerationRequest(0, 0.0, "m", **kwargs)


def _two_pass(times_models):
    """Sort ``(t, model)`` draws by time (stable) and number them: how
    every stock process built its list before it built it in one pass."""
    ordered = sorted(times_models, key=lambda tm: tm[0])
    return [(i, t, m) for i, (t, m) in enumerate(ordered)]


def _sample(mix, rng):
    """``ModelMix.sample`` as it was: the first model whose cumulative
    weight is >= one uniform draw, the last on float round-off."""
    u = rng.random()
    acc = 0.0
    for name, w in mix.weights:
        acc += w
        if u <= acc:
            return name
    return mix.weights[-1][0]


def _poisson_two_pass(proc, duration_ms):
    rng = random.Random(proc.seed)
    rate_ms = proc.qps / 1e3
    out = []
    t = rng.expovariate(rate_ms)
    while t < duration_ms:
        out.append((t, _sample(proc.mix, rng)))
        t += rng.expovariate(rate_ms)
    return _two_pass(out)


def _bursty_two_pass(proc, duration_ms):
    rng = random.Random(proc.seed)
    f = proc.burst_fraction
    dwell = {False: proc.dwell_ms, True: proc.dwell_ms * f / (1 - f)}
    rate_ms = {False: proc.quiet_qps / 1e3, True: proc.burst_qps / 1e3}
    out = []
    t, bursting = 0.0, False
    while t < duration_ms:
        phase_end = min(duration_ms,
                        t + rng.expovariate(1.0 / dwell[bursting]))
        nxt = t + rng.expovariate(rate_ms[bursting])
        while nxt < phase_end:
            out.append((nxt, _sample(proc.mix, rng)))
            nxt += rng.expovariate(rate_ms[bursting])
        t, bursting = phase_end, not bursting
    return _two_pass(out)


def _diurnal_two_pass(proc, duration_ms):
    rng = random.Random(proc.seed)
    peak_ms = proc.peak_qps / 1e3
    out = []
    t = rng.expovariate(peak_ms)
    while t < duration_ms:
        if rng.random() < proc.rate_qps(t) / proc.peak_qps:
            out.append((t, _sample(proc.mix, rng)))
        t += rng.expovariate(peak_ms)
    return _two_pass(out)


def _rows(requests):
    return [(r.rid, r.t_ms, r.model) for r in requests]


MIXES = st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3).filter(
    lambda w: sum(w) > 0).map(
    lambda w: ModelMix({f"m{i}": x for i, x in enumerate(w)}))
SEEDS = st.integers(0, 2**32 - 1)
#: Rate and horizon kept to a few thousand arrivals per example.
QPS = st.floats(1.0, 40_000.0)
DURATIONS = st.floats(0.0, 200.0)
DIFFERENTIAL = settings(max_examples=60, deadline=None)


class TestOnePassMatchesTwoPass:
    """The one-pass stock generators return exactly the requests the
    draw-sort-number algorithm returns: same ids, times and models."""

    @DIFFERENTIAL
    @given(seed=SEEDS, qps=QPS, mix=MIXES, duration=DURATIONS)
    def test_poisson(self, seed, qps, mix, duration):
        proc = PoissonArrivals(qps, mix, seed=seed)
        assert _rows(proc.generate(duration)) == _poisson_two_pass(
            proc, duration)

    @DIFFERENTIAL
    @given(seed=SEEDS, qps=QPS, mix=MIXES, duration=DURATIONS,
           burst_factor=st.floats(1.0, 10.0),
           burst_fraction=st.floats(0.01, 0.99),
           dwell_ms=st.floats(0.5, 300.0))
    def test_bursty(self, seed, qps, mix, duration, burst_factor,
                    burst_fraction, dwell_ms):
        proc = BurstyArrivals(qps, mix, seed=seed, burst_factor=burst_factor,
                              burst_fraction=burst_fraction,
                              dwell_ms=dwell_ms)
        assert _rows(proc.generate(duration)) == _bursty_two_pass(
            proc, duration)

    @DIFFERENTIAL
    @given(seed=SEEDS, qps=QPS, mix=MIXES, duration=DURATIONS,
           period_ms=st.floats(1.0, 2000.0), floor=st.floats(0.0, 1.0))
    def test_diurnal(self, seed, qps, mix, duration, period_ms, floor):
        proc = DiurnalArrivals(qps, mix, seed=seed, period_ms=period_ms,
                               floor=floor)
        assert _rows(proc.generate(duration)) == _diurnal_two_pass(
            proc, duration)

    @DIFFERENTIAL
    @given(seed=SEEDS, mix=MIXES)
    def test_model_mix_sample(self, seed, mix):
        rng, old = random.Random(seed), random.Random(seed)
        assert [mix.sample(rng) for _ in range(50)] == [
            _sample(mix, old) for _ in range(50)]

    @DIFFERENTIAL
    @given(events=st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.5, 7.0]),
                                     st.sampled_from(["a", "b", "c"])),
                           max_size=30),
           duration=st.sampled_from([0.0, 2.5, 100.0, math.inf]))
    def test_trace_replay_keeps_tied_stamps_in_trace_order(self, events,
                                                          duration):
        reqs = TraceReplay(events).generate(duration)
        assert _rows(reqs) == _two_pass(
            [(t, m) for t, m in events if t < duration])
