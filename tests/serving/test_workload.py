"""Unit tests for the serving workload generators."""

import math

import pytest

from repro.serving import (
    BurstyArrivals,
    DiurnalArrivals,
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
