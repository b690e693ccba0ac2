"""Unit tests for the Fmax model."""

import pytest

from repro.hls import DEFAULT_TIMING, EnginePath, TimingModel
from repro.hls.timing import tile_regularity


class TestPathDelay:
    def test_sweet_spot_is_base_delay(self):
        p = EnginePath("e", width=64, iters=12, width_ref=64, iters_ref=12)
        assert DEFAULT_TIMING.path_delay_ns(p) == DEFAULT_TIMING.t_base_ns

    def test_below_reference_is_free(self):
        p = EnginePath("e", width=16, iters=4, width_ref=64, iters_ref=12)
        assert DEFAULT_TIMING.path_delay_ns(p) == DEFAULT_TIMING.t_base_ns

    def test_wide_unroll_penalized(self):
        narrow = EnginePath("n", 64, 12)
        wide = EnginePath("w", 256, 12)
        assert (DEFAULT_TIMING.path_delay_ns(wide)
                > DEFAULT_TIMING.path_delay_ns(narrow))

    def test_many_iters_penalized(self):
        few = EnginePath("f", 64, 12)
        many = EnginePath("m", 64, 48)
        assert (DEFAULT_TIMING.path_delay_ns(many)
                > DEFAULT_TIMING.path_delay_ns(few))

    def test_irregular_and_unaligned_penalties(self):
        base = EnginePath("b", 64, 12)
        irr = EnginePath("i", 64, 12, irregular=True)
        una = EnginePath("u", 64, 12, unaligned=True)
        t = DEFAULT_TIMING
        assert t.path_delay_ns(irr) == pytest.approx(
            t.path_delay_ns(base) + t.t_irregular_ns)
        assert t.path_delay_ns(una) == pytest.approx(
            t.path_delay_ns(base) + t.t_unaligned_ns)

    def test_invalid_path_rejected(self):
        with pytest.raises(ValueError):
            EnginePath("bad", width=0, iters=1)


class TestFmax:
    def test_slowest_engine_decides(self):
        fast = EnginePath("f", 64, 12)
        slow = EnginePath("s", 512, 12, width_ref=64)
        fmax = DEFAULT_TIMING.fmax_mhz([fast, slow])
        assert fmax == pytest.approx(
            1000.0 / DEFAULT_TIMING.path_delay_ns(slow))

    def test_ceiling_applied(self):
        tm = TimingModel(t_base_ns=1.0, ceiling_mhz=300.0)
        p = EnginePath("e", 64, 12)
        assert tm.fmax_mhz([p]) == 300.0

    def test_published_optimum_hits_200mhz(self):
        """TS_MHA=64 (12 tiles) + TS_FFN=128 (6 tiles) → 200 MHz."""
        paths = [
            EnginePath("qkv", 64, 12, width_ref=64, iters_ref=12),
            EnginePath("ffn1", 128, 6, width_ref=128, iters_ref=6),
            EnginePath("ffn3", 512, 6, width_ref=512, iters_ref=6),
        ]
        assert DEFAULT_TIMING.fmax_mhz(paths) == pytest.approx(200.0)


class TestTileRegularity:
    def test_divisor_regular(self):
        assert tile_regularity(768, 128) == {
            "irregular": False, "unaligned": False}

    def test_non_divisor_irregular(self):
        assert tile_regularity(768, 154)["irregular"]

    def test_non_divisor_non_pow2_unaligned(self):
        assert tile_regularity(768, 154)["unaligned"]

    def test_power_of_two_always_aligned(self):
        assert not tile_regularity(768, 16)["unaligned"]

    def test_64_multiple_aligned(self):
        assert not tile_regularity(768, 192)["unaligned"]
