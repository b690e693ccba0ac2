"""Unit tests for array→memory binding."""

import pytest

from repro.hls import ArrayPartition, ArraySpec, PartitionKind

#: A 96x64 weight buffer completely partitioned along its columns.
COLUMNS = (ArrayPartition(PartitionKind.COMPLETE, dim=2),)


class TestBanking:
    def test_unpartitioned_single_bank(self):
        spec = ArraySpec("a", (64, 64), 8)
        assert spec.banks == 1

    def test_complete_partition_dim2(self):
        spec = ArraySpec("w", (96, 64), 8, COLUMNS)
        assert spec.banks == 64

    def test_multi_dim_partitions_multiply(self):
        spec = ArraySpec("a", (16, 16), 8, (
            ArrayPartition(PartitionKind.CYCLIC, factor=4, dim=1),
            ArrayPartition(PartitionKind.CYCLIC, factor=2, dim=2),
        ))
        assert spec.banks == 8

    def test_banks_capped_by_elements(self):
        spec = ArraySpec("a", (2, 2), 8, (
            ArrayPartition(PartitionKind.CYCLIC, factor=100, dim=1),
        ))
        assert spec.banks <= 4

    def test_partition_dim_validated(self):
        with pytest.raises(ValueError):
            ArraySpec("a", (4,), 8,
                      (ArrayPartition(PartitionKind.CYCLIC, 2, dim=3),))


class TestStorageBinding:
    def test_small_banks_bind_to_lutram(self):
        # 96x64 8-bit fully partitioned: 768 bits/bank ≤ 1024 → LUTRAM.
        spec = ArraySpec("w", (96, 64), 8, COLUMNS)
        b = spec.bind()
        assert b.storage == "lutram"
        assert b.bram18k == 0
        assert b.lutram_luts > 0

    def test_large_banks_bind_to_bram(self):
        spec = ArraySpec("big", (1024, 64), 8)
        b = spec.bind()
        assert b.storage == "bram"
        assert b.bram18k >= 1024 * 64 * 8 // (18 * 1024)

    def test_bank_over_18k_uses_multiple_brams(self):
        spec = ArraySpec("huge", (8192,), 8)  # 64 Kbit in one bank
        assert spec.bind().bram18k == 4


class TestValidation:
    def test_bad_shape(self):
        with pytest.raises(ValueError):
            ArraySpec("a", (0, 4), 8)

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            ArraySpec("a", (4,), 0)
