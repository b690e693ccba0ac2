"""Unit tests for the competitor FPGA records (Table II constants)."""

from repro.baselines import TABLE2_COMPETITORS
from repro.nn import MODEL_ZOO

BY_KEY = {rec.key: rec for rec in TABLE2_COMPETITORS}


class TestRecords:
    def test_five_comparators(self):
        assert len(TABLE2_COMPETITORS) == 5

    def test_published_values_transcribed(self):
        peng = BY_KEY["peng21"]
        assert peng.latency_ms == 0.32
        assert peng.gops == 555.0
        assert peng.sparsity == 0.90
        efa = BY_KEY["efa-trans"]
        assert efa.method == "HDL"
        assert efa.dsp == 1024

    def test_workloads_resolve_in_zoo(self):
        for rec in TABLE2_COMPETITORS:
            assert rec.protea_model in MODEL_ZOO

    def test_keys_are_unique(self):
        assert len(BY_KEY) == len(TABLE2_COMPETITORS)

    def test_sparse_flags(self):
        assert BY_KEY["peng21"].is_sparse
        assert BY_KEY["ftrans"].is_sparse
        assert not BY_KEY["efa-trans"].is_sparse

    def test_paper_protea_latencies_recorded(self):
        """The paper's own ProTEA measurements per row — used in the
        EXPERIMENTS.md delta accounting."""
        assert BY_KEY["peng21"].paper_protea_latency_ms == 4.48
        assert BY_KEY["wojcicki22"].paper_protea_latency_ms == 0.425
        assert BY_KEY["efa-trans"].paper_protea_latency_ms == 5.18
        assert BY_KEY["qi21"].paper_protea_latency_ms == 9.12
