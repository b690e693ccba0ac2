"""Unit tests for resource aggregation."""

from repro.hls import (
    ArrayPartition,
    ArraySpec,
    Body,
    Loop,
    PartitionKind,
    Pipeline,
    ResourceEstimate,
    Statement,
    Unroll,
    estimate_loop_resources,
    static_infrastructure,
    walk_statements,
)

MAC = Statement("mac", depth=4, dsps=1)


class TestWalkStatements:
    def test_unrolled_instances(self):
        inner = Loop("i", 8, [MAC], unroll=Unroll(None))
        found = dict()
        for stmt, inst in walk_statements(inner):
            found[stmt.name] = inst
        assert found["mac"] == 8

    def test_pipeline_implicitly_unrolls_inner(self):
        inner = Loop("i", 8, [MAC])  # no explicit unroll
        outer = Loop("o", 100, [inner], pipeline=Pipeline(ii=1))
        insts = [i for _, i in walk_statements(outer)]
        assert insts == [8]

    def test_sequential_loop_shares_hardware(self):
        """A non-pipelined, non-unrolled loop reuses one instance."""
        lp = Loop("s", 100, [MAC])
        insts = [i for _, i in walk_statements(lp)]
        assert insts == [1]

    def test_nested_unroll_multiplies(self):
        inner = Loop("i", 4, [MAC], unroll=Unroll(None))
        outer = Loop("o", 3, [inner], unroll=Unroll(None))
        insts = [i for _, i in walk_statements(outer)]
        assert insts == [12]


class TestEstimates:
    def test_pe_count_equals_mac_instances(self):
        inner = Loop("i", 64, [MAC, MAC, MAC])
        outer = Loop("o", 96, [inner], pipeline=Pipeline(ii=1))
        est = estimate_loop_resources(outer)
        assert est.dsps == 192
        assert est.pes == 192
        assert est.luts > 0  # per-PE overhead applied

    def test_arrays_add_memory(self):
        lp = Loop("o", 4, [MAC])
        est = estimate_loop_resources(
            lp, arrays=[ArraySpec("w", (96, 64), 8, (
                ArrayPartition(PartitionKind.COMPLETE, dim=2),))])
        assert est.banks == 64

    def test_addition_merges_breakdown(self):
        a = ResourceEstimate(dsps=1, breakdown={"x": 1})
        b = ResourceEstimate(dsps=2, breakdown={"x": 2, "y": 2})
        c = a + b
        assert c.dsps == 3
        assert c.breakdown == {"x": 3, "y": 2}

    def test_scaled(self):
        a = ResourceEstimate(dsps=10, luts=5, banks=2, pes=10,
                             breakdown={"e": 10})
        s = a.scaled(8)
        assert s.dsps == 80
        assert s.breakdown["e"] == 80

    def test_as_dict_keys_match_device_resources(self):
        from repro.fpga import ALVEO_U55C

        est = static_infrastructure()
        for key in est.as_dict():
            ALVEO_U55C.capacity(key)  # must not raise

    def test_body_estimate(self):
        b = Body("e", [Loop("l", 4, [MAC], unroll=Unroll(None))])
        assert estimate_loop_resources(b).dsps == 4
