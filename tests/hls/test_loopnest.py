"""Unit tests for the loop-nest IR itself (construction + traversal)."""

import pytest

from repro.core.engines import _mac
from repro.hls import (
    Body,
    Loop,
    Pipeline,
    Statement,
    Unroll,
    walk_statements,
)

MAC_STATEMENT = Statement("mac", depth=4, dsps=1)


class TestStatement:
    def test_mac_statement_constants(self):
        """The engines' multiply-accumulate maps onto one DSP48."""
        assert _mac().dsps == 1
        assert _mac().depth >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Statement("bad", depth=0)
        with pytest.raises(ValueError):
            Statement("bad", dsps=-1)


class TestLoopConstruction:
    def test_negative_trip_rejected(self):
        with pytest.raises(ValueError):
            Loop("l", trip=-1)

    def test_pipeline_off_plus_unroll_rejected(self):
        with pytest.raises(ValueError):
            Loop("l", 4, pipeline=Pipeline(off=True), unroll=Unroll(2))

    def test_accessors(self):
        inner = Loop("i", 2)
        lp = Loop("o", 4, body=[inner, MAC_STATEMENT])
        assert lp.subloops() == [inner]
        assert lp.statements() == [MAC_STATEMENT]

    def test_validate_recurses(self):
        lp = Loop("o", 4, body=[Loop("i", 2)])
        lp.validate()  # must not raise

    def test_body_validate(self):
        Body("e", [Loop("l", 1)]).validate()


class TestWalkEdgeCases:
    def test_empty_loop_yields_nothing(self):
        assert list(walk_statements(Loop("e", 8))) == []

    def test_deeply_nested_pipeline_unrolls_transitively(self):
        """Pipeline on the outer loop unrolls *all* inner levels."""
        innermost = Loop("a", 2, [MAC_STATEMENT])
        mid = Loop("b", 3, [innermost])
        outer = Loop("c", 100, [mid], pipeline=Pipeline(ii=1))
        insts = [i for _, i in walk_statements(outer)]
        assert insts == [6]

    def test_explicit_partial_unroll_respected_under_pipeline(self):
        inner = Loop("a", 8, [MAC_STATEMENT], unroll=Unroll(2))
        outer = Loop("c", 10, [inner], pipeline=Pipeline(ii=1))
        insts = [i for _, i in walk_statements(outer)]
        assert insts == [2]

    def test_statement_before_and_after_subloop(self):
        s1 = Statement("pre", depth=1, dsps=1)
        s2 = Statement("post", depth=1, dsps=1)
        lp = Loop("o", 4, body=[s1, Loop("i", 3, [MAC_STATEMENT],
                                         unroll=Unroll(None)), s2])
        found = {stmt.name: inst for stmt, inst in walk_statements(lp)}
        assert found == {"pre": 1, "post": 1, "mac": 3}
