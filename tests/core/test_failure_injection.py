"""Failure-injection tests: broken programs, corrupted weights, and
infeasible design corners must fail loudly, not silently."""

import numpy as np
import pytest

from repro import ProTEA, SynthParams, TransformerConfig
from repro.dse import Axis, SearchSpace, explore
from repro.core.runtime import ProgramExecutor, TileNotResidentError
from repro.fixedpoint import FxTensor
from repro.isa import Instruction, Opcode, compile_program
from repro.isa.interpreter import Interpreter, UnhandledOpcodeError
from repro.nn import build_encoder

CFG = TransformerConfig("fi", d_model=64, num_heads=2, num_layers=1, seq_len=8)
SYNTH = SynthParams(ts_mha=16, ts_ffn=32, max_heads=2, max_layers=2,
                    max_d_model=64, max_seq_len=16, seq_chunk=16)


@pytest.fixture()
def accel():
    a = ProTEA.synthesize(SYNTH, enforce_fit=False)
    a.program(CFG).load_weights(build_encoder(CFG, seed=0))
    return a


@pytest.fixture()
def x_fx(accel):
    return FxTensor.from_float(
        np.random.default_rng(0).normal(0, 0.5, (8, 64)),
        accel.formats.activation)


class TestBrokenPrograms:
    def _run_mutated(self, accel, x_fx, mutate):
        program = compile_program(CFG, SYNTH)
        program = mutate(program)
        execu = ProgramExecutor(accel, accel.weights)
        cfg = accel.config
        from repro.core.runtime import _LayerState

        execu._state = _LayerState(x=x_fx)
        execu._layer_idx = 0
        execu._output = None
        execu.interp.run(program[4:])  # skip CONFIGURE prologue
        return execu

    def test_dropping_qkv_loads_detected(self, accel, x_fx):
        def drop_loads(program):
            return [i for i in program
                    if i.opcode is not Opcode.LOAD_QKV_WEIGHTS]

        with pytest.raises(TileNotResidentError):
            self._run_mutated(accel, x_fx, drop_loads)

    def test_dropping_ffn_loads_detected(self, accel, x_fx):
        def drop_loads(program):
            return [i for i in program
                    if i.opcode is not Opcode.LOAD_FFN_WEIGHTS]

        with pytest.raises(TileNotResidentError):
            self._run_mutated(accel, x_fx, drop_loads)

    def test_missing_store_detected(self, accel, x_fx):
        program = [i for i in compile_program(CFG, SYNTH)
                   if i.opcode is not Opcode.STORE_OUTPUT]
        execu = ProgramExecutor(accel, accel.weights)
        with pytest.raises(RuntimeError, match="STORE_OUTPUT"):
            # run() rebuilds the program; drive the interpreter directly.
            from repro.core.runtime import _LayerState

            execu._state = _LayerState(x=x_fx)
            execu._layer_idx = 0
            execu._output = None
            execu.interp.run(program)
            if execu._output is None:
                raise RuntimeError("program halted without STORE_OUTPUT")

    def test_ffn2_before_ln1_detected(self, accel, x_fx):
        """Reordering the FFN stages breaks the dataflow contract."""
        def swap(program):
            out = []
            for ins in program:
                if ins.opcode is Opcode.RUN_LN1:
                    continue  # drop LN1 entirely
                out.append(ins)
            return out

        with pytest.raises(RuntimeError, match="FFN2"):
            self._run_mutated(accel, x_fx, swap)

    def test_unregistered_opcode(self):
        interp = Interpreter()
        with pytest.raises(UnhandledOpcodeError):
            interp.run([Instruction(Opcode.RUN_QKV)])


class TestCorruptedWeights:
    def test_saturated_weights_still_produce_finite_output(self, accel, x_fx):
        """Saturating an entire weight tensor must not overflow the
        integer pipeline (saturation arithmetic everywhere)."""
        layer = accel.weights.layers[0]
        wfmt = layer.w1.weight.fmt
        layer.w1.weight.raw[:] = wfmt.int_max
        out = accel.run_fx(x_fx)
        assert np.all(out.raw <= out.fmt.int_max)
        assert np.all(out.raw >= out.fmt.int_min)

    def test_zero_weights_give_ln_of_bias(self, accel, x_fx):
        """All-zero weights: attention output collapses to bias terms;
        the pipeline must stay well-defined."""
        for lin in (accel.weights.layers[0].wq[0],
                    accel.weights.layers[0].wk[0]):
            lin.weight.raw[:] = 0
        out = accel.run_fx(x_fx)
        assert np.all(np.isfinite(out.to_float()))


class TestInfeasibleCorners:
    def test_dse_tolerates_overutilized_points(self):
        """A DSE sweep over head counts records failures instead of
        aborting (continue_on_error path)."""
        import dataclasses

        from repro.fpga import ZCU102
        from repro.core.resource_model import device_utilization

        def evaluate(point, settings):
            synth = dataclasses.replace(SynthParams(),
                                        max_heads=point["heads"])
            return {"util": device_utilization(synth, ZCU102,
                                               enforce=True)}

        space = SearchSpace((Axis("heads", (1, 2, 4, 8)),))
        results = explore(space, evaluate, continue_on_error=True).results
        assert all(not r.ok for r in results)  # nothing fits ZCU102
        assert all("OverUtilization" in r.error for r in results)

    def test_sweep_reports_which_params_failed(self):
        def evaluate(point, settings):
            if point["x"] > 1:
                raise ValueError("boom")
            return {"x": point["x"]}

        space = SearchSpace((Axis("x", (1, 2)),))
        results = explore(space, evaluate, continue_on_error=True).results
        assert results[1].point == {"x": 2}
        assert not results[1].ok
