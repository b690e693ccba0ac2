"""What a process pays before its first event.

Synthesis validates and prices the accelerator's function tables but
never evaluates them: each LUT fills its table on the first lookup.
So synthesis, serving, generation and DSE run without scipy, which
only the bit-accurate erf lookups and the golden GELU import.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.special import erf

import repro
from repro import ProTEA, SynthParams
from repro.fixedpoint import ErfLUT, ExpLUT, FunctionLUT, ReciprocalLUT, RsqrtLUT

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The tabulated functions as the tables were first built, eagerly.
EAGER_FN = {"exp": np.exp, "recip": lambda x: 1.0 / x,
            "rsqrt": lambda x: 1.0 / np.sqrt(x), "erf": erf}

LUT_KINDS = [ExpLUT, ReciprocalLUT, RsqrtLUT, ErfLUT]


def _eager_table(lut: FunctionLUT) -> np.ndarray:
    xs = np.linspace(lut.lo, lut.hi, lut.entries)
    return np.asarray(EAGER_FN[lut.name](xs), dtype=np.float64)


def _accelerator_luts(accel: ProTEA):
    return [accel.attention.softmax.exp_lut, accel.attention.softmax.recip_lut,
            accel.ffn.layernorm.rsqrt_lut, accel.ffn.erf_lut]


def _run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True,
                          timeout=300)


class TestLazyTables:
    def test_fn_not_called_at_construction(self):
        calls = []

        def fn(x):
            calls.append(len(x))
            return x * 2

        lut = FunctionLUT(fn=fn, lo=0.0, hi=1.0, entries=16)
        assert calls == []
        lut(np.array([0.5]))
        lut(np.array([0.25]))
        lut.max_error(samples=8)
        assert calls == [16, 8]  # one table fill, then max_error's samples

    @pytest.mark.parametrize("kind", LUT_KINDS, ids=lambda k: k.__name__)
    def test_each_kind_builds_lazily_and_bit_identically(self, kind):
        lut = kind()
        assert lut._table is None
        assert np.array_equal(lut.table, _eager_table(lut))

    def test_synthesized_accelerator_evaluates_no_table(self):
        luts = _accelerator_luts(ProTEA.synthesize(SynthParams()))
        assert [lut.name for lut in luts] == ["exp", "recip", "rsqrt", "erf"]
        for lut in luts:
            assert lut._table is None, lut.name
            assert np.array_equal(lut.table, _eager_table(lut)), lut.name

    def test_equality_ignores_the_table(self):
        built = ExpLUT()
        built(np.zeros(3))
        assert ExpLUT() == ExpLUT()
        assert ExpLUT() == built
        assert ReciprocalLUT() == ReciprocalLUT()
        assert ExpLUT(entries=256) != ExpLUT()


class TestNoScipyOnStartup:
    def test_default_accelerator_leaves_scipy_unimported(self):
        proc = _run("""
            import sys
            from repro.experiments.common import default_accelerator
            default_accelerator()
            print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_paths_run_with_scipy_blocked(self):
        proc = _run("""
            import contextlib, io, sys
            sys.modules["scipy"] = None  # any import of scipy now raises
            from repro.cli import main
            from repro.experiments.common import default_accelerator
            default_accelerator()
            short = ["--duration-ms", "50"]
            for argv in (
                ["serve", "--qps", "500", "--instances", "2"] + short,
                ["serve", "--plan", "--slo-ms", "5", "--qps", "500"] + short,
                ["generate", "--qps", "100", "--instances", "2"] + short,
                ["dse", "--model", "model2-lhc-trigger", "--tiles-mha", "12",
                 "--tiles-ffn", "6", "--qps", "100", "--jobs", "1"] + short,
            ):
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = main(argv)
                print(argv[0], rc)
        """)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["serve", "0", "serve", "0",
                                       "generate", "0", "dse", "0"]
