"""Smoke tests: the runnable examples must stay runnable.

Every ``examples/*.py`` script is executed in-process via ``runpy``
(each ends with an assertion-checked "OK" path and prints its own
verdict).  The reachability guard treats every example as an entry
point, so every example runs here.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(name: str) -> None:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


@pytest.mark.parametrize(
    "name", [path.name for path in sorted(EXAMPLES.glob("*.py"))])
def test_example_runs(name):
    _run(name)


def test_examples_directory_complete():
    """The documented example set exists."""
    expected = {
        "quickstart.py",
        "runtime_reprogramming.py",
        "design_space_exploration.py",
        "physics_trigger_inference.py",
        "deploy_from_checkpoint.py",
        "seq2seq_decoder_extension.py",
        "quantization_study.py",
        "latency_timeline.py",
        "serving_simulation.py",
        "multi_fpga_pipeline.py",
        "generation_serving.py",
        "sim_scenarios.py",
        "observability_tour.py",
    }
    present = {p.name for p in EXAMPLES.glob("*.py")}
    assert expected <= present
