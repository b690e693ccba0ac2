"""Design-space exploration: which deployment point is best for you?

ProTEA's headline property is *programmability* — one synthesized
design serves many transformer configurations — which turns deployment
into a search problem: over synthesis-time tile counts, datapath
quantization, model choice, multi-FPGA partitioning degree, and serving
fleet shape, which point best trades latency against throughput, tail
latency, power, and area?  This package automates that search on top of
the existing analytic stack:

* :mod:`.space` — declarative search spaces (:class:`Axis`,
  :class:`SearchSpace`) with grids, seeded sampling, and mutation;
* :mod:`.strategies` — grid / seeded-random / evolutionary proposal
  loops behind one ask/tell interface, plus the
  :class:`PrescreenStrategy` wrapper that scores candidates with a
  closed-form surrogate and forwards only the survivors;
* :mod:`.engine` — :func:`explore`: the driver, with a
  :class:`~repro.dse.pool.PersistentPool` of evaluation workers
  (forked once per exploration, fed compact point batches) and an
  optional content-keyed on-disk :class:`EvalCache` so repeated or
  resumed sweeps skip already-scored points;
* :mod:`.surrogate` — the closed-form prescreen scorer
  (:func:`surrogate_point`): analytic latency/throughput/power plus an
  Erlang-C tail estimate, no simulation;
* :mod:`.objectives` — the standard ProTEA evaluator
  (:func:`evaluate_point`) scoring latency, steady-state throughput,
  p99 under a seeded workload, power, and utilization;
* :mod:`.pareto` — multi-objective domination and Pareto-frontier
  extraction;
* :mod:`.report` — paper-style text rendering.

Quickstart::

    from repro.dse import (EvalCache, evaluate_point, explore,
                           get_objectives, standard_space)

    space = standard_space(tiles_mha=(6, 12, 48), tiles_ffn=(2, 6))
    result = explore(space, evaluate_point,
                     objectives=get_objectives(), jobs=4,
                     cache=EvalCache(".dse_cache"))
    for point in result.frontier:
        print(point.point, point.objectives)

The CLI equivalent: ``python -m repro dse --jobs 4 --resume --json``.
"""

from .cache import EvalCache
from .engine import EvalResult, ExplorationResult, explore
from .objectives import (
    DEFAULT_OBJECTIVE_NAMES,
    DEFAULT_SETTINGS,
    OBJECTIVES,
    evaluate_point,
    get_objectives,
    standard_space,
)
from .pareto import Objective, dominates, non_dominated_sort, pareto_front
from .pool import PersistentPool
from .report import render_exploration
from .space import Axis, SearchSpace, point_id
from .strategies import (
    STRATEGIES,
    EvolutionaryStrategy,
    GridStrategy,
    PrescreenStrategy,
    RandomStrategy,
    Strategy,
    get_strategy,
)
from .surrogate import SURROGATE_OBJECTIVE_NAMES, surrogate_point

__all__ = [
    # space
    "Axis", "SearchSpace", "point_id",
    # pareto
    "Objective", "dominates", "pareto_front", "non_dominated_sort",
    # cache
    "EvalCache",
    # strategies
    "Strategy", "GridStrategy", "RandomStrategy", "EvolutionaryStrategy",
    "PrescreenStrategy", "STRATEGIES", "get_strategy",
    # surrogate
    "SURROGATE_OBJECTIVE_NAMES", "surrogate_point",
    # engine / pool
    "explore", "EvalResult", "ExplorationResult", "PersistentPool",
    # objectives
    "OBJECTIVES", "DEFAULT_OBJECTIVE_NAMES", "DEFAULT_SETTINGS",
    "get_objectives", "standard_space", "evaluate_point",
    # report
    "render_exploration",
]
