"""Every module under ``src/repro`` is reached from an entry point.

Roots are the command line (``repro.cli``, ``repro.__main__``), every
``repro.experiments`` module and every ``examples/*.py`` script.  Edges
are the ``import`` and ``from ... import`` statements of each
non-``__init__`` module, lazy ones inside functions included.  A
``from pkg import name`` resolves through ``pkg/__init__.py`` to the
submodule that defines ``name``.  A package ``__init__``'s own
re-exports are not edges: through them every module would count as
reached.  A module that no root reaches is code no path runs: delete
it, or name it in :data:`ALLOWED` with the reason it stays.

The same holds one level down, for names.  Every public top-level
function, class and constant (a module-level assignment to a public
name) of a non-``__init__`` module outside :data:`ALLOWED` is
referenced from ``src/repro``, ``examples/`` or ``perfbench/``
somewhere other than its own definition: as a name, an attribute or a
``from ... import`` name.  An assignment's own target is a definition,
not a reference.  ``__all__`` entries are strings, and package
``__init__`` files are not read, so neither a listing nor a re-export
counts.  A name nothing references is code only tests run: delete it,
or name it in :data:`ALLOWED_NAMES` with the reason it stays.  Methods
and parameters are not checked, because they are reached through
attribute lookups on objects the scan cannot type.
"""

import ast
import importlib
import pathlib
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"
PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"
#: Unreached modules that stay, with the reason.
ALLOWED = {
    "repro.nn.kv_cache": "the float oracle that the fixed-point KV cache "
                         "(repro.core.kv_cache) is held bit-identical to, "
                         "part of the kept decoder extension",
}
#: Unreferenced public names that stay, with the reason.
ALLOWED_NAMES = {
    "estimate_serving": "the closed-form serving model's entry point: "
                        "the bracket suite in tests/analytic drives it "
                        "against simulation, while the planner calls its "
                        "prepared-workload core _estimate directly",
}


def _module_paths():
    """Dotted module name -> source path, packages by their __init__."""
    paths = {}
    for path in SRC.rglob("*.py"):
        parts = ("repro", *path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        paths[".".join(parts)] = path
    return paths


MODULES = _module_paths()
_TREES = {}


def _tree(module):
    if module not in _TREES:
        _TREES[module] = ast.parse(MODULES[module].read_text())
    return _TREES[module]


def _is_package(module):
    return MODULES[module].name == "__init__.py"


def _base(module, node):
    """The absolute module a ``from`` import in ``module`` names."""
    if not node.level:
        return node.module
    package = module if _is_package(module) else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _resolve(base, name):
    """The module that defines ``name`` as ``from base import name``
    sees it, or None outside ``repro``."""
    if f"{base}.{name}" in MODULES:
        return f"{base}.{name}"
    if base not in MODULES:
        return None
    if _is_package(base):
        for node in ast.walk(_tree(base)):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return _resolve(_base(base, node), alias.name)
    return base


def _imports(tree, module=None):
    """Every module an import statement in ``tree`` reaches."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES:
                    yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = _base(module, node)
            for alias in node.names:
                target = _resolve(base, alias.name)
                if target in MODULES:
                    yield target


def _reached():
    todo = ["repro.cli", "repro.__main__"]
    todo += [m for m in MODULES if m.startswith("repro.experiments.")]
    for script in sorted(EXAMPLES.glob("*.py")):
        todo += _imports(ast.parse(script.read_text()))
    reached = set()
    while todo:
        module = todo.pop()
        if module in reached:
            continue
        reached.add(module)
        if not _is_package(module):
            todo += _imports(_tree(module), module)
    return reached


def _unreached():
    reached = _reached()
    return sorted(m for m in MODULES
                  if not _is_package(m) and m not in reached)


def _defined(statement):
    """The names a top-level statement defines: a function's or a
    class's own name, or an assignment's target names."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = (statement.targets if isinstance(statement, ast.Assign)
                   else [statement.target])
        return {node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)}
    return set()


def _definitions():
    """``(module, name)`` of every public top-level function, class and
    constant of a non-``__init__`` module outside :data:`ALLOWED`."""
    for module in sorted(MODULES):
        if _is_package(module) or module in ALLOWED:
            continue
        for statement in _tree(module).body:
            for name in sorted(_defined(statement)):
                if not name.startswith("_"):
                    yield module, name


def _references(tree):
    """Every name ``tree`` uses, each top-level definition's own names
    aside (recursion is not a caller, and an assignment's target is
    not a reader)."""
    names = set()
    for statement in tree.body:
        used = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
        names |= used - _defined(statement)
    return names


def _referenced():
    names = set()
    for module in MODULES:
        if not _is_package(module):
            names |= _references(_tree(module))
    for script in [*EXAMPLES.glob("*.py"), *PERFBENCH.rglob("*.py")]:
        names |= _references(ast.parse(script.read_text()))
    return names


def _unreferenced():
    referenced = _referenced()
    return [(module, name) for module, name in _definitions()
            if name not in referenced]


def test_every_module_is_reached():
    dead = [m for m in _unreached() if m not in ALLOWED]
    assert not dead, (
        "no entry point imports these modules; delete them or add them "
        "to ALLOWED with a reason: " + ", ".join(dead))


def test_allowed_modules_exist_and_are_unreached():
    """An exemption for a module that is gone or now reached is dropped
    from :data:`ALLOWED`, so the list cannot shelter a new module."""
    assert set(ALLOWED) <= set(_unreached())


def test_every_public_name_is_referenced():
    dead = [f"{module}.{name}" for module, name in _unreferenced()
            if name not in ALLOWED_NAMES]
    assert not dead, (
        "only tests use these names; delete them or add them to "
        "ALLOWED_NAMES with a reason: " + ", ".join(dead))


def test_allowed_names_exist_and_are_unreferenced():
    """An exemption for a name that is gone or now referenced is
    dropped from :data:`ALLOWED_NAMES`."""
    assert set(ALLOWED_NAMES) <= {name for _, name in _unreferenced()}


def test_names_resolve_through_package_inits():
    # Two re-export hops: repro -> repro.dse -> repro.dse.engine.
    assert _resolve("repro", "explore") == "repro.dse.engine"
    assert _resolve("repro.obs", "Watchdog") == "repro.obs.alerts"
    # A name the __init__ defines itself resolves to the package.
    assert _resolve("repro.obs", "compose") == "repro.obs"
    assert _resolve("repro", "core") == "repro.core"
    assert _resolve("numpy", "zeros") is None


def test_lazy_imports_are_edges():
    tree = ast.parse("def f():\n    from repro.dse.engine import explore\n")
    assert list(_imports(tree)) == ["repro.dse.engine"]


def test_relative_imports_resolve_from_the_importing_package():
    tree = ast.parse("from ..sim import kernel\nfrom . import trace\n")
    assert set(_imports(tree, "repro.obs.alerts")) == {
        "repro.sim.kernel", "repro.obs.trace"}


def test_an_unimported_module_is_flagged(tmp_path, monkeypatch):
    orphan = tmp_path / "orphan.py"
    orphan.write_text("import repro.sim.kernel\n")
    monkeypatch.setitem(MODULES, "repro.obs.orphan", orphan)
    assert "repro.obs.orphan" in _unreached()


@pytest.mark.parametrize("module, name", [
    ("repro.obs.windows", "SlidingWindow"),
    ("repro.core.tiling", "tiled_matmul_ffn"),
    ("repro.isa.asm", "assemble"),
    ("repro.nn.embedding", "Embedding"),
    ("repro.analysis.sweep", "grid_sweep"),
    ("repro.memory.bram", "BufferFillModel"),
])
def test_a_retired_module_restored_with_its_reexport_is_flagged(
        module, name, tmp_path, monkeypatch):
    """Re-exporting a module from its package ``__init__`` does not
    reach it: the retired modules could not come back unflagged."""
    package, _, leaf = module.rpartition(".")
    source = tmp_path / f"{leaf}.py"
    source.write_text(f"def {name}():\n    pass\n")
    monkeypatch.setitem(MODULES, module, source)
    init = MODULES[package].read_text() + f"from .{leaf} import {name}\n"
    monkeypatch.setitem(_TREES, package, ast.parse(init))
    assert _resolve(package, name) == module
    assert module in _unreached()


@pytest.mark.parametrize(
    "package", sorted(m for m in MODULES if _is_package(m)))
def test_every_public_name_imports(package):
    """``from pkg import X`` works for each ``X`` in ``pkg.__all__``."""
    module = importlib.import_module(package)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert module.__all__ and not missing, missing


def test_an_unreferenced_function_is_flagged(monkeypatch):
    tree = ast.parse("def orphan_helper():\n    return orphan_helper()\n")
    monkeypatch.setitem(MODULES, "repro.obs.orphan", SRC / "obs" / "orphan.py")
    monkeypatch.setitem(_TREES, "repro.obs.orphan", tree)
    assert ("repro.obs.orphan", "orphan_helper") in _unreferenced()


def test_a_reference_from_an_example_counts(monkeypatch, tmp_path):
    (tmp_path / "uses_orphan.py").write_text(
        "from repro.obs.orphan import orphan_helper\n")
    tree = ast.parse("def orphan_helper():\n    pass\n")
    monkeypatch.setitem(MODULES, "repro.obs.orphan", SRC / "obs" / "orphan.py")
    monkeypatch.setitem(_TREES, "repro.obs.orphan", tree)
    monkeypatch.setattr(sys.modules[__name__], "EXAMPLES", tmp_path)
    assert ("repro.obs.orphan", "orphan_helper") not in _unreferenced()


def test_a_reference_from_perfbench_counts(monkeypatch, tmp_path):
    (tmp_path / "driver.py").write_text(
        "import repro.obs.orphan as orphan\norphan.orphan_helper()\n")
    tree = ast.parse("def orphan_helper():\n    pass\n")
    monkeypatch.setitem(MODULES, "repro.obs.orphan", SRC / "obs" / "orphan.py")
    monkeypatch.setitem(_TREES, "repro.obs.orphan", tree)
    monkeypatch.setattr(sys.modules[__name__], "PERFBENCH", tmp_path)
    assert ("repro.obs.orphan", "orphan_helper") not in _unreferenced()


def test_a_call_from_another_module_counts(monkeypatch):
    monkeypatch.setitem(MODULES, "repro.obs.orphan", SRC / "obs" / "orphan.py")
    monkeypatch.setitem(_TREES, "repro.obs.orphan",
                        ast.parse("def orphan_helper():\n    pass\n"))
    monkeypatch.setitem(MODULES, "repro.obs.caller", SRC / "obs" / "caller.py")
    monkeypatch.setitem(_TREES, "repro.obs.caller", ast.parse(
        "def run(mod):\n    return mod.orphan_helper()\n"))
    assert ("repro.obs.orphan", "orphan_helper") not in _unreferenced()


def test_private_names_are_not_checked(monkeypatch):
    monkeypatch.setitem(MODULES, "repro.obs.orphan", SRC / "obs" / "orphan.py")
    monkeypatch.setitem(_TREES, "repro.obs.orphan", ast.parse(
        "def _helper():\n    pass\n\n\nclass _Private:\n    pass\n\n\n"
        "_LIMIT = 3\n"))
    assert not [d for d in _definitions() if d[0] == "repro.obs.orphan"]


def test_an_unreferenced_constant_is_flagged(monkeypatch):
    """Its own assignment, an annotated one or a re-binding, reads
    nothing."""
    monkeypatch.setitem(MODULES, "repro.obs.orphan", SRC / "obs" / "orphan.py")
    monkeypatch.setitem(_TREES, "repro.obs.orphan", ast.parse(
        "ORPHAN_LIMIT = 3\nORPHAN_NAMES: tuple = ('a',)\n"
        "ORPHAN_LIMIT = 4\n"))
    dead = _unreferenced()
    assert ("repro.obs.orphan", "ORPHAN_LIMIT") in dead
    assert ("repro.obs.orphan", "ORPHAN_NAMES") in dead


def test_a_constant_read_in_its_own_module_counts(monkeypatch):
    monkeypatch.setitem(MODULES, "repro.obs.orphan", SRC / "obs" / "orphan.py")
    monkeypatch.setitem(_TREES, "repro.obs.orphan", ast.parse(
        "ORPHAN_LIMIT = 3\n\n\ndef orphan_check(x):\n"
        "    return x < ORPHAN_LIMIT\n"))
    names = {name for module, name in _unreferenced()
             if module == "repro.obs.orphan"}
    assert names == {"orphan_check"}


@pytest.mark.parametrize("module, name", [
    ("repro.fixedpoint.qformat", "ACC32"),
    ("repro.fixedpoint.qformat", "Q8_4"),
    ("repro.fixedpoint.qformat", "Q8_5"),
    ("repro.fixedpoint.qformat", "Q8_6"),
    ("repro.fixedpoint.qformat", "Q16_8"),
    ("repro.hls.loopnest", "MAC_STATEMENT"),
    ("repro.dse.surrogate", "SURROGATE_OBJECTIVE_NAMES"),
])
def test_a_retired_constant_restored_with_its_reexport_is_flagged(
        module, name, monkeypatch):
    source = (MODULES[module].read_text() + f"\n\n{name} = 1\n"
              + f"__all__ = [*__all__, {name!r}]\n")
    monkeypatch.setitem(_TREES, module, ast.parse(source))
    package, _, leaf = module.rpartition(".")
    init = MODULES[package].read_text() + f"from .{leaf} import {name}\n"
    monkeypatch.setitem(_TREES, package, ast.parse(init))
    assert (module, name) in _unreferenced()


@pytest.mark.parametrize("module, name", [
    ("repro.analytic.queueing", "min_stable_fleet"),
    ("repro.analytic.queueing", "latency_quantile_ms"),
    ("repro.baselines.cpu", "CPU_PLATFORMS"),
    ("repro.baselines.gpu", "GPU_PLATFORMS"),
    ("repro.baselines.fpga_competitors", "get_competitor"),
    ("repro.fixedpoint.arithmetic", "fx_matmul"),
    ("repro.fixedpoint.arithmetic", "fx_add"),
    ("repro.fixedpoint.arithmetic", "fx_mul"),
    ("repro.fixedpoint.arithmetic", "fx_scale_shift"),
    ("repro.fixedpoint.quantize", "quantization_error"),
    ("repro.fixedpoint.lut", "lut_resource_estimate"),
    ("repro.hls.scheduler", "schedule_body"),
    ("repro.hls.arrays", "total_binding"),
    ("repro.hls.arrays", "fully_partitioned"),
    ("repro.hls.arrays", "PortConflictError"),
    ("repro.memory.dma", "tiled_engine_cycles"),
    ("repro.memory.dma", "uniform_phases"),
    ("repro.obs.alerts", "SustainedRule"),
])
def test_a_retired_name_restored_with_its_reexport_is_flagged(
        module, name, monkeypatch):
    """Listing a name in ``__all__`` and re-exporting it from the
    package ``__init__`` does not reference it."""
    source = (MODULES[module].read_text()
              + f"\n\ndef {name}():\n    pass\n\n\n"
              + f"__all__ = [*__all__, {name!r}]\n")
    monkeypatch.setitem(_TREES, module, ast.parse(source))
    package, _, leaf = module.rpartition(".")
    init = MODULES[package].read_text() + f"from .{leaf} import {name}\n"
    monkeypatch.setitem(_TREES, package, ast.parse(init))
    assert (module, name) in _unreferenced()
