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
"""

import ast
import importlib
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"
#: Unreached modules that stay, with the reason.
ALLOWED = {
    "repro.nn.kv_cache": "the float oracle that the fixed-point KV cache "
                         "(repro.core.kv_cache) is held bit-identical to, "
                         "part of the kept decoder extension",
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


def test_every_module_is_reached():
    dead = [m for m in _unreached() if m not in ALLOWED]
    assert not dead, (
        "no entry point imports these modules; delete them or add them "
        "to ALLOWED with a reason: " + ", ".join(dead))


def test_allowed_modules_exist_and_are_unreached():
    """An exemption for a module that is gone or now reached is dropped
    from :data:`ALLOWED`, so the list cannot shelter a new module."""
    assert set(ALLOWED) <= set(_unreached())


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
