"""The count, positive and non-negative rules are written once.

:mod:`repro._checks` holds them and every entry point calls it.  The
guard below parses ``src/repro`` and fails on a hand-written copy of a
rule in any other module: ``isinstance(x, bool)`` (the count rule's
bool exclusion), an ordering comparison against ``math.inf`` or
``float("inf")`` (``0 < v < inf``) and ``math.isfinite(...)``.  The
functions in :data:`ALLOWED` use these forms for other jobs (JSON and
table formatting) and are exempt by name.  With the rejection table of
``tests/serving/test_api_rejection.py`` this keeps the copies from
growing back.
"""

import ast
import math
import pathlib

import pytest

import repro
from repro._checks import (check_count, check_non_negative, check_positive,
                           is_count, is_int, is_non_negative, is_positive)

SRC = pathlib.Path(repro.__file__).parent
#: ``(module path under src/repro, function)`` allowed to spell a rule.
ALLOWED = {
    ("obs/diff.py", "flatten"),
    ("dse/engine.py", "_json_safe"),
    ("analysis/tables.py", "format_value"),
}
_ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _is_inf(node) -> bool:
    if isinstance(node, ast.Attribute):
        return (node.attr == "inf" and isinstance(node.value, ast.Name)
                and node.value.id == "math")
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float" and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).strip().lower().lstrip("+")
            in ("inf", "infinity"))


def _rule(node):
    """The rule ``node`` spells by hand, or None."""
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        if any(isinstance(op, _ORDER) for op in node.ops) and any(
                _is_inf(x) for x in operands):
            return "comparison with inf"
    if isinstance(node, ast.Call):
        func = node.func
        name = (func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None))
        if name == "isfinite":
            return "math.isfinite"
        if name == "isinstance" and len(node.args) == 2:
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(k, ast.Name) and k.id == "bool"
                   for k in kinds):
                return "isinstance(..., bool)"
    return None


def _spelled_rules():
    """``(module, function, line, rule)`` for every hand-written rule
    outside ``_checks.py``."""
    found = []

    def visit(node, module, func):
        for child in ast.iter_child_nodes(node):
            rule = _rule(child)
            if rule is not None:
                found.append((module, func, child.lineno, rule))
            inner = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)
            visit(child, module, inner)

    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module != "_checks.py":
            visit(ast.parse(path.read_text(), str(path)), module, None)
    return found


def test_rules_are_spelled_only_in_checks_module():
    stray = [hit for hit in _spelled_rules() if hit[:2] not in ALLOWED]
    assert not stray, (
        "call repro._checks instead of spelling the rule: "
        + ", ".join(f"{m}:{line} ({rule})" for m, _, line, rule in stray))


def test_allowed_uses_still_exist():
    """An exemption whose function no longer spells a rule is dropped
    from :data:`ALLOWED`, so the list cannot shelter a new copy."""
    assert {hit[:2] for hit in _spelled_rules()} >= ALLOWED


def test_checks_module_is_a_leaf():
    tree = ast.parse((SRC / "_checks.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith(
                "repro"), ast.dump(node)


def test_no_private_validator_crosses_modules():
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
                assert not [n for n in names
                            if n.startswith(("_check", "_is_"))], (
                    f"{path.relative_to(SRC)} imports {names}")


@pytest.mark.parametrize("value, count, positive, non_negative", [
    (1, True, True, True),
    (3, True, True, True),
    (0, False, False, True),
    (-1, False, False, False),
    (True, False, True, True),
    (2.0, False, True, True),
    (0.0, False, False, True),
    (math.nan, False, False, False),
    (math.inf, False, False, False),
    (-math.inf, False, False, False),
])
def test_rules(value, count, positive, non_negative):
    assert is_count(value) is count
    assert is_positive(value) is positive
    assert is_non_negative(value) is non_negative


@pytest.mark.parametrize("value, expected", [
    (0, True), (-3, True), (7, True),
    (True, False), (2.0, False), (2.5, False), (math.nan, False),
    ("1", False),
])
def test_int_rule(value, expected):
    assert is_int(value) is expected


def test_messages_name_the_value():
    check_count("n", 2)
    check_positive("qps", 0.5)
    check_non_negative("ms", 0.0)
    with pytest.raises(ValueError, match=r"^n must be an int >= 1, got 2\.5$"):
        check_count("n", 2.5)
    with pytest.raises(ValueError,
                       match=r"^qps must be positive and finite, got nan$"):
        check_positive("qps", math.nan)
    with pytest.raises(ValueError,
                       match=r"^ms must be >= 0 and finite, got -1$"):
        check_non_negative("ms", -1)
