"""Only ``linalg`` constructs a Fraction: ``rational`` reads an exact
scalar, and ``_over`` and ``_ratio`` write one. Every other module takes
the form of a scalar from those three, so no other call to ``Q`` or
``Fraction`` appears in the library's source. Clearing a map's values to
ints is ``require_vector``'s job alone, so ``cli`` names none of its tools."""

import ast
from pathlib import Path

import pytest

import liederiv

SOURCES = sorted(Path(liederiv.__file__).resolve().parent.glob("*.py"))
MAKERS = {"Q", "Fraction"}
ALLOWED = {("linalg.py", "rational"), ("linalg.py", "_over"), ("linalg.py", "_ratio")}


def _fraction_calls(tree):
    """(enclosing function or None, line) of each call to Q or Fraction, by
    name or as an attribute such as fractions.Fraction."""
    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(
                    f, ast.Attribute) else None
                if name in MAKERS:
                    yield func, child.lineno
            yield from walk(child, func)

    return list(walk(tree, None))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_linalg_constructs_a_fraction(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = _fraction_calls(tree)
    assert [f"{path.name}:{line} in {func}" for func, line in calls
            if (path.name, func) not in ALLOWED] == []


def test_linalg_constructs_fractions_in_its_three_scalar_rules():
    path = next(p for p in SOURCES if p.name == "linalg.py")
    calls = _fraction_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert {("linalg.py", func) for func, _ in calls} == ALLOWED


@pytest.mark.parametrize("code", ["x = Q(1, 2)", "x = Fraction(3)", "x = fractions.Fraction(1)",
                                  "x = linalg.Q(e, den)", "def f(v):\n    return [Q(v)]"])
def test_scan_flags_a_fraction_call(code):
    assert _fraction_calls(ast.parse(code))


def test_scan_passes_code_that_only_reads_fractions():
    code = ("from fractions import Fraction\nQ = Fraction\nok = isinstance(x, Q)\n"
            "y = x.denominator\ndef f(v: Q) -> Q:\n    return _over(v, 2)")
    assert _fraction_calls(ast.parse(code)) == []


# The CLI's reader hands parsed values to the ``EndoMatrix`` constructor, whose
# ``require_vector`` clears them; it clears no map itself
CLEARING = {"lcm", "gcd", "_canonical"}


def _names(tree) -> set[str]:
    """Every name the code reads, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name for a in node.names)
            names.update(a.name for a in node.names)
    return names


def test_cli_clears_no_map_itself():
    path = next(p for p in SOURCES if p.name == "cli.py")
    assert _names(ast.parse(path.read_text(encoding="utf-8"))) & CLEARING == set()


@pytest.mark.parametrize("code", ["from math import lcm", "import math\nm = math.gcd(a, b)",
                                  "from math import gcd as g", "EndoMatrix._canonical(L, c, 1)",
                                  "f = lcm"])
def test_scan_flags_a_clearing_name(code):
    assert _names(ast.parse(code)) & CLEARING
