"""The library's source holds no floating point: no float or complex
literal, no true division, no call to float, complex or round, and from
math only gcd and lcm."""

import ast
from pathlib import Path

import pytest

import liederiv

SOURCES = sorted(Path(liederiv.__file__).resolve().parent.glob("*.py"))
FORBIDDEN_CALLS = {"float", "complex", "round"}
MATH_ALLOWED = {"gcd", "lcm"}


def _offences(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node, f"literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node, "true division"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in FORBIDDEN_CALLS):
            yield node, f"call to {node.func.id}"
        elif isinstance(node, ast.Import) and any(a.name.split(".")[0] in ("math", "cmath")
                                                  for a in node.names):
            yield node, "import of math"
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath") and any(
                a.name not in MATH_ALLOWED for a in node.names):
            yield node, f"from {node.module} import {', '.join(a.name for a in node.names)}"


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "linalg.py", "lie.py", "parabolic.py",
                                         "derivations.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_has_no_floating_point(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [f"{path.name}:{node.lineno}: {what}" for node, what in _offences(tree)] == []


@pytest.mark.parametrize("code", ["x = 0.5", "x = 1j", "x = a / b", "x /= 2", "float(x)",
                                  "round(x)", "complex(1, 2)", "import math",
                                  "from math import sqrt", "from math import gcd, floor"])
def test_scan_flags_each_kind(code):
    assert list(_offences(ast.parse(code)))


def test_scan_passes_exact_code():
    code = "from math import gcd, lcm\nx = a // b\nx //= 2\ny = Fraction(1, 2)\nz = int(y)"
    assert list(_offences(ast.parse(code))) == []
