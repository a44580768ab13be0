"""The package computes with exact scalars only: no module under
``src/macaulay`` holds a float or complex literal, calls ``float`` or
``complex``, reads a ``math`` function outside the integer ones, or imports
``random``.  A syntax check, so it covers code no test reaches."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "macaulay").glob("*.py"))
INTEGER_MATH = {"comb", "gcd", "lcm", "isqrt"}


def inexact_uses(source: str) -> list[str]:
    """Each float or complex constant, ``float``/``complex`` call, ``math``
    name outside ``INTEGER_MATH`` and ``random`` import in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "complex"):
            found.append(f"{where}: call to {node.func.id}")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math"
              and node.attr not in INTEGER_MATH):
            found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{where}: math.{a.name}" for a in node.names if a.name not in INTEGER_MATH]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "random":
            found.append(f"{where}: import of {node.module}")
        elif isinstance(node, ast.Import):
            found += [f"{where}: import of {a.name}" for a in node.names if a.name.split(".")[0] == "random"]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_inexact_arithmetic(path):
    assert inexact_uses(path.read_text()) == []


def test_the_check_sees_each_kind():
    assert SOURCES
    assert inexact_uses("x = 0.5")
    assert inexact_uses("x = 2j")
    assert inexact_uses("import math\nx = math.sqrt(2)")
    assert inexact_uses("from math import sqrt")
    assert inexact_uses("x = float('1')")
    assert inexact_uses("x = complex(1, 2)")
    assert inexact_uses("import random")
    assert inexact_uses("from random import randint")
    assert inexact_uses("import math\nx = math.comb(4, 2) + math.gcd(4, 6) + math.lcm(2, 3) + math.isqrt(9)") == []
