"""The package builds no floats: a static guard over ``src/dr2calc``.

A module fails on a float or complex literal, on any use of the names
``float`` or ``complex`` other than as the type that ``isinstance`` tests
(so ``float(x)``, ``complex(x)`` and ``map(float, xs)`` all fail), and on a
``math`` import other than ``gcd`` and ``lcm``.  Floats that arise at run
time, such as ``/`` on two ints, are left to the tests of each value's
type and to the golden outputs.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dr2calc"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
MATH_ALLOWED = {"gcd", "lcm"}


def _isinstance_types(tree) -> set:
    """The ids of the name nodes that are the type an ``isinstance`` tests."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "isinstance":
            types = node.args[-1]
            out.update(map(id, types.elts if isinstance(types, ast.Tuple) else [types]))
    return out


def float_uses(path: Path) -> list:
    """Each float or complex literal, use of ``float`` or ``complex``, and
    ``math`` import beyond gcd and lcm in a file, as "line: what"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = _isinstance_types(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, f"{type(node.value).__name__} literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex") and id(node) not in allowed:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            found.append((node.lineno, "import math"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names if a.name not in MATH_ALLOWED]
    return [f"{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("module", MODULES)
def test_no_floats(module):
    assert float_uses(SRC / module) == []


def test_float_uses_are_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from math import gcd, lcm, sqrt\n"
        "import math\n"
        "A = 1.5\n"
        "B = 2j\n"
        "def f(x): return float(x) + complex(x)\n"
        "def g(xs): return list(map(float, xs))\n"
        "def h(x): return isinstance(x, float) or isinstance(x, (int, complex))\n"
        "C = 3 // 2 + gcd(4, 6) + lcm(2, 3)\n"
    )
    assert float_uses(path) == [
        "1: math.sqrt",
        "2: import math",
        "3: float literal 1.5",
        "4: complex literal 2j",
        "5: complex",
        "5: float",
        "6: float",
    ]
