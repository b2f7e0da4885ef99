"""Wrong-type argument errors come from ``polyq``: a static guard over ``src/dr2calc``.

``polyq`` holds the package's gates for argument types: ``exact`` for
rationals, ``_require_int`` for an int and ``_require_type`` for a class.
Every other module calls them rather than raising TypeError itself, so one
decision says what such an error reads.  Two functions keep message shapes
of their own and may raise it: ``checks.run_checks``, which names the kind
of sequence it refuses, and ``cones.EffectiveDivisorPattern.__post_init__``,
which names the weight it refuses.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dr2calc"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "polyq.py")
ALLOWED = {"checks.run_checks", "cones.EffectiveDivisorPattern.__post_init__"}


def type_error_raises(path: Path) -> list:
    """Each ``raise TypeError`` in a file, as (line, dotted name of the
    module and of the classes and functions enclosing it), in line order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "TypeError":
                    found.append((child.lineno, ".".join(scope)))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if named else scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return sorted(found)


@pytest.mark.parametrize("module", MODULES)
def test_only_the_gates_raise_type_error(module):
    assert [(line, name) for line, name in type_error_raises(SRC / module) if name not in ALLOWED] == []


def test_the_two_allowed_functions_still_raise_it():
    # an allowance whose raise has gone would let a new one in unseen
    assert {name for module in MODULES for _, name in type_error_raises(SRC / module)} == ALLOWED


def test_type_error_raises_are_found(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import argparse\n"
        "def f(x):\n"
        "    raise TypeError(x)\n"
        "class C:\n"
        "    def g(self):\n"
        "        def h():\n"
        "            raise TypeError\n"
        "        raise ValueError('other')\n"
        "raise TypeError('top') from None\n"
        "def k(): raise argparse.ArgumentTypeError('parser')\n"
    )
    assert type_error_raises(path) == [(3, "mod.f"), (7, "mod.C.g.h"), (9, "mod")]
