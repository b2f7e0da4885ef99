"""What a cold start loads, and the lazy package surface that keeps it small.

``import dr2calc`` loads no submodule: ``dr2calc.__getattr__`` (PEP 562)
imports a public name's submodule on first use.  The CLI imports each
command's modules inside that command.  The records, ``SurfaceModel``
among them, are NamedTuples, whose classes cost a fraction of a frozen
dataclass's generated methods to build; two classes stay dataclasses, each
for a reason written next to it.  So a command that reads no ``solver`` or
``cones`` record never imports ``dataclasses``, nor the ``inspect`` it
pulls in.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dr2calc
from dr2calc import checks, cones, ct, m21, solver, surfaces

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dr2calc"

DATACLASSES = {"EffectiveDivisorPattern", "SolveCertificate"}


def _run(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter on the checkout's package.

    ``-S`` skips ``site``, whose ``.pth`` hooks may import modules (``random``
    among them) before the package does.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule():
    code = "import sys, dr2calc\nprint([m for m in sys.modules if m.startswith('dr2calc.')])"
    assert ast.literal_eval(_run(code)) == []


def test_pushforward_loads_only_what_it_uses():
    code = (
        "import contextlib, io, sys\n"
        "from dr2calc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['pushforward', '--d', '3']) == 0\n"
        "print([m for m in ('dr2calc.cones', 'dr2calc.ct', 'dr2calc.solver', 'random')"
        " if m in sys.modules])\n"
    )
    assert ast.literal_eval(_run(code)) == []


@pytest.mark.parametrize(
    "argv",
    [["equations", "--emit", "md"], ["pushforward", "--d", "3"], ["verify", "--only", "psi3"]],
    ids=" ".join,
)
def test_a_command_without_dataclass_records_loads_no_dataclasses(argv):
    code = (
        "import contextlib, io, sys\n"
        "from dr2calc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
    )
    assert ast.literal_eval(_run(code)) == []


def test_a_submodule_resolves_after_a_bare_import():
    code = "import dr2calc\nprint(dr2calc.cones.__name__, dr2calc.cli.main.__module__)"
    assert _run(code).split() == ["dr2calc.cones", "dr2calc.cli"]


def _dataclass_decorated(tree) -> list:
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for dec in node.decorator_list
        if "dataclass" in {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(dec)}
    ]


def test_only_the_records_that_need_it_are_dataclasses():
    found = [
        name
        for path in sorted(SRC.glob("*.py"))
        for name in _dataclass_decorated(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sorted(found) == sorted(DATACLASSES)


def test_every_public_name_is_the_object_its_module_defines():
    for name in dr2calc.__all__:
        value = getattr(dr2calc, name)
        home = importlib.import_module(f"dr2calc.{dr2calc._HOMES[name]}")
        assert value is getattr(home, name), name
        if callable(value) and name != "Rational":  # Rational is fractions.Fraction
            assert value.__module__ == home.__name__, name
        assert vars(dr2calc)[name] is value  # bound on first use


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from dr2calc import *", namespace)
    assert set(dr2calc.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(dr2calc, name) for name in dr2calc.__all__)
    assert set(dr2calc.__all__) | set(dr2calc._SUBMODULES) <= set(dir(dr2calc))


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'dr2calc' has no attribute 'no_such_name'"):
        dr2calc.no_such_name
    assert not hasattr(dr2calc, "__wrapped__")


RECORDS = [
    checks.CheckResult("psi3", True, "ok"),
    cones.nonextremality_check(),
    cones.nonpolynomiality_witness(2),
    solver.full_system(),
    solver.redundancy_report(solver.full_system())[0],
    surfaces.full_system_rows()[0],
    surfaces.builtin_surfaces()[0],
    ct.derive_decorated_rows(),
    ct.verify_hac(2),
    m21.diaz_divisor(3),
    m21.classify_effective_cone(m21.pushforward_class_formula(3)),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_record_field_cannot_be_assigned(record):
    assert isinstance(record, tuple)
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_the_check_result_repr_is_unchanged():
    assert repr(checks.CheckResult("psi3", True, "ok")) == (
        "CheckResult(name='psi3', passed=True, details='ok')"
    )
