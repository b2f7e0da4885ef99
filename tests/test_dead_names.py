"""Every name a package module defines is read somewhere.

A module-level name or a non-dunder method defined in ``src/dr2calc`` must be
read by another statement of the package or by a demo, or be listed in
``dr2calc.__all__`` or in ``perfbench/spans.py`` ``SPANNED``.  A check that
``@_check`` registers counts as read.  Reads are matched by name: a loaded
name or an attribute, so a local variable or another class's method of the
same name hides a dead one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dr2calc"

#: The inverse of ``to_json_dict``, kept for class JSON as an input surface.
ALLOWED = {"TautClass2.from_json_dict"}


def _reads(nodes) -> set:
    """The names loaded and the attributes read in some AST nodes."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for node in nodes
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)
    }


def _registered(fn) -> bool:
    return any(
        isinstance(dec, ast.Call) and getattr(dec.func, "id", "") == "_check"
        for dec in fn.decorator_list
    )


def _units(tree):
    """(names defined, nodes read) for each module-level statement and each
    statement of a class body; a class's own unit reads only its bases,
    keywords and decorators, and defines its name."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            yield [stmt.name], stmt.bases + stmt.keywords + stmt.decorator_list
            for member in stmt.body:
                method = isinstance(member, ast.FunctionDef) and not member.name.startswith("__")
                yield [f"{stmt.name}.{member.name}"] if method else [], [member]
        elif isinstance(stmt, ast.FunctionDef):
            yield [] if _registered(stmt) else [stmt.name], [stmt]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            yield [name for name in names if not name.startswith("__")], [stmt]
        else:
            yield [], [stmt]


def _strings(node) -> set:
    return {n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _assigned(path: Path, name: str):
    """The value assigned to a module-level name of a file."""
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        if any(getattr(t, "id", None) == name for t in targets):
            return stmt.value
    raise LookupError(name)


def _parsed(paths) -> list:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(paths)]


def dead_names(src: Path, demos: Path, spans: Path) -> list:
    """Names defined in ``src`` that nothing reads, sorted."""
    units = [unit for tree in _parsed(src.glob("*.py")) for unit in _units(tree)]
    outside = _reads(_parsed(demos.glob("*.py")))
    outside |= _strings(_assigned(src / "__init__.py", "__all__")) | _strings(_assigned(spans, "SPANNED"))
    reads = [_reads(nodes) for _, nodes in units]
    return sorted(
        qualname
        for k, (defined, _) in enumerate(units)
        for qualname in defined
        if (name := qualname.rpartition(".")[2]) not in outside
        and not any(name in r for j, r in enumerate(reads) if j != k)
    )


def test_every_defined_name_is_read():
    assert dead_names(SRC, ROOT / "demos", ROOT / "perfbench" / "spans.py") == sorted(ALLOWED)


def test_dead_names_are_found(tmp_path):
    src, demos = tmp_path / "src", tmp_path / "demos"
    src.mkdir()
    demos.mkdir()
    (src / "__init__.py").write_text("__all__ = ['exported']\n")
    (src / "mod.py").write_text(
        "A, B = 1, 2\n"
        "def exported(): return A\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def used_by_demo(): pass\n"
        "def spanned(): pass\n"
        "@_check('x')\n"
        "def registered(): pass\n"
        "class K:\n"
        "    def __init__(self): self.own()\n"
        "    def own(self): pass\n"
        "    def alias(self): return self.alias()\n"
    )
    (demos / "demo.py").write_text("from pkg import mod\nmod.used_by_demo()\n")
    spans = tmp_path / "spans.py"
    spans.write_text("SPANNED: dict = {'mod': ('spanned',)}\n")
    assert dead_names(src, demos, spans) == ["B", "K", "K.alias", "recursive"]
