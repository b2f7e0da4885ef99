"""Every name a package module defines is read somewhere.

A module-level name or a non-dunder method defined in ``src/dr2calc`` must be
read by another statement of the package or by a demo, or be listed in
``dr2calc.__all__`` or in ``perfbench/spans.py`` ``SPANNED``.  A check that
``@_check`` registers counts as read.  Reads are matched by name.  A
module-level name is read by a loaded name or an attribute, and a method
only by an attribute (``x.method``), so a local variable of the same name
does not hide a dead method; another class's attribute of the same name
still does.

An attribute that a package statement assigns as ``self.x = ...`` must be
read as ``.x`` (a load, not another assignment) by a statement of the
package or of a demo, so that no derived copy of a table outlives its last
reader.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dr2calc"

ALLOWED = {
    # The inverse of ``to_json_dict``, kept for class JSON as an input surface.
    "TautClass2.from_json_dict",
}


def _reads(nodes) -> set:
    """The names loaded, and as ".name" the attributes read, in some AST nodes."""
    return {
        n.id if isinstance(n, ast.Name) else "." + n.attr
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


def _instance_attributes(trees) -> set:
    """The attributes assigned as ``self.x = ...``, each as "self.x"."""
    return {
        f"self.{n.attr}"
        for tree in trees
        for stmt in ast.walk(tree)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        for n in ast.walk(target)
        if isinstance(n, ast.Attribute) and getattr(n.value, "id", "") == "self"
    }


def dead_names(src: Path, demos: Path, spans: Path) -> list:
    """Names and ``self`` attributes defined in ``src`` that nothing reads, sorted."""
    trees, demo_trees = _parsed(src.glob("*.py")), _parsed(demos.glob("*.py"))
    units = [unit for tree in trees for unit in _units(tree)]
    outside = _reads(demo_trees)
    outside |= _strings(_assigned(src / "__init__.py", "__all__")) | _strings(_assigned(spans, "SPANNED"))
    reads = [_reads(nodes) for _, nodes in units]
    loaded = {
        n.attr for tree in trees + demo_trees for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    return sorted(
        [
            qualname
            for k, (defined, _) in enumerate(units)
            for qualname in defined
            if not (forms := _read_as(qualname)) & outside
            and not any(forms & r for j, r in enumerate(reads) if j != k)
        ]
        + [attr for attr in _instance_attributes(trees) if attr[len("self."):] not in loaded]
    )


def _read_as(qualname: str) -> set:
    """The reads that use a definition: a method only as an attribute."""
    owner, _, name = qualname.rpartition(".")
    return {"." + name} if owner else {name, "." + name}


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


def test_a_local_of_the_same_name_does_not_hide_a_dead_method(tmp_path):
    src, demos = tmp_path / "src", tmp_path / "demos"
    src.mkdir()
    demos.mkdir()
    (src / "__init__.py").write_text("__all__ = ['f']\n")
    (src / "mod.py").write_text(
        "def f(degree, used): return degree + used + K().used()\n"
        "class K:\n"
        "    def degree(self): pass\n"
        "    def used(self): pass\n"
    )
    spans = tmp_path / "spans.py"
    spans.write_text("SPANNED: dict = {}\n")
    assert dead_names(src, demos, spans) == ["K.degree"]


def test_unread_instance_attributes_are_found(tmp_path):
    src, demos = tmp_path / "src", tmp_path / "demos"
    src.mkdir()
    demos.mkdir()
    (src / "__init__.py").write_text("__all__ = ['K']\n")
    (src / "mod.py").write_text(
        "class K:\n"
        "    def __init__(self, other):\n"
        "        self.read = 1\n"
        "        self.copy, self.den = 2, 3\n"
        "        self.by_demo: int = 4\n"
        "        self.stored = 5\n"
        "        other.stored = self.read + self.den\n"
    )
    (demos / "demo.py").write_text("from pkg.mod import K\nprint(K(None).by_demo)\n")
    spans = tmp_path / "spans.py"
    spans.write_text("SPANNED: dict = {}\n")
    assert dead_names(src, demos, spans) == ["self.copy", "self.stored"]
