"""tools/code_lines.py, the counter behind the design score's code-only lines."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Each line's comment says whether the counter counts it.
MODULE = '''"""Module docstring,
over two lines."""

# a comment-only line


@decorator                                 # counts
class Thing:                               # counts
    """Class docstring."""

    def method(self):                      # counts
        """Function docstring,
        over two lines."""
        "a string expression, not a docstring"  # counts
        return (1 +                        # counts
                2)                         # counts

    async def later(self):                 # counts
        """Async function docstring."""
        pass                               # counts
'''


def test_the_synthetic_module_counts_its_marked_lines():
    assert code_lines.code_lines(MODULE) == MODULE.count("# counts")


@pytest.mark.parametrize(
    "text, count",
    [
        ("\n\n   \n", 0),
        ("# only a comment\n\n# and another\n", 0),
        ('"""A module docstring\n\nover three lines."""\n', 0),
        ('class A:\n    """A class docstring\n    over two lines."""\n', 1),
        ('def f():\n    """A function docstring."""\n    return 1\n', 2),
        ('async def f():\n    """An async function docstring."""\n', 1),
        ('x = 1\n"a string expression after code"\n', 2),
        ('def f():\n    x = 1\n    """not the first statement"""\n', 3),
        ("x = (\n    1,\n    2,\n)\n", 4),
        ('x = """a string\nover three\nlines"""\n', 3),
        ("@first\n@second(\n    3)\ndef f():\n    pass\n", 5),
    ],
    ids=[
        "blank", "comments", "module-docstring", "class-docstring", "function-docstring",
        "async-docstring", "string-expression", "late-string", "multi-line", "multi-line-string",
        "decorators",
    ],
)
def test_each_rule(text, count):
    assert code_lines.code_lines(text) == count


def test_a_directory_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "a.py").write_text('"""doc"""\nz = 3\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr()
    assert out.out.splitlines() == [
        f"    1 {tmp_path / 'a.py'}",
        f"    2 {tmp_path / 'b.py'}",
        "    3 total",
    ]
    assert out.err == ""


@pytest.mark.parametrize("problem", ["missing", "no-such-directory", "a-file", "no-modules"])
def test_a_wrong_path_is_refused_not_counted_as_zero(tmp_path, capsys, problem):
    (tmp_path / "module.py").write_text("x = 1\n")
    (tmp_path / "empty").mkdir()
    args = {
        "missing": [],
        "no-such-directory": [str(tmp_path / "modulez")],
        "a-file": [str(tmp_path / "module.py")],
        "no-modules": [str(tmp_path / "empty")],
    }[problem]
    assert code_lines.main(args) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and "total" not in out.err


def test_the_script_exits_2_without_a_traceback():
    result = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "usage: python tools/code_lines.py DIRECTORY\n"
