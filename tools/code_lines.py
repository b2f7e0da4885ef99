"""Count the code lines of each module in a directory: every line that a
token other than a comment, newline or indentation touches, less each module,
class and function docstring.  Blank, comment-only and docstring lines do not
count, so a change that only deletes prose shows as none.

Usage: python tools/code_lines.py src/dr2calc
"""

import ast
import io
import pathlib
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def _refuse(problem: str) -> int:
    print(problem, file=sys.stderr)
    return 2


def main(args) -> int:
    """Print each module's count and the total; a missing argument, a path
    that is not a directory, or a directory without modules is refused with
    one line on stderr and exit status 2, never counted as zero."""
    if len(args) != 1:
        return _refuse("usage: python tools/code_lines.py DIRECTORY")
    directory = pathlib.Path(args[0])
    if not directory.is_dir():
        return _refuse(f"{args[0]}: not a directory")
    paths = sorted(directory.glob("*.py"))
    if not paths:
        return _refuse(f"{args[0]}: no *.py file in the directory")
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        print(f"{count:5d} {path}")
        total += count
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
