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


def main(directory: str) -> None:
    total = 0
    for path in sorted(pathlib.Path(directory).glob("*.py")):
        count = code_lines(path.read_text())
        print(f"{count:5d} {path}")
        total += count
    print(f"{total:5d} total")


if __name__ == "__main__":
    main(sys.argv[1])
