"""Run one dr2calc CLI command with spans recorded, then write them to a file.

Usage: python perfbench/traced_cli.py SPANS_OUT OP_ID <dr2calc arguments...>

stdout and the exit code are those of `python -m dr2calc.cli <arguments>`.
"""

import sys

from spans import IMPORT_SPAN, Tracer


def main() -> int:
    spans_out, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer(op)
    tracer.install()
    try:
        with tracer.span(IMPORT_SPAN):
            from dr2calc import cli
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
