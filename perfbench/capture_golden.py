"""Capture golden digests of the CLI's JSON outputs for the benchmark's fixed
argument pool, and write them to perfbench/golden.json.

Usage, from the repository root: PYTHONPATH=src python perfbench/capture_golden.py

Run it only at a commit whose outputs are known to be right: the cold
workloads count every JSON report that differs from these digests as failed.
"""

import contextlib
import io
import json
import sys

import inputs
from outputs import GOLDEN_PATH, digest


def argument_pool():
    """Every golden key the cold workloads can draw."""
    keys = []
    for command in inputs.DEGREE_COMMANDS:
        degrees = inputs.NUMERIC_DEGREES if command == "cone-m21" else inputs.ALL_DEGREES
        keys += [inputs.cli_key(command, d) for d in degrees]
    keys += ["solve", "equations", inputs.VERIFY_KEY]
    keys += [inputs.cli_key(f"verify:{name}") for name in inputs.VERIFY_ONLY_CHECKS]
    return keys


def main() -> int:
    from dr2calc import cli

    golden = {}
    for key in argument_pool():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(key.split() + ["--emit", "json"])
        if code != 0:
            sys.stderr.write(f"{key}: exit code {code}\n")
            return 1
        golden[key] = digest(json.loads(buf.getvalue())["outputs"])
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
