"""Correctness checks on the output of cold CLI invocations.

JSON reports are compared with golden digests of their `outputs` object,
captured by capture_golden.py, and their documented flags are asserted.
Markdown output is checked by exit code only, since its wording may change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def digest(outputs) -> str:
    """SHA-256 of the canonical JSON form of a report's `outputs` object."""
    canonical = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _flags_hold(command: str, outputs: dict) -> bool:
    if command == "class":
        return outputs["difference_is_zero"] is True
    if command == "solve":
        cert = outputs["certificate"]
        return cert["consistent"] is True and cert["rank"] == 14
    if command == "pushforward":
        return outputs["matches_pushforward_of_class"] is True
    if command == "ct":
        rows = outputs["decorated_decomposition"]
        return rows["identity_holds"] is True and rows["difference_formula_holds"] is True
    if command == "verify":
        return outputs["all_passed"] is True and all(c["passed"] for c in outputs["checks"])
    return True


def check_cli(key: str, emit: str, returncode: int, stdout: bytes, golden: Dict[str, str]) -> Optional[str]:
    """None when the invocation is correct, else the reason it is not."""
    if returncode != 0:
        return f"{key}: exit code {returncode}"
    if emit == "md":
        return None
    try:
        report = json.loads(stdout)
        outputs = report["outputs"]
        command = report["command"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"{key}: unreadable report ({exc})"
    if command != key.split()[0]:
        return f"{key}: report is for command {command!r}"
    if digest(outputs) != golden.get(key):
        return f"{key}: outputs differ from the golden copy"
    try:
        if not _flags_hold(command, outputs):
            return f"{key}: a documented flag is false"
    except (KeyError, TypeError) as exc:
        return f"{key}: missing flag ({exc})"
    return None
