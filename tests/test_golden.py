"""Golden outputs: CLI reports and demos behave exactly as recorded.

Each CLI report's ``outputs`` object is compared, through the digest defined
in ``perfbench/outputs.py``, with the copy recorded in
``perfbench/golden.json``; that file is only read here.  The markdown
rendering of each key is run too, and its SHA-256 is compared with the one
recorded in ``tests/md_golden.json``, except for ``class`` at degrees other
than a few: every ``class`` key is checked in JSON only, by its own test,
since each call re-solves the 16-row system.  Left out for speed: the full
``verify`` run, which a CI step and the ``perfbench`` workloads check
against the same file.

Each demo's stdout is compared with its recording in ``tests/demo_golden/``
(``<demo>.txt``), which covers the ``str`` of polynomials and the ``repr``
of vectors that no report digest sees.  Re-record a demo only when its
output is meant to change.
"""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dr2calc import cli

ROOT = Path(__file__).resolve().parents[1]
DEMO_GOLDEN = Path(__file__).resolve().parent / "demo_golden"


def _load_outputs_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_outputs", ROOT / "perfbench" / "outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


OUTPUTS = _load_outputs_module()
GOLDEN = OUTPUTS.load_golden()
CLASS_DEGREES = {"symbolic", "1", "2", "1000000"}


def _covered(key):
    words = key.split()
    if key == "verify":
        return False
    return words[0] != "class" or words[-1] in CLASS_DEGREES


KEYS = sorted(k for k in GOLDEN if _covered(k))


def test_golden_key_selection():
    left_out = set(GOLDEN) - set(KEYS)
    assert "verify" in left_out
    assert all(k == "verify" or k.startswith("class ") for k in left_out)
    assert {k for k in KEYS if k.startswith("class ")} == {
        f"class --d {d}" for d in CLASS_DEGREES
    }


@pytest.mark.parametrize(
    "key, emit",
    [pytest.param(k, "json", id=k) for k in KEYS]
    + [pytest.param(k, "md", id=f"{k} --emit md") for k in KEYS],
)
def test_cli_outputs_match_golden(key, emit):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(key.split() + ["--emit", emit])
    problem = OUTPUTS.check_cli(key, emit, code, buf.getvalue().encode("utf-8"), GOLDEN)
    assert problem is None, problem


MD_GOLDEN = json.loads((Path(__file__).resolve().parent / "md_golden.json").read_text(encoding="utf-8"))


def test_every_key_has_a_markdown_recording():
    assert sorted(MD_GOLDEN) == KEYS


@pytest.mark.parametrize("key", KEYS)
def test_markdown_matches_recording(key):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(key.split() + ["--emit", "md"])
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == MD_GOLDEN[key]


DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@functools.lru_cache(maxsize=None)
def _run_demo(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = _run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_every_demo_has_a_recording():
    assert sorted(p.stem for p in DEMO_GOLDEN.glob("*.txt")) == [Path(d).stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_matches_recording(demo):
    proc = _run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DEMO_GOLDEN / f"{Path(demo).stem}.txt").read_text(encoding="utf-8")


CLASS_KEYS = sorted(k for k in GOLDEN if k.split()[0] == "class")


@pytest.mark.parametrize("key", CLASS_KEYS)
def test_every_class_key_matches_golden(key):
    test_cli_outputs_match_golden(key, "json")
