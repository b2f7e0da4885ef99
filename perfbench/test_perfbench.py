"""Tests of the benchmark itself.

Run from the repository root: python -m pytest perfbench -q
"""

import contextlib
import dataclasses
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import inputs  # noqa: E402
import outputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import warm  # noqa: E402


def _report(argv):
    from dr2calc import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _flip_first_coefficient(obj):
    """Add 1 to the first "p/q" coefficient string found, depth first."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            if _flip_first_coefficient(obj[key]):
                return True
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            if isinstance(item, str) and item.lstrip("-").replace("/", "").isdigit():
                obj[i] = str(Fraction(item) + 1)
                return True
            if _flip_first_coefficient(item):
                return True
    return False


def test_golden_accepts_the_real_output_and_rejects_a_flipped_coefficient():
    golden = outputs.load_golden()
    for key in ("class --d 7", "ct --d symbolic", "solve"):
        stdout = _report(key.split())
        assert outputs.check_cli(key, "json", 0, stdout.encode(), golden) is None
        report = json.loads(stdout)
        assert _flip_first_coefficient(report["outputs"])
        tampered = json.dumps(report).encode()
        assert outputs.check_cli(key, "json", 0, tampered, golden) is not None
    assert outputs.check_cli("class --d 7", "md", 1, b"", golden) is not None


def test_golden_covers_the_whole_argument_pool():
    golden = outputs.load_golden()
    rng = random.Random(0)
    for _ in range(20):
        for key, _argv in inputs.cli_round(rng):
            assert key in golden
    assert inputs.VERIFY_KEY in golden


def test_a_tampered_library_result_counts_as_failed(monkeypatch):
    import dr2calc

    real_run = warm.run
    tampered = []

    def run_with_one_flip(lib, kind, args):
        result = real_run(lib, kind, args)
        if kind in ("numeric", "symbolic", "corollaries") and kind not in tampered:
            tampered.append(kind)
            if kind == "corollaries":
                pushed = result[0]
                result = (pushed + lib.DivisorM21((1, 0, 0)),) + result[1:]
            else:
                result = result + dr2calc.TautClass2.unit(0)
        return result

    monkeypatch.setattr(warm, "run", run_with_one_flip)
    times, slowdowns, failures = warm.stream(dr2calc, spans.Tracer(), seed=1, rounds=1)
    assert {kind: len(t) for kind, t in times.items()} == dict(inputs.WARM_ROUND)
    assert len(slowdowns) == 1 + sum(count for _, count in inputs.WARM_ROUND) and min(slowdowns) > 0
    assert len(failures) == 3


def test_every_result_kind_passes_its_identity_and_fails_when_flipped():
    import dr2calc

    rng = random.Random(5)
    seen = set()
    for kind, data in inputs.warm_round(rng):
        if kind in seen:
            continue
        seen.add(kind)
        args = warm.build(dr2calc, kind, data)
        result = warm.run(dr2calc, kind, args)
        assert warm.check(dr2calc, kind, args, result)
        if kind == "solve":
            cert, deps = result
            wrong = cert.solution + dr2calc.TautClass2.unit(3)
            result = (dataclasses.replace(cert, solution=wrong), deps)
        elif kind == "corollaries":
            result = (result[0],) + (result[1] + dr2calc.CtClass.unit(2),) + result[2:]
        else:
            result = result + dr2calc.TautClass2.unit(5)
        assert not warm.check(dr2calc, kind, args, result)
    assert seen == {kind for kind, _ in inputs.WARM_ROUND}


def test_self_times_subtract_direct_children():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6]
    trace = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 6.0, 0, 0],
    ]
    assert spans.self_times(trace) == [6.0, 2.0, 1.0, 1.0]


def test_every_from_import_binds_the_wrapper():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "from spans import Tracer\n"
        "t = Tracer(); t.install()\n"
        "import dr2calc.cli, dr2calc.checks\n"
        "left = [(m, a) for m, mod in sys.modules.items() if m.startswith('dr2calc')\n"
        "        for a, v in vars(mod).items() if id(v) in t._wrapped]\n"
        "assert not left, left\n"
        "assert all(getattr(f, '__wrapped__', None) for f in dr2calc.checks.CHECKS.values())\n"
        "assert dr2calc.cones.multiply_divisors is dr2calc.chow.multiply_divisors\n"
        "assert dr2calc.cones.multiply_divisors.__wrapped__\n"
    ) % (str(BENCH), str(SRC))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def _traced(workload, seed):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    with open(run.OUT_DIR / f"trace-{workload}-seed{seed}.json", encoding="utf-8") as fh:
        trace = json.load(fh)
    return {k: v["value"] for k, v in result["metrics"].items()}, trace


def _assert_self_times_sound(metrics, trace):
    total = 0.0
    for process in trace["processes"]:
        own = spans.self_times(process["spans"])
        assert min(own) >= -1e-9
        total += sum(own)
    assert total <= metrics["trace.wall_s"]


def test_traced_counts_repeat_exactly_and_self_times_are_sound():
    for workload, seed in (("verify", 0), ("library-warm", 4)):
        first, trace = _traced(workload, seed)
        _assert_self_times_sound(first, trace)
        second, _ = _traced(workload, seed)
        calls = [k for k in first if k.endswith(".calls")]
        assert {k: first[k] for k in calls} == {k: second[k] for k in calls}
        if workload == "verify":
            assert first["cones.ci_obstruction.calls"] == 1000
            assert first["linalg.solve_unique.calls"] == 6
        else:
            assert first["chow.multiply_divisors.calls"] == 3 * (36 + 13)


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = set(run.latency_metrics([1.0, 2.0])) | {"setup_s", "peak_rss_mb"}
    assert {m["name"] for m in spec["end_to_end"]} == end_to_end
    per_layer = set(spans.aggregate([])) | {"trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit(metric["name"])
    assert [w["name"] for w in spec["workloads"]] == ["cli-cold", "verify", "library-warm"]


def test_probes_measure_a_positive_slowdown_of_fixed_work():
    for probe in (reference.COMPUTE, reference.MIXED):
        assert 0 < probe.slowdown() < float("inf")
    assert reference._fractions() == reference._fractions()
