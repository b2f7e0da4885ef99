"""Benchmark of dr2calc, run from the root of a source checkout.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):
  cli-cold      a seeded closed loop of cold `python -m dr2calc.cli` commands
  verify        cold `dr2calc verify --emit json`, over and over
  library-warm  one warm process running a seeded stream of library calls

With --trace 0 the run measures for S seconds with nothing traced and prints
the end-to-end metrics.  Every time in them is scaled by speed probes timed
on the program's CPU while the operation ran (see reference.py), so that they
read as seconds on a host of one fixed speed.  With --trace 1 it runs a
fixed, seed-determined list of operations twice, untraced and then traced,
and prints per-layer metrics, so that two traced runs with one seed give
identical call counts.  Every output is checked outside the timed interval.
The last stdout line is the JSON result; spans of a traced run go to
.perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import inputs
from outputs import check_cli, load_golden
from reference import COMPUTE, MIXED, PROBE_EVERY_S, Probe
from spans import aggregate

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
PYTHON = sys.executable

# Set-up is timed SETUP_REPEATS times before the timed loop and as many times
# after it, so that one slow moment of a shared machine does not set it.
SETUP_REPEATS = 5
TRACE_WARM_ROUNDS = 3


@dataclass
class Invocation:
    seconds: float
    slowdown: float  # median slowdown of the probes taken while it ran
    scaled_s: float  # seconds / slowdown
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


class Runner:
    """Spawns program processes from the checkout and times them spawn to exit.

    The benchmark and its program processes share one CPU, so that the speed
    probes it takes while a program process runs measure that process's CPU.
    """

    def __init__(self):
        if not (SRC / "dr2calc" / "__init__.py").is_file():
            raise SystemExit(f"no dr2calc sources under {SRC}")
        # Program processes run as from an installed package, with bytecode
        # cached, whatever PYTHON* settings the caller has.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(SRC)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        OUT_DIR.mkdir(exist_ok=True)
        self._stdout = open(OUT_DIR / "stdout.log", "w+b")
        self._stderr = open(OUT_DIR / "stderr.log", "w+b")
        # Also writes the bytecode caches, so no timed run pays for compiling.
        first = self.spawn(["-c", "import dr2calc.cli, dr2calc.checks; print(dr2calc.__file__)"])
        found = Path(first.stdout.decode().strip() or ".").resolve()
        if first.returncode != 0 or SRC.resolve() not in found.parents:
            raise SystemExit(f"dr2calc does not import from {SRC}: {first.stderr.decode()}")

    def close(self):
        self._stdout.close()
        self._stderr.close()

    def spawn(self, args: List[str], probe: Optional[Probe] = None) -> Invocation:
        """Run one program process to its exit.  With a `probe`, time it just
        before the process starts and every PROBE_EVERY_S while it runs."""
        for log in (self._stdout, self._stderr):
            log.seek(0)
            log.truncate()
        slowdowns = [probe.slowdown()] if probe else []
        start = time.perf_counter()
        proc = subprocess.Popen(
            [PYTHON, *args], cwd=ROOT, env=self.env,
            stdin=subprocess.DEVNULL, stdout=self._stdout, stderr=self._stderr,
        )
        elapsed = None
        exited = os.pidfd_open(proc.pid)
        try:
            while not select.select([exited], [], [], PROBE_EVERY_S if probe else None)[0]:
                slowdowns.append(probe.slowdown())
            elapsed = time.perf_counter() - start
        finally:
            os.close(exited)
            if elapsed is None:
                proc.kill()
            # Reaps the process on every path out of here.
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._stdout.seek(0)
        self._stderr.seek(0)
        slowdown = statistics.median(slowdowns) if probe else 1.0
        return Invocation(elapsed, slowdown, elapsed / slowdown, proc.returncode,
                          self._stdout.read(), self._stderr.read(), usage.ru_maxrss)

    def setup_times(self, args: List[str], probe: Probe) -> List[float]:
        """Scaled spawn-to-exit times of SETUP_REPEATS fresh set-ups."""
        times = []
        for _ in range(SETUP_REPEATS):
            inv = self.spawn(args, probe)
            if inv.returncode != 0:
                raise SystemExit(f"set-up failed: {inv.stderr.decode()}")
            times.append(inv.scaled_s)
        return times

    def warm(self, *args: str) -> Tuple[Invocation, dict]:
        # The client probes its own speed; probes from here would interrupt it.
        inv = self.spawn([str(BENCH / "warm.py"), *args])
        if inv.returncode != 0:
            raise SystemExit(f"library-warm client failed: {inv.stderr.decode()}")
        return inv, json.loads(inv.stdout.decode().splitlines()[-1])


def cli_stream(workload: str, seed: int) -> Iterable[Tuple[str, Tuple[str, ...]]]:
    if workload == "verify":
        return itertools.repeat((inputs.VERIFY_KEY, inputs.VERIFY_ARGV))
    rng = random.Random(seed)
    return itertools.chain.from_iterable(inputs.cli_round(rng) for _ in itertools.count())


def report_failures(failures: List[str]) -> None:
    for reason in failures[:10]:
        sys.stderr.write(f"failed: {reason}\n")


def latency_metrics(latencies: List[float]) -> Dict[str, float]:
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else latencies[0]
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": p90,
        "ops_per_s": len(latencies) / sum(latencies),
    }


def measure_cold(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    golden = load_golden()
    setup_args = ["-c", "import dr2calc"]
    # Importing and a cli-cold invocation are mostly process start-up; a
    # verify invocation is mostly products.
    setup = runner.setup_times(setup_args, MIXED)
    probe = MIXED if workload == "cli-cold" else COMPUTE
    latencies, raw, slowdowns, failures, rss = [], [], [], [], 0
    start = time.perf_counter()
    for key, argv in cli_stream(workload, seed):
        if latencies and time.perf_counter() - start >= seconds:
            break
        inv = runner.spawn(["-m", "dr2calc.cli", *argv], probe)
        raw.append(inv.seconds)
        slowdowns.append(inv.slowdown)
        latencies.append(inv.scaled_s)
        rss = max(rss, inv.maxrss_kb)
        reason = check_cli(key, argv[-1], inv.returncode, inv.stdout, golden)
        if reason:
            failures.append(reason)
    setup += runner.setup_times(setup_args, MIXED)
    metrics = latency_metrics(latencies)
    metrics.update(setup_s=statistics.median(setup), peak_rss_mb=rss / 1024)
    beyond = sum(t > metrics["latency_p90_s"] for t in latencies)
    print(f"# {workload} seed {seed}: {len(latencies)} invocations, "
          f"{beyond} beyond p90, {len(failures)} failed; unscaled median "
          f"{statistics.median(raw):.4f} s, median slowdown {statistics.median(slowdowns):.4f}")
    return {"attempted": len(latencies), "failures": failures, "metrics": metrics}


def measure_warm(runner: Runner, seed: int, seconds: float) -> dict:
    setup_args = [str(BENCH / "warm.py"), "--seed", "0", "--rounds", "0"]
    # Most of this set-up is the warm-up round's computation.
    setup = runner.setup_times(setup_args, COMPUTE)
    inv, result = runner.warm("--seed", str(seed), "--seconds", str(seconds))
    setup += runner.setup_times(setup_args, COMPUTE)
    latencies = [t for times in result["times"].values() for t in times]
    metrics = latency_metrics(latencies)
    metrics.update(setup_s=statistics.median(setup), peak_rss_mb=inv.maxrss_kb / 1024)
    beyond = sum(t > metrics["latency_p90_s"] for t in latencies)
    rates = [f"{kind} {len(times)} ops {len(times) / sum(times):.1f}/s"
             for kind, times in result["times"].items()]
    print(f"# library-warm seed {seed}: {len(latencies)} ops, {beyond} beyond p90, "
          f"{len(result['failures'])} failed; median slowdown "
          f"{result['slowdown']:.4f}; " + ", ".join(rates))
    return {"attempted": len(latencies), "failures": result["failures"], "metrics": metrics}


def trace_cold(runner: Runner, workload: str, seed: int) -> dict:
    golden = load_golden()
    # One verify, or the first cli-cold round.
    count = len(inputs.CLI_ROUND) if workload == "cli-cold" else 1
    ops = list(itertools.islice(cli_stream(workload, seed), count))
    failures, dumps, walls = [], [], [0.0, 0.0]
    for traced in (False, True):
        for op, (key, argv) in enumerate(ops):
            spans_file = OUT_DIR / f"spans-{op}.json"
            if traced:
                inv = runner.spawn([str(BENCH / "traced_cli.py"), str(spans_file), str(op), *argv])
                with open(spans_file, encoding="utf-8") as fh:
                    dumps.append(json.load(fh))
                spans_file.unlink()
            else:
                inv = runner.spawn(["-m", "dr2calc.cli", *argv])
            walls[traced] += inv.seconds
            reason = check_cli(key, argv[-1], inv.returncode, inv.stdout, golden)
            if reason:
                failures.append(reason)
    return {"attempted": 2 * len(ops), "failures": failures, "dumps": dumps, "walls": walls}


def trace_warm(runner: Runner, seed: int) -> dict:
    spans_file = OUT_DIR / "spans-warm.json"
    rounds = ["--seed", str(seed), "--rounds", str(TRACE_WARM_ROUNDS)]
    plain, plain_result = runner.warm(*rounds)
    traced, traced_result = runner.warm(*rounds, "--spans-out", str(spans_file))
    with open(spans_file, encoding="utf-8") as fh:
        dump = json.load(fh)
    spans_file.unlink()
    return {
        "attempted": sum(len(t) for r in (plain_result, traced_result) for t in r["times"].values()),
        "failures": plain_result["failures"] + traced_result["failures"],
        "dumps": [dump],
        "walls": [plain.seconds, traced.seconds],
    }


def measure_traced(runner: Runner, workload: str, seed: int) -> dict:
    run = trace_warm(runner, seed) if workload == "library-warm" else trace_cold(runner, workload, seed)
    untraced, traced = run["walls"]
    metrics = aggregate(run["dumps"])
    metrics.update({"trace.wall_s": traced, "trace.overhead_s": traced - untraced})
    with open(OUT_DIR / f"trace-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "processes": run["dumps"]}, fh)
    print(f"# {workload} seed {seed} traced: {untraced:.3f} s untraced, {traced:.3f} s traced")
    return {"attempted": run["attempted"], "failures": run["failures"], "metrics": metrics}


def unit(name: str) -> str:
    if name == "ops_per_s":
        return "1/s"
    if name == "peak_rss_mb":
        return "MiB"
    return "count" if name.endswith(".calls") else "s"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli-cold", "verify", "library-warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    runner = Runner()
    try:
        if args.trace:
            run = measure_traced(runner, args.workload, args.seed)
        elif args.workload == "library-warm":
            run = measure_warm(runner, args.seed, args.seconds)
        else:
            run = measure_cold(runner, args.workload, args.seed, args.seconds)
    finally:
        runner.close()
    report_failures(run["failures"])
    print(json.dumps({
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": len(run["failures"]),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
