"""The library-warm client: one process that calls dr2calc the way a script or
notebook does.

Usage: python perfbench/warm.py --seed N (--seconds S | --rounds K) [--spans-out FILE]

It imports dr2calc, runs one fixed warm-up round, then the seeded stream of
rounds from inputs.warm_round, for S seconds or exactly K rounds.  Each
operation is timed on its own, between two compute probes (see
reference.py), and divided by their mean slowdown; its result is then checked
with an exact identity, outside the timed interval.  The last stdout line is
{"times": {kind: [scaled seconds, ...]}, "slowdown": median probe slowdown,
"failures": [...]}.  With --spans-out the tracer records spans of the stream
(not of the warm-up, the input construction or the checks) and writes them
to FILE at the end.
"""

from __future__ import annotations

import argparse
from array import array
import importlib
import json
import random
import statistics
import sys
import time

import inputs
from reference import COMPUTE
from spans import IMPORT_SPAN, Tracer


def build(lib, kind, data):
    """Library arguments for one operation from its plain-data input."""
    if kind == "numeric":
        return tuple(lib.DivisorM22(v) for v in data)
    if kind == "symbolic":
        a, b, x = data
        return (
            lib.DivisorM22(lib.PolyQ(c) for c in a),
            lib.DivisorM22(lib.PolyQ(c) for c in b),
            x,
        )
    if kind == "solve":
        return data
    return lib.D if data == "symbolic" else data


def run(lib, kind, args):
    """The timed library calls of one operation."""
    if kind in ("numeric", "symbolic"):
        return lib.multiply_divisors(args[0], args[1])
    if kind == "solve":
        system = lib.full_system()
        return lib.solve_parametric(system, samples=args), lib.redundancy_report(system)
    c = lib.dr2_class(args)
    return (
        lib.pushforward(c, 1),
        lib.restrict_to_ct(c),
        lib.cone_decomposition(args),
        lib.verify_hac(args),
    )


def _fused(a, b):
    """The psi1^2 + psi2^2 slot of a product: (a_psi1 b_psi1 + a_psi2 b_psi2) / 2."""
    return (a.coeffs[0] * b.coeffs[0] + a.coeffs[1] * b.coeffs[1]) / 2


def check(lib, kind, args, result) -> bool:
    """Exact identities the result of one operation must satisfy."""
    if kind == "numeric":
        a, b = args
        return result.coeffs[1] == _fused(a, b) and result == lib.multiply_divisors(b, a)
    if kind == "symbolic":
        a, b, x = args

        def at(v):
            return lib.DivisorM22(c(x) for c in v.coeffs)

        return result.coeffs[1] == _fused(a, b) and result.eval_at(x) == lib.multiply_divisors(
            at(a), at(b)
        )
    if kind == "solve":
        cert, deps = result
        return (
            cert.solution == lib.dr2_class(lib.D)
            and cert.rank == 14
            and cert.consistent
            and len(deps) == 2
        )
    pushed, restricted, (on_base, on_limit), hac = result
    d = args if isinstance(args, lib.PolyQ) else lib.PolyQ.const(args)
    d2 = d * d
    return (
        pushed == lib.pushforward_class_formula(args)
        and hac.ok
        and restricted == hac.restricted
        and on_base == (d2 - 1) / 3
        and on_limit == (d2 - 1) * (d2 - 4)
    )


def stream(lib, tracer, seed, seconds=None, rounds=None):
    """Run the seeded stream; returns ({kind: array of scaled seconds},
    array of probe slowdowns, failures).

    Times are kept in flat arrays so that the client's own bookkeeping does
    not grow the peak RSS the benchmark reports.
    """
    pause = tracer.pause
    rng = random.Random(seed)
    times = {kind: array("d") for kind, _ in inputs.WARM_ROUND}
    slowdowns = array("d", [COMPUTE.slowdown()])
    failures = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    count = done = 0
    while rounds is None or done < rounds:
        for kind, data in inputs.warm_round(rng):
            if deadline is not None and count and time.perf_counter() >= deadline:
                return times, slowdowns, failures
            tracer.op = count
            with pause():
                args = build(lib, kind, data)
            start = time.perf_counter()
            try:
                result = run(lib, kind, args)
            except Exception as exc:  # a failing operation is counted, not fatal
                result, failure = None, f"{kind} {data!r}: {exc!r}"
            else:
                failure = None
            elapsed = time.perf_counter() - start
            slowdowns.append(COMPUTE.slowdown())
            times[kind].append(elapsed * 2 / (slowdowns[-2] + slowdowns[-1]))
            count += 1
            with pause():
                if failure is None and not check(lib, kind, args, result):
                    failure = f"{kind} {data!r}: identity failed"
            if failure:
                failures.append(failure)
        done += 1
    return times, slowdowns, failures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    length = parser.add_mutually_exclusive_group(required=True)
    length.add_argument("--seconds", type=float)
    length.add_argument("--rounds", type=int)
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    # Without --spans-out the tracer is never installed, so it wraps nothing.
    tracer = Tracer()
    if args.spans_out:
        tracer.install()
    with tracer.span(IMPORT_SPAN):
        lib = importlib.import_module("dr2calc")

    with tracer.pause():
        for kind, data in inputs.warm_round(random.Random("warm-up")):
            run(lib, kind, build(lib, kind, data))

    times, slowdowns, failures = stream(lib, tracer, args.seed, args.seconds, args.rounds)
    if args.spans_out:
        tracer.dump(args.spans_out)
    print(json.dumps({
        "times": {k: list(v) for k, v in times.items()},
        "slowdown": statistics.median(slowdowns),
        "failures": failures,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
