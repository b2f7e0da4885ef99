"""Seeded inputs for the three workloads, as plain data.

Nothing here imports dr2calc: the benchmark draws its inputs from the seed and
the program only ever sees the generated values.  A round is a fixed multiset
of operations in seeded order, so every seed gives the same mix and a run that
covers several rounds measures the same kind of work whatever the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

# Degrees drawn for --d: "symbolic", 1..50, or one of these large integers.
LARGE_DEGREES = (997, 4096, 65537, 123457, 524287, 999983, 1000000)
SMALL_DEGREES = tuple(range(1, 51))
NUMERIC_DEGREES = SMALL_DEGREES + LARGE_DEGREES
ALL_DEGREES = ("symbolic",) + NUMERIC_DEGREES

CHECK_NAMES = (
    "surfaces",
    "solver",
    "pushforward",
    "chi-pipeline",
    "psi3",
    "m-count",
    "hac",
    "ci-obstruction",
    "cone-decomposition",
    "nonextremality",
    "nonpolynomiality",
)
# Every check but ci-obstruction, which is the `verify` workload's own cost
# and would swamp the cold-start mix.
VERIFY_ONLY_CHECKS = tuple(name for name in CHECK_NAMES if name != "ci-obstruction")

# CLI commands that take --d; cone-m21 rejects "symbolic".
DEGREE_COMMANDS = ("class", "pushforward", "cone-m21", "ct", "cone")
CLI_ROUND = DEGREE_COMMANDS + ("solve", "equations") + tuple(
    f"verify:{name}" for name in VERIFY_ONLY_CHECKS
)

# One library-warm round.  Products are most of the calls, so the median op
# is a numeric product and the 90th percentile a symbolic one; the solve and
# the corollary chains carry most of the time, so they set ops_per_s.
WARM_ROUND = (
    ("numeric", 36),
    ("symbolic", 13),
    ("solve", 1),
    ("corollaries", 2),
)

# The `verify` workload: the full check suite, JSON output.
VERIFY_KEY = "verify"
VERIFY_ARGV = ("verify", "--emit", "json")


def draw_degree(rng: random.Random, numeric_only: bool = False):
    """A degree: symbolic, small or large, each with probability 1/3."""
    pick = rng.randrange(2 if numeric_only else 3)
    if pick == 0:
        return rng.choice(SMALL_DEGREES)
    if pick == 1:
        return rng.choice(LARGE_DEGREES)
    return "symbolic"


def cli_key(command: str, degree=None) -> str:
    """Golden-table key of one invocation, without its --emit choice."""
    if command.startswith("verify:"):
        return f"verify --only {command.split(':', 1)[1]}"
    if degree is None:
        return command
    return f"{command} --d {degree}"


def cli_round(rng: random.Random) -> List[Tuple[str, Tuple[str, ...]]]:
    """One seeded round of cold CLI invocations as (golden key, argv) pairs."""
    kinds = list(CLI_ROUND)
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        emit = rng.choice(("json", "md"))
        if kind in DEGREE_COMMANDS:
            key = cli_key(kind, draw_degree(rng, numeric_only=kind == "cone-m21"))
        else:
            key = cli_key(kind)
        out.append((key, tuple(key.split()) + ("--emit", emit)))
    return out


def small_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.randint(1, 6))


def warm_round(rng: random.Random) -> List[Tuple[str, object]]:
    """One seeded library-warm round as (kind, plain-data input) pairs.

    numeric: two 6-vectors of small signed Fractions.
    symbolic: two 6-vectors of polynomials in d of degree <= 2, given as
      coefficient lists, plus an integer point at which to check them.
    solve: 6-9 distinct sample points from 2..200.
    corollaries: a degree, as in draw_degree.
    """
    kinds = [kind for kind, count in WARM_ROUND for _ in range(count)]
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        if kind == "numeric":
            data = tuple(
                tuple(small_fraction(rng) for _ in range(6)) for _ in range(2)
            )
        elif kind == "symbolic":
            pair = tuple(
                tuple(
                    tuple(small_fraction(rng) for _ in range(rng.randint(1, 3)))
                    for _ in range(6)
                )
                for _ in range(2)
            )
            data = pair + (rng.randint(2, 50),)
        elif kind == "solve":
            data = tuple(rng.sample(range(2, 201), rng.randint(6, 9)))
        else:
            data = draw_degree(rng)
        out.append((kind, data))
    return out
