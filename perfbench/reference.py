"""Speed probes: fixed pieces of work that track the host's current speed.

The benchmark's host is a share of a machine whose CPUs change speed from
second to second, by up to half as much again, and drift over minutes, so the
same program timed a few minutes apart reads very differently.  A probe is
about a millisecond of fixed work, timed on the CPU the program runs on while
it runs (run.py) or between its operations (warm.py).  It gives the host's
slowdown: how many times longer than nominal the work took.  Each timed
operation is divided by the slowdown measured around it, so that it reads as
seconds on a host of one fixed speed.  Probes use only the standard library,
so no change to dr2calc can move them.

Two kinds of work slow down differently, so there are two parts:

- Fraction arithmetic in a dict, the kind of computation dr2calc does;
- touching fresh pages of memory, as a starting interpreter does when it
  loads.

COMPUTE, the first part alone, is for operations that are mostly Python
computation (`verify` invocations, the `library-warm` operations and its
set-up).  MIXED, the geometric mean of both parts' slowdowns, is for process
start-up plus some computation (`cli-cold` invocations, `import dr2calc`).
"""

from __future__ import annotations

import math
import mmap
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Tuple

PAGE = mmap.PAGESIZE

# Seconds between probes while a program process runs.
PROBE_EVERY_S = 0.05


def _fractions() -> dict:
    acc = {}
    x = Fraction(1, 3)
    for i in range(1, 80):
        y = Fraction(i % 17 - 8, i % 5 + 1)
        acc[i % 23] = acc.get(i % 23, 0) + x * y
        if i % 3:
            x = (x + y) / 2
    return acc


def _fresh_pages() -> None:
    with mmap.mmap(-1, 48 * PAGE) as pages:
        for offset in range(0, 48 * PAGE, PAGE):
            pages[offset] = 1


def _seconds(work: Callable[[], object]) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


@dataclass(frozen=True)
class Probe:
    # (work, nominal seconds): the nominal time is about the work's median on
    # the baseline's host.
    parts: Tuple[Tuple[Callable[[], object], float], ...]

    def slowdown(self) -> float:
        """Geometric mean over the parts of (seconds taken now / nominal)."""
        logs = [math.log(_seconds(work) / nominal) for work, nominal in self.parts]
        return math.exp(sum(logs) / len(logs))


COMPUTE = Probe(((_fractions, 0.001),))
MIXED = Probe(((_fractions, 0.001), (_fresh_pages, 0.00035)))
