"""Parametric solution of the 16-equation system in the cover degree d.

The coefficient matrix is d-independent; all d-dependence sits in the
right-hand sides, which are polynomials of degree at most 4.  The solve
strategy is sample-then-interpolate, on integers wherever it can be:

  1. evaluate the right-hand sides at every sample point in integers
     (``_rhs_at``), and solve the rational system exactly at each point with
     ``linalg.solve_unique``; each solve certifies that the coefficient rank
     equals the unknown count;
  2. interpolate all unknowns in one call, ``polyq.interpolate_columns``,
     which builds the point basis once for the sample set;
  3. re-substitute and demand a zero residual for every row, symbolically:
     the residuals are one integer matrix action on the solution
     (``_residuals``), equal to ``row.residual`` for every row.

Steps 1 and 2 only produce a candidate; the proof of consistency comes
from step 3.  A zero symbolic residual on all 16 rows is a polynomial
identity: the interpolated solution satisfies every equation for every d,
not only at the samples.  On a consistent system it cannot fail: each
residual is a polynomial of degree at most max(deg solution, deg rhs) that
vanishes at all sample points, so with at least deg + 2 samples it is the
zero polynomial.

By default the samples are the consecutive degrees d = 2, 3, ...,
max(6, deg + 2) of them, where deg is the largest right-hand-side degree
(one less than its coefficient count).  The solution polynomials are
defined for all d, and their value at d = 1 is the zero vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .chow import BASIS_NAMES, TautClass2
from .linalg import InconsistentSystemError, UnderdeterminedSystemError
from .polyq import PolyQ, _poly, clear_denominators, exact, interpolate_columns, poly_numerators
from .surfaces import EquationRow, full_system_rows

__all__ = [
    "ParamSystem",
    "SolveCertificate",
    "solve_parametric",
    "redundancy_report",
    "full_system",
    "InconsistentSystemError",
    "UnderdeterminedSystemError",
]


@dataclass(frozen=True)
class ParamSystem:
    """Rows with constant rational coefficients and polynomial right-hand sides."""

    rows: Tuple[EquationRow, ...]
    unknowns: Tuple[str, ...] = BASIS_NAMES

    def matrix(self) -> List[List[Fraction]]:
        return [list(r.coefficients) for r in self.rows]


def full_system() -> ParamSystem:
    """The shipped 16-row system (10 surfaces + 3 symmetry + 3 push-forward)."""
    return ParamSystem(rows=full_system_rows())


@dataclass(frozen=True)
class SolveCertificate:
    solution: TautClass2
    rank: int
    consistent: bool
    residuals: Tuple[PolyQ, ...]
    sample_points: Tuple[Fraction, ...]

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "solution": self.solution.to_json_dict(),
            "rank": self.rank,
            "consistent": self.consistent,
            "residuals": [r.to_strings() for r in self.residuals],
            "sample_points": [str(x) for x in self.sample_points],
        }


def _default_samples(system: ParamSystem) -> Tuple[int, ...]:
    count = max(6, 1 + max((len(row.rhs.num) for row in system.rows), default=0))
    return tuple(range(2, 2 + count))


def _rhs_at(system: ParamSystem, points: Sequence[Fraction]) -> Iterator[List[Fraction]]:
    """The right-hand sides at each point, evaluated in integers.

    With every rhs numerator over one denominator ``den`` and the points
    X / q over another, the value of a rhs of width w at X / q is
    sum_k c_k X^k q^(w-1-k) over den * q^(w-1): one dot product of integers
    per row, and one division.
    """
    coeffs, den = poly_numerators([row.rhs for row in system.rows])
    width = max([1, *map(len, coeffs)])
    [xs], q = clear_denominators([points])
    scale = den * q ** (width - 1)
    for x in xs:
        powers = [x**k * q ** (width - 1 - k) for k in range(width)]
        yield [Fraction(sum(map(mul, c, powers)), scale) for c in coeffs]


def _residuals(system: ParamSystem, solution: TautClass2) -> Tuple[PolyQ, ...]:
    """``row.residual(solution)`` for every row, as one integer matrix action.

    The matrix (whose entries, like ``linalg``'s, may also be strings) is
    cleared of denominators once, and the right-hand sides and the solution
    are read as integer numerators over one denominator each; each residual
    is then an integer polynomial over their common denominator, which
    ``_poly`` reduces once.
    """
    matrix, mden = clear_denominators(
        [[a if type(a) is Fraction else exact(a) for a in row] for row in system.matrix()]
    )
    rhs, rden = poly_numerators([row.rhs for row in system.rows])
    sol, sden = poly_numerators(solution.coeffs)
    den = lcm(mden * sden, rden)
    lhs_scale, rhs_scale = den // (mden * sden), den // rden
    width = max(map(len, sol + rhs), default=0)
    out = []
    for a_row, b in zip(matrix, rhs):
        acc = [0] * width
        for k, c in enumerate(b):
            acc[k] = -c * rhs_scale
        for a, s in zip(a_row, sol):
            if a:
                a *= lhs_scale
                for k, c in enumerate(s):
                    acc[k] += a * c
        out.append(_poly(acc, den))
    return tuple(out)


def solve_parametric(
    system: ParamSystem, samples: Optional[Sequence[int]] = None
) -> SolveCertificate:
    """Solve the system as polynomials in d and certify the result.

    Raises UnderdeterminedSystemError when the coefficient rank is below the
    number of unknowns, and InconsistentSystemError (carrying the offending
    row index) when some sampled system has no solution.  The rank check
    comes first in every solve, so a returned certificate has full rank.
    """
    matrix = system.matrix()
    n_unknowns = len(system.unknowns)
    if samples is None:
        samples = _default_samples(system)
    points = tuple(exact(x) for x in samples)
    per_point = [linalg.solve_unique(matrix, rhs) for rhs in _rhs_at(system, points)]
    solution = TautClass2(interpolate_columns(points, zip(*per_point)))
    residuals = _residuals(system, solution)
    consistent = all(r.is_zero() for r in residuals)
    return SolveCertificate(
        solution=solution,
        rank=n_unknowns,
        consistent=consistent,
        residuals=residuals,
        sample_points=points,
    )


@dataclass(frozen=True)
class DependentRow:
    index: int
    label: str
    combination: Dict[int, Fraction]

    def describe(self, system: ParamSystem) -> str:
        terms = " + ".join(
            f"({coeff}) * {system.rows[k].label}"
            for k, coeff in sorted(self.combination.items())
        )
        return f"{self.label} = {terms}"

    def to_json_dict(self, system: ParamSystem) -> Dict[str, object]:
        return {
            "index": self.index,
            "label": self.label,
            "combination": {
                system.rows[k].label: str(coeff)
                for k, coeff in sorted(self.combination.items())
            },
        }


def redundancy_report(system: ParamSystem) -> List[DependentRow]:
    """Rows expressible as rational combinations of earlier independent rows.

    The shipped 16-row system reports exactly two; they act as checks on the
    whole transcription, since their right-hand sides are forced.
    """
    deps = linalg.row_dependencies(system.matrix())
    return [
        DependentRow(index=i, label=system.rows[i].label, combination=combo)
        for i, combo in deps
    ]
