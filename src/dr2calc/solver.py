"""Parametric solution of the 16-equation system in the cover degree d.

The coefficient matrix is d-independent; all d-dependence sits in the
right-hand sides, which are polynomials of degree at most 4.  The solve
strategy is sample-then-interpolate:

  1. solve the rational system exactly at enough integer sample degrees;
     each solve certifies that the coefficient rank equals the unknown count;
  2. interpolate each unknown to a polynomial;
  3. re-substitute and demand a zero residual for every row, symbolically.

Step 3 is a genuine polynomial-identity proof, not a spot check: any
residual is a polynomial of degree at most max(deg solution, deg rhs) that
vanishes at all sample points, so with at least deg + 2 samples it can only
be the zero polynomial.  By default the samples are the consecutive
degrees d = 2, 3, ..., max(6, deg + 2) of them, where deg is the largest
right-hand-side degree (one less than its coefficient count).  The solution
polynomials are defined for all d, and their value at d = 1 is the zero
vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .chow import BASIS_NAMES, TautClass2
from .linalg import InconsistentSystemError, UnderdeterminedSystemError
from .polyq import PolyQ, exact, poly_interpolate
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
    count = max(6, 1 + max((len(row.rhs.coeffs) for row in system.rows), default=0))
    return tuple(range(2, 2 + count))


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
    per_point: List[List[Fraction]] = []
    for x in points:
        rhs = [row.rhs(x) for row in system.rows]
        per_point.append(linalg.solve_unique(matrix, rhs))

    solution = TautClass2(
        poly_interpolate(zip(points, (sol[k] for sol in per_point)))
        for k in range(n_unknowns)
    )
    residuals = tuple(row.residual(solution) for row in system.rows)
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
