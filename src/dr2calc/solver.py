"""Parametric solution of the 16-equation system in the cover degree d.

The coefficient matrix is d-independent; all d-dependence sits in the
right-hand sides, which are polynomials of degree at most 4.  The solve
strategy is sample-then-interpolate:

  1. evaluate every right-hand side at each sample point (``row.rhs(x)``),
     and solve the rational system exactly at each point with
     ``linalg.solve_unique``; each solve certifies that the coefficient rank
     equals the unknown count.  The coefficient matrix is gated and
     eliminated once per solve, and once per fixture load for the shipped
     rows (``surfaces.gated_matrix``), so each sample only gates its
     right-hand side and applies the stored row operations to it;
  2. interpolate all unknowns in one call, ``polyq.interpolate_columns``,
     which builds the point basis once for the sample set;
  3. re-substitute and demand a zero residual for every row, symbolically:
     ``row.residual(solution)``, the row applied to the solution minus its
     right-hand side.

Steps 1 and 2 only produce a candidate; the proof of consistency comes
from step 3.  A zero symbolic residual on all 16 rows is a polynomial
identity: the interpolated solution satisfies every equation for every d,
not only at the samples.  On a consistent system it cannot fail once there
are n >= deg + 1 samples, where deg is the largest right-hand-side degree:
the interpolated solution has degree at most n - 1, so each residual is a
polynomial of degree at most n - 1 that vanishes at all n sample points,
and is therefore the zero polynomial.  Fewer samples (but at least one) are
refused with a ValueError, since they could report a consistent system as
inconsistent.

By default the samples are the consecutive degrees d = 2, 3, ...,
max(6, deg + 2) of them.  The solution polynomials are defined for all d,
and their value at d = 1 is the zero vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .chow import BASIS_NAMES, TautClass2
from .linalg import InconsistentSystemError, UnderdeterminedSystemError
from .polyq import PolyQ, Scalar, exact, interpolate_columns
from .surfaces import EquationRow, full_system_rows, gated_matrix

__all__ = [
    "ParamSystem",
    "SolveCertificate",
    "solve_parametric",
    "redundancy_report",
    "full_system",
    "InconsistentSystemError",
    "UnderdeterminedSystemError",
]


class ParamSystem(NamedTuple):
    """Rows with constant rational coefficients and polynomial right-hand sides."""

    rows: Tuple[EquationRow, ...]
    unknowns = BASIS_NAMES


def full_system() -> ParamSystem:
    """The shipped 16-row system (10 surfaces + 3 symmetry + 3 push-forward)."""
    return ParamSystem(rows=full_system_rows())


# A dataclass, not a NamedTuple: the benchmark's tests call
# dataclasses.replace on a certificate.
@dataclass(frozen=True)
class SolveCertificate:
    solution: TautClass2
    rank: int
    consistent: bool
    residuals: Tuple[PolyQ, ...]
    sample_points: Tuple[Scalar, ...]

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "solution": self.solution.to_json_dict(),
            "rank": self.rank,
            "consistent": self.consistent,
            "residuals": [r.to_strings() for r in self.residuals],
            "sample_points": [str(x) for x in self.sample_points],
        }


def solve_parametric(
    system: ParamSystem, samples: Optional[Sequence[int]] = None
) -> SolveCertificate:
    """Solve the system as polynomials in d and certify the result.

    Raises UnderdeterminedSystemError when the coefficient rank is below the
    number of unknowns, and InconsistentSystemError (carrying the offending
    row index) when some sampled system has no solution.  The rank check
    comes first in every solve, so a returned certificate has full rank.
    Raises ValueError on an empty sample set and on one smaller than the
    deg + 1 points that interpolating the solution takes.
    """
    needed = max((len(row.rhs.num) for row in system.rows), default=0)
    if samples is None:
        samples = range(2, 2 + max(6, needed + 1))
    points = tuple(exact(x) for x in samples)
    if 0 < len(points) < needed:
        raise ValueError(
            f"at least {needed} samples are needed for right-hand sides of degree"
            f" {needed - 1}, got {len(points)}"
        )
    # no gate before the interpolation refuses an empty sample set
    matrix = gated_matrix(system.rows) if points else None
    per_point = [linalg.solve_unique(matrix, [row.rhs(x) for row in system.rows]) for x in points]
    solution = TautClass2(interpolate_columns(points, zip(*per_point)))
    residuals = tuple(row.residual(solution) for row in system.rows)
    return SolveCertificate(
        solution=solution,
        rank=len(system.unknowns),
        consistent=all(r.is_zero() for r in residuals),
        residuals=residuals,
        sample_points=points,
    )


class DependentRow(NamedTuple):
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
    whole transcription, since their right-hand sides are forced.  They are
    read off the left null space that the gated matrix's one elimination
    keeps, so no call eliminates again.
    """
    deps = linalg.row_dependencies(gated_matrix(system.rows))
    return [
        DependentRow(index=i, label=system.rows[i].label, combination=combo)
        for i, combo in deps
    ]
