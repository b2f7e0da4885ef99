"""Exact dense linear algebra over Fraction for small systems.

Everything here is one Gauss-Jordan kernel, ``_gauss_jordan``, with short
wrappers around it.  Exact arithmetic needs no numerical pivoting, so pivots
are chosen as the first nonzero entry in row order; output is therefore
deterministic across runs and platforms.  Entries may be ints, Fractions or
strings; a float raises ``TypeError``, as in ``polyq.exact``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .polyq import exact

Row = List[Fraction]


class LinearSystemError(Exception):
    pass


class UnderdeterminedSystemError(LinearSystemError):
    """Raised when a system has fewer independent rows than unknowns."""


class InconsistentSystemError(LinearSystemError):
    """Raised when a row contradicts the rest of the system."""

    def __init__(self, row_index: int, message: Optional[str] = None):
        self.row_index = row_index
        super().__init__(message or f"system is inconsistent at row {row_index}")


def _gauss_jordan(
    rows: Sequence[Sequence[Fraction]], column_order: Optional[Sequence[int]] = None
) -> Tuple[List[int], List[Row]]:
    """Gauss-Jordan elimination on a copy of the rows: the one kernel.

    Columns are tried in ``column_order`` (default: left to right); the pivot
    row is the first not-yet-pivoted row that is nonzero there.  Returns the
    pivot columns and the reduced rows: row i < len(pivots) is 1 at
    pivots[i] and 0 at every other pivot; the rows after them are zero on
    every column tried.
    """
    m = [[x if type(x) is Fraction else exact(x) for x in row] for row in rows]
    if column_order is None:
        column_order = range(len(m[0]) if m else 0)
    pivots: List[int] = []
    for col in column_order:
        r = len(pivots)
        if r == len(m):
            break
        pick = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        lead = m[r][col]
        if lead != 1:
            m[r] = [x / lead for x in m[r]]
        prow = m[r]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], prow)]
        pivots.append(col)
    return pivots, m


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the matrix."""
    return len(_gauss_jordan(rows)[0])


def solve_unique(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> List[Fraction]:
    """Solve a (possibly overdetermined) system with a unique solution.

    Raises UnderdeterminedSystemError if the coefficient rank is below the
    number of unknowns, and InconsistentSystemError naming the first original
    row that the candidate solution fails to satisfy.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    if not rows:
        raise UnderdeterminedSystemError("empty system")
    ncols = len(rows[0])
    pivots, m = _gauss_jordan(
        [list(row) + [b] for row, b in zip(rows, rhs)], range(ncols)
    )
    if len(pivots) < ncols:
        raise UnderdeterminedSystemError(f"rank {len(pivots)} < {ncols} unknowns")
    solution = [Fraction(0)] * ncols
    for prow, pcol in zip(m, pivots):
        solution[pcol] = prow[-1]

    # Verify against the original rows so the offending index is meaningful.
    for k, (row, target) in enumerate(zip(rows, rhs)):
        acc = sum((exact(a) * x for a, x in zip(row, solution)), Fraction(0))
        if acc != exact(target):
            raise InconsistentSystemError(k)
    return solution


def row_dependencies(
    rows: Sequence[Sequence[Fraction]],
) -> List[Tuple[int, Dict[int, Fraction]]]:
    """Find rows dependent on earlier ones.

    Processing rows in order, the first maximal independent subset is kept;
    each remaining row is returned as ``(index, combo)`` where
    ``rows[index] == sum(combo[k] * rows[k] for k)`` over earlier kept rows.
    Read off the reduced echelon form of the transpose: its pivot columns
    are the kept rows, and every other column holds the combination.
    """
    pivots, m = _gauss_jordan([list(col) for col in zip(*rows)])
    kept = set(pivots)
    return [
        (idx, {pivots[i]: m[i][idx] for i in range(len(pivots)) if m[i][idx] != 0})
        for idx in range(len(rows))
        if idx not in kept
    ]


def reduced_echelon(
    rows: Sequence[Sequence[Fraction]], column_order: Sequence[int]
) -> List[Tuple[int, Row]]:
    """Full reduced row echelon form with pivot columns tried in a given order.

    Returns ``(pivot_col, row)`` pairs where each row is normalized to 1 at
    its pivot and zero at every other pivot column.
    """
    pivots, m = _gauss_jordan(rows, column_order)
    if any(any(x != 0 for x in r) for r in m[len(pivots):]):
        raise LinearSystemError("column order did not sweep all pivots")
    return list(zip(pivots, m))
