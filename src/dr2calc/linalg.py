"""Exact dense linear algebra over the rationals for small systems.

Everything here is one Gauss-Jordan kernel, ``_gauss_jordan``, with short
wrappers around it.  The kernel is fraction-free: it eliminates on rows
scaled to integers and divides by the pivots only at the end, so no
operation pays for a Fraction's gcd, and its results equal those of the
same elimination over Fraction.  Exact arithmetic needs no numerical
pivoting, so pivots are chosen as the first nonzero entry in row order;
output is therefore deterministic across runs and platforms.  Entries may be
ints, Fractions or strings; a float raises ``TypeError``, as in
``polyq.exact``, and a row whose length differs from row 0's raises
``ValueError`` naming it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .polyq import clear_denominators, exact

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


def _width(rows: Sequence[Sequence]) -> int:
    """The common length of the rows; ValueError names the first that differs."""
    width = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} entries, row 0 has {width}")
    return width


def _integer_rows(rows) -> List[List[int]]:
    """Each row times the lcm of its denominators; floats refused first."""
    out = []
    for row in rows:
        [ints], _ = clear_denominators([[x if type(x) is Fraction else exact(x) for x in row]])
        out.append(ints)
    return out


def _gauss_jordan(
    rows: Sequence[List[int]], column_order: Optional[Sequence[int]] = None
) -> Tuple[List[int], List[list]]:
    """Fraction-free Gauss-Jordan elimination of integer rows: the one kernel.

    ``rows`` come from ``_integer_rows`` and are left unchanged.  Columns are
    tried in ``column_order`` (default: left to right); the pivot row is the
    first not-yet-pivoted row that is nonzero there.  With pivot p, a row
    with entry f in the pivot column becomes p*row - f*pivot_row, divided by
    its gcd.  Each integer row is thus a nonzero multiple of the row that
    elimination over Fraction holds at the same step: the zero pattern, the
    pivots and the swaps are the same, and dividing each pivot row by its
    pivot at the end gives exactly the Fraction rows.

    Returns the pivot columns and the rows: row i < len(pivots) holds
    Fractions, 1 at pivots[i] and 0 at every other pivot; the rows after
    them are integer rows, zero on every column tried.
    """
    m = list(rows)
    width = _width(m)
    if column_order is None:
        column_order = range(width)
    pivots: List[int] = []
    for col in column_order:
        r = len(pivots)
        if r == len(m):
            break
        pick = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        prow = m[r]
        p = prow[col]
        for i in range(len(m)):
            f = m[i][col]
            if f and i != r:
                row = [p * a - f * b for a, b in zip(m[i], prow)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    zero = Fraction(0)
    for i, col in enumerate(pivots):
        lead = m[i][col]
        m[i] = [Fraction(x, lead) if x else zero for x in m[i]]
    return pivots, m


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the matrix."""
    return len(_gauss_jordan(_integer_rows(rows))[0])


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
    ncols = _width(rows)
    augmented = _integer_rows([list(row) + [b] for row, b in zip(rows, rhs)])
    pivots, m = _gauss_jordan(augmented, range(ncols))
    if len(pivots) < ncols:
        raise UnderdeterminedSystemError(f"rank {len(pivots)} < {ncols} unknowns")
    solution = [Fraction(0)] * ncols
    for prow, pcol in zip(m, pivots):
        solution[pcol] = prow[-1]

    # Verify against the original rows so the offending index is meaningful,
    # in integers: with solution = X / den, row . X == rhs * den.
    [point] = _integer_rows([solution + [-1]])
    for k, row in enumerate(augmented):
        if sum(map(mul, row, point)):
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
    _width(rows)
    pivots, m = _gauss_jordan(_integer_rows(zip(*rows)))
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
    pivots, m = _gauss_jordan(_integer_rows(rows), column_order)
    if any(any(r) for r in m[len(pivots):]):
        raise LinearSystemError("column order did not sweep all pivots")
    return list(zip(pivots, m))
