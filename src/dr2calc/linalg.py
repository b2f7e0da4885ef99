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
``ValueError`` naming it.  Both checks run on every call.

Eliminations that ``solve_unique`` and ``row_dependencies`` read are
memoized by content in one bounded cache, keyed by the coefficient rows
cleared to integers: the elimination of [A | I] records the row operations
once, and each call applies them to its own right-hand side.  The cached
values are tuples and every call builds its own result, so no caller can
alter what the next one gets.  ``rank`` and ``reduced_echelon`` run the
kernel on every call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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


def _cleared(rows) -> Tuple[List[List[int]], List[int]]:
    """Each row times the lcm of its denominators, and those lcms; entries may
    be ints, Fractions or strings, and a float raises TypeError naming it."""
    out, scales = [], []
    for row in rows:
        [ints], den = clear_denominators([[x if type(x) is Fraction else exact(x) for x in row]])
        out.append(ints)
        scales.append(den)
    return out, scales


def _integer_rows(rows) -> List[List[int]]:
    """Each row times the lcm of its denominators; floats refused first."""
    return _cleared(rows)[0]


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


class _Elimination(NamedTuple):
    pivots: Tuple[int, ...]
    inverse: Tuple[Tuple[int, ...], ...]
    inverse_den: Tuple[int, ...]
    dependencies: Tuple[Tuple[int, Tuple[Tuple[int, Fraction], ...]], ...]


@lru_cache(maxsize=32)
def _elimination(rows: Tuple[Tuple[int, ...], ...]) -> _Elimination:
    """Eliminate [rows | I] on the columns of ``rows``, left to right.

    Memoized by content.  The pivot choices depend on the columns of
    ``rows`` alone, so the identity block records the row operations of
    every elimination of [rows | b]: reduced row i is
    sum_k inverse[i][k] * rows[k] / inverse_den[i], and the same combination
    of b is the value of unknown pivots[i].  The identity block's rows below
    the pivots span the y with y . rows == 0; in their reduced echelon form,
    with columns tried from the last row to the first, the pivots are
    exactly the rows that depend on earlier ones, and the vector with pivot
    i is 1 at i and otherwise supported on earlier independent rows.
    ``dependencies`` holds each such i with ((k, -y_k), ...): rows[i] ==
    sum(-y_k * rows[k]).
    """
    n, width = len(rows), _width(rows)
    pivots, m = _gauss_jordan(
        [list(row) + [int(i == k) for i in range(n)] for k, row in enumerate(rows)], range(width)
    )
    r = len(pivots)
    inverse, dens = _cleared(row[width:] for row in m[:r])
    deps, null = _gauss_jordan([row[width:] for row in m[r:]], range(n - 1, -1, -1))
    return _Elimination(
        pivots=tuple(pivots),
        inverse=tuple(map(tuple, inverse)),
        inverse_den=tuple(dens),
        dependencies=tuple(
            (i, tuple((k, -y) for k, y in enumerate(row[:i]) if y))
            for i, row in sorted(zip(deps, null))
        ),
    )


def solve_unique(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> List[Fraction]:
    """Solve a (possibly overdetermined) system with a unique solution.

    Raises UnderdeterminedSystemError if the coefficient rank is below the
    number of unknowns, and InconsistentSystemError naming the first original
    row that the candidate solution fails to satisfy.

    With A_int the rows cleared to integers, A_int[k] = s_k * A[k], the
    system is A_int x = s * b.  The cached elimination of [A_int | I] gives
    each unknown as one integer combination of the scaled right-hand side,
    divided once: the candidate that eliminating [A | b] gives.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    if not rows:
        raise UnderdeterminedSystemError("empty system")
    ncols = _width(rows)
    ints, scales = _cleared(rows)
    [b], [cden] = _cleared([rhs])
    elim = _elimination(tuple(map(tuple, ints)))
    if len(elim.pivots) < ncols:
        raise UnderdeterminedSystemError(f"rank {len(elim.pivots)} < {ncols} unknowns")
    c = [s * x for s, x in zip(scales, b)]
    solution = [Fraction(0)] * ncols
    for pcol, combo, den in zip(elim.pivots, elim.inverse, elim.inverse_den):
        solution[pcol] = Fraction(sum(map(mul, combo, c)), den * cden)

    # Verify against the original rows so the offending index is meaningful,
    # in integers: with solution = X / xden, A_int[k] . X * cden == c[k] * xden.
    [point], xden = clear_denominators([solution])
    for k, (row, ck) in enumerate(zip(ints, c)):
        if sum(map(mul, row, point)) * cden != ck * xden:
            raise InconsistentSystemError(k)
    return solution


def row_dependencies(
    rows: Sequence[Sequence[Fraction]],
) -> List[Tuple[int, Dict[int, Fraction]]]:
    """Find rows dependent on earlier ones.

    Processing rows in order, the first maximal independent subset is kept;
    each remaining row is returned as ``(index, combo)`` where
    ``rows[index] == sum(combo[k] * rows[k] for k)`` over earlier kept rows.
    Read off the cached elimination that ``solve_unique`` uses, with the
    integer combination rescaled by the rows' clearing factors.
    """
    _width(rows)
    ints, scales = _cleared(rows)
    return [
        (i, {k: y * scales[k] / scales[i] for k, y in combo})
        for i, combo in _elimination(tuple(map(tuple, ints))).dependencies
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
