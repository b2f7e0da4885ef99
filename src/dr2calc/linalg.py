"""Exact dense linear algebra over the rationals for small systems.

Everything here is one Gauss-Jordan kernel, ``_gauss_jordan``, and the
record of its elimination, ``GatedMatrix``, which every elimination in the
package reads: ``solve_unique``, ``row_dependencies`` and the quotient rings
of ``chow.QuotientReducer``.  The kernel is fraction-free: it eliminates
rows scaled to integers and returns integer rows, so no operation pays for a
Fraction's gcd.  Exact arithmetic needs no numerical pivoting, so pivots are
chosen as the first nonzero entry in row order; output is therefore
deterministic across runs and platforms.  Every entry passes
``polyq.exact``, the package's input gate: ints, Fractions or "p/q"
strings; another string raises ``ValueError`` and a float ``TypeError``.  A row whose length differs from
row 0's raises ``ValueError`` naming it.  These checks run once per
``GatedMatrix``: ``solve_unique`` and ``row_dependencies`` take one in place
of plain rows and gate it no further, and gate plain rows on every call.

``solve_unique`` and ``row_dependencies`` read one elimination of
[A | I], run once when a ``GatedMatrix`` is built: its pivots, its row
operations as integers over one positive denominator, and its left null
space in reduced echelon form, one vector per dependent row, all in the
terms of the rows as given.  The stored values are tuples of ints and every
call builds its own result, so no caller can alter what the next one gets.
``rank`` and ``reduced_echelon``, kept only for ``perfbench/spans.py``,
run the kernel on every call.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .polyq import clear_denominators, exact

Row = List[Fraction]


class LinearSystemError(Exception):
    pass


class UnderdeterminedSystemError(LinearSystemError):
    """Raised when a system has fewer independent rows than unknowns."""


class InconsistentSystemError(LinearSystemError):
    """Raised when a row contradicts the rest of the system."""

    def __init__(self, row_index: int):
        self.row_index = row_index
        super().__init__(f"system is inconsistent at row {row_index}")


def _width(rows: Sequence[Sequence]) -> int:
    """The common length of the rows; ValueError names the first that differs."""
    width = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} entries, row 0 has {width}")
    return width


def _cleared(rows) -> Tuple[List[List[int]], List[int]]:
    """Each row times the lcm of its denominators, and those lcms; entries may
    be ints, Fractions or "p/q" strings, and a float raises TypeError naming it."""
    cleared = [clear_denominators([[exact(x) for x in row]]) for row in rows]
    return [ints for [ints], _ in cleared], [den for _, den in cleared]


class GatedMatrix:
    """Rows that passed the input gate, cleared to integers and eliminated once.

    ``ints[i]`` is row i times ``scales[i]``, the lcm of its denominators,
    as a tuple of ints, and ``width`` is the common row length.  The
    constructor is the gate: a ragged row, then a float or a malformed
    string entry, raises as plain rows do.  ``len`` is the row count.

    The constructor then eliminates [A | I], A the rows as given, with each
    row times its scale: [ints | diag(scales)], on the columns of ``ints``,
    left to right.  The pivot choices depend on those columns alone, so the
    right block records, in the terms of A, the row operations of every
    elimination of [A | b]: ``den`` is one positive integer, the lcm of the
    pivot entries, and with inverse[i] an integer row, reduced row i is
    sum_k inverse[i][k] * A[k] / den, and the same combination of b is the
    value of unknown pivots[i].  The right blocks of the rows left zero on
    ``ints`` span the left null space of A; ``null_space`` holds them in
    reduced echelon form, columns tried from the last row back, as (i, v)
    pairs in row order.  Each pivot i is a row dependent on earlier ones,
    and v is nonzero at i, zero at every later row and at every other
    dependent row, and sum_k v[k] * A[k] = 0.
    """

    __slots__ = ("ints", "scales", "width", "pivots", "den", "inverse", "null_space")

    def __init__(self, rows: Sequence[Sequence]):
        self.width = width = _width(rows)
        ints, scales = _cleared(rows)
        self.ints, self.scales = tuple(map(tuple, ints)), tuple(scales)
        n = len(ints)
        augmented = [row + [s * (i == k) for i in range(n)] for k, (row, s) in enumerate(zip(ints, scales))]
        pivots, m = _gauss_jordan(augmented, range(width))
        self.pivots = tuple(pivots)
        leads = [row[col] for row, col in zip(m, pivots)]
        self.den = den = lcm(*leads)
        self.inverse = tuple(tuple(x * (den // p) for x in row[width:]) for row, p in zip(m, leads))
        dependent, null = _gauss_jordan([row[width:] for row in m[len(pivots):]], range(n - 1, -1, -1))
        self.null_space = tuple(sorted(zip(dependent, map(tuple, null))))

    def __len__(self) -> int:
        return len(self.ints)


def _gated(rows) -> GatedMatrix:
    return rows if isinstance(rows, GatedMatrix) else GatedMatrix(rows)


def _gauss_jordan(
    rows: Sequence[List[int]], column_order: Optional[Sequence[int]] = None
) -> Tuple[List[int], List[List[int]]]:
    """Fraction-free Gauss-Jordan elimination of integer rows: the one kernel.

    ``rows`` come from ``_cleared`` and are left unchanged.  Columns are
    tried in ``column_order`` (default: left to right); the pivot row is the
    first not-yet-pivoted row that is nonzero there.  With pivot p, a row
    with entry f in the pivot column becomes p*row - f*pivot_row, divided by
    its gcd.  Each integer row is thus a nonzero multiple of the row that
    elimination over Fraction holds at the same step: the zero pattern, the
    pivots and the swaps are the same.

    Returns the pivot columns and the integer rows: row i < len(pivots) is
    0 at every other pivot, and divided by its entry at pivots[i] it is the
    Fraction elimination's row; the later rows are 0 on every column tried.
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
    return pivots, m


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the matrix."""
    return len(_gauss_jordan(_cleared(rows)[0])[0])


def solve_unique(
    rows: Union[GatedMatrix, Sequence[Sequence[Fraction]]], rhs: Sequence[Fraction]
) -> List[Fraction]:
    """Solve a (possibly overdetermined) system with a unique solution.

    Raises UnderdeterminedSystemError if the coefficient rank is below the
    number of unknowns, and InconsistentSystemError naming the first original
    row that the candidate solution fails to satisfy.

    The matrix's ``inverse`` gives each unknown as one integer combination
    of the right-hand side over ``den``: the candidate that eliminating
    [A | b] gives.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    if not rows:
        raise UnderdeterminedSystemError("empty system")
    matrix = _gated(rows)
    ncols = matrix.width
    [b], [cden] = _cleared([rhs])
    if len(matrix.pivots) < ncols:
        raise UnderdeterminedSystemError(f"rank {len(matrix.pivots)} < {ncols} unknowns")
    # At full rank the pivots are the columns in order, so the candidate's
    # unknown j is inverse[j] . b / (den * cden), b here the cleared rhs.
    point = [sum(map(mul, combo, b)) for combo in matrix.inverse]

    # Verify against the original rows so the offending index is meaningful,
    # in integers: with ints[k] = scales[k] * A[k], ints[k] . point must be
    # scales[k] * b[k] * den.
    for k, (row, s, bk) in enumerate(zip(matrix.ints, matrix.scales, b)):
        if sum(map(mul, row, point)) != s * bk * matrix.den:
            raise InconsistentSystemError(k)
    return [Fraction(x, matrix.den * cden) for x in point]


def row_dependencies(
    rows: Union[GatedMatrix, Sequence[Sequence[Fraction]]],
) -> List[Tuple[int, Dict[int, Fraction]]]:
    """Find rows dependent on earlier ones.

    Processing rows in order, the first maximal independent subset is kept;
    each remaining row is returned as ``(index, combo)`` where
    ``rows[index] == sum(combo[k] * rows[k] for k)`` over earlier kept rows.

    The dependent rows are the pivots of the matrix's ``null_space``.  Row
    i's vector v has sum_k v[k] * A[k] = 0, is zero after row i, and is
    nonzero before it only at kept rows, so A[i] is the sum over k < i of
    -v[k] / v[i] times A[k].
    """
    return [
        (i, {k: Fraction(-v[k], v[i]) for k in range(i) if v[k]})
        for i, v in _gated(rows).null_space
    ]


def reduced_echelon(
    rows: Sequence[Sequence[Fraction]], column_order: Sequence[int]
) -> List[Tuple[int, Row]]:
    """Full reduced row echelon form with pivot columns tried in a given order.

    Returns ``(pivot_col, row)`` pairs where each row is normalized to 1 at
    its pivot and zero at every other pivot column.
    """
    pivots, m = _gauss_jordan(_cleared(rows)[0], column_order)
    if any(any(r) for r in m[len(pivots):]):
        raise LinearSystemError("column order did not sweep all pivots")
    return [(col, [Fraction(x, row[col]) for x in row]) for col, row in zip(pivots, m)]
