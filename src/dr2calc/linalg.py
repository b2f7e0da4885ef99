"""Exact dense linear algebra over the rationals for small systems.

Everything here is one Gauss-Jordan kernel, ``_gauss_jordan``, with short
wrappers around it.  The kernel is fraction-free: it eliminates rows scaled
to integers and returns integer rows, so no operation pays for a Fraction's
gcd; ``reduced_echelon`` divides each pivot row by its pivot entry, which
gives exactly the rows of the same elimination over Fraction.  Exact
arithmetic needs no numerical pivoting, so pivots are chosen as the first
nonzero entry in row order; output is therefore deterministic across runs
and platforms.  Every entry passes ``polyq.exact``, the package's input
gate: ints, Fractions or "p/q" strings; another string raises
``ValueError`` and a float ``TypeError``.  A row whose length differs from
row 0's raises ``ValueError`` naming it.  These checks run once per
``GatedMatrix``: ``solve_unique`` and ``row_dependencies`` take one in place
of plain rows and gate it no further, and gate plain rows on every call.

``solve_unique`` and ``row_dependencies`` read the integer row operations
of one elimination of [A | I], memoized by content in a bounded cache;
for ``row_dependencies``, A is the transpose.  The cached values are tuples
of ints and every call builds its own result, so no caller can alter what
the next one gets.  ``rank`` and ``reduced_echelon`` run the kernel on
every call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

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
    """Rows that passed the input gate, cleared to integers once.

    ``ints[i]`` is row i times ``scales[i]``, the lcm of its denominators,
    as a tuple of ints, and ``width`` is the common row length.  The
    constructor is the gate: a ragged row, then a float or a malformed
    string entry, raises as plain rows do.  ``len`` is the row count.
    """

    __slots__ = ("ints", "scales", "width")

    def __init__(self, rows: Sequence[Sequence]):
        self.width = _width(rows)
        ints, scales = _cleared(rows)
        self.ints, self.scales = tuple(map(tuple, ints)), tuple(scales)

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


class _Elimination(NamedTuple):
    pivots: Tuple[int, ...]
    inverse: Tuple[Tuple[int, ...], ...]
    inverse_den: Tuple[int, ...]


@lru_cache(maxsize=32)
def _elimination(rows: Tuple[Tuple[int, ...], ...]) -> _Elimination:
    """Eliminate [rows | I] on the columns of ``rows``, left to right.

    Memoized by content.  The pivot choices depend on the columns of
    ``rows`` alone, so the identity block records the row operations of
    every elimination of [rows | b]: with inverse[i] the identity block of
    the kernel's integer row i and inverse_den[i] its pivot entry, reduced
    row i is sum_k inverse[i][k] * rows[k] / inverse_den[i], and the same
    combination of b is the value of unknown pivots[i].
    """
    n, width = len(rows), _width(rows)
    pivots, m = _gauss_jordan(
        [list(row) + [int(i == k) for i in range(n)] for k, row in enumerate(rows)], range(width)
    )
    return _Elimination(
        pivots=tuple(pivots),
        inverse=tuple(tuple(row[width:]) for row in m[: len(pivots)]),
        inverse_den=tuple(row[col] for row, col in zip(m, pivots)),
    )


def solve_unique(
    rows: Union[GatedMatrix, Sequence[Sequence[Fraction]]], rhs: Sequence[Fraction]
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
    matrix = _gated(rows)
    ncols = matrix.width
    [b], [cden] = _cleared([rhs])
    elim = _elimination(matrix.ints)
    if len(elim.pivots) < ncols:
        raise UnderdeterminedSystemError(f"rank {len(elim.pivots)} < {ncols} unknowns")
    c = [s * x for s, x in zip(matrix.scales, b)]
    # The candidate is point / (den * cden), over the lcm of the pivot
    # entries; lcm is positive, so a negative pivot's sign goes to point.
    den = lcm(*elim.inverse_den)
    point = [0] * ncols
    for pcol, combo, d in zip(elim.pivots, elim.inverse, elim.inverse_den):
        point[pcol] = sum(map(mul, combo, c)) * (den // d)

    # Verify against the original rows so the offending index is meaningful,
    # in integers: A_int[k] . point == c[k] * den.
    for k, (row, ck) in enumerate(zip(matrix.ints, c)):
        if sum(map(mul, row, point)) != ck * den:
            raise InconsistentSystemError(k)
    return [Fraction(x, den * cden) for x in point]


def row_dependencies(
    rows: Union[GatedMatrix, Sequence[Sequence[Fraction]]],
) -> List[Tuple[int, Dict[int, Fraction]]]:
    """Find rows dependent on earlier ones.

    Processing rows in order, the first maximal independent subset is kept;
    each remaining row is returned as ``(index, combo)`` where
    ``rows[index] == sum(combo[k] * rows[k] for k)`` over earlier kept rows.

    With A_int[k] = s_k * A[k] the rows cleared to integers, the cached
    elimination of A_int's transpose has the kept rows as its pivots, and
    row i's coefficient on kept row pivots[j] is s_pivots[j] / s_i times
    sum_k inverse[j][k] * A_int[i][k] / inverse_den[j].
    """
    matrix = _gated(rows)
    scales = matrix.scales
    elim = _elimination(tuple(zip(*matrix.ints)))
    return [
        (i, {
            k: Fraction(y * scales[k], den * scales[i])
            for k, combo, den in zip(elim.pivots, elim.inverse, elim.inverse_den)
            if (y := sum(map(mul, combo, row)))
        })
        for i, row in enumerate(matrix.ints)
        if i not in elim.pivots
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
