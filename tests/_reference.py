"""References over Fraction that the tests hold the package's integer kernels
to: Gauss-Jordan elimination, for the fraction-free kernel and the
quotient-ring tables, and Lagrange interpolation, for ``interpolate_columns``."""

from fractions import Fraction


def fraction_gauss_jordan(rows, column_order=None):
    """Reduced echelon form over Fraction, pivots tried on the columns of
    column_order (all columns, left to right, by default): the pivot columns
    and the rows, pivot rows first."""
    m = [[Fraction(x) for x in row] for row in rows]
    if column_order is None:
        column_order = range(len(m[0]) if m else 0)
    pivots = []
    for col in column_order:
        r = len(pivots)
        if r == len(m):
            break
        pick = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        lead = m[r][col]
        m[r] = [x / lead for x in m[r]]
        prow = m[r]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], prow)]
        pivots.append(col)
    return pivots, m


def fraction_lagrange(xs, ys):
    """The ascending Fraction coefficients of the polynomial of degree < n
    through (xs[i], ys[i]): the sum of ys[i] times point i's Lagrange
    polynomial, each expanded factor by factor over Fraction."""
    xs = [Fraction(x) for x in xs]
    out = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        for j, xj in enumerate(xs):
            if j != i:
                # basis * (d - xj) / (xi - xj)
                shifted = [Fraction(0)] + basis
                scaled = [-xj * b for b in basis] + [Fraction(0)]
                basis = [(a + b) / (xi - xj) for a, b in zip(shifted, scaled)]
        out = [o + Fraction(yi) * b for o, b in zip(out, basis)]
    return out
