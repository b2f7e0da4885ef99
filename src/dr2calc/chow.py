"""Degree-1 and degree-2 tautological classes on the 2-pointed genus-2 space.

The divisor generators, in fixed order, are

    psi1, psi2, d0, d2, d11, d12

where psi_i are the cotangent classes at the markings, d0 is the irreducible
nodal divisor, d2 the divisor whose general member is a genus-2 curve with a
rational 2-marked tail, d11 the divisor of two 1-marked elliptic components,
and d12 the divisor of two elliptic components with both markings on one.

The degree-2 group is the span of the 21 unordered products of these six
generators modulo seven relations (Getzler); the quotient is 14-dimensional.
We use the basis

    psi1*psi2, psi1^2+psi2^2, psi1*d11, psi2*d11, psi1*d12, psi2*d12,
    psi1*d0, psi2*d0, d2^2, d12*d2, d0*d2, d0*d11, d0*d12, d0^2

with the symmetric combination psi1^2+psi2^2 fused into a single coordinate
(the antisymmetric combination psi1^2-psi2^2 is eliminated by the relation
(psi1-psi2)(10psi1+10psi2-2d11-12d12-d0) = 0).  The ring is one
``QuotientReducer``, built at import: reductions and divisor products both
read its one table, the class of each of the 21 monomials as integers over
one common denominator (60), so two expressions differing by a relation
reduce identically.  The compact-type ring of ``ct`` is a
``QuotientReducer`` of its own relations and basis.

A ``TautClass2`` is the 14-vector of coefficients in this basis, each entry a
polynomial in the cover degree d.  A ``DivisorM22`` is the 6-vector of divisor
coefficients.  All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, Mapping, Sequence, Tuple

from .linalg import GatedMatrix
from .polyq import ZERO, PolyLike, PolyQ, PolyVector, _const, _echo, _poly, _require_type, as_poly, parse_rational
from .polyq import poly_numerators

GENERATORS = ("psi1", "psi2", "d0", "d2", "d11", "d12")
PSI1, PSI2, D0, D2, D11, D12 = range(6)

Monomial = Tuple[int, int]


def mono(i: int, j: int) -> Monomial:
    """Unordered degree-2 monomial in the generators: mono(i, j) == mono(j, i)."""
    return (i, j) if i <= j else (j, i)


MONOMIALS: Tuple[Monomial, ...] = tuple(
    (i, j) for i in range(6) for j in range(i, 6)
)


# Basis slot order; names are the wire format used by the JSON emitters.
BASIS_NAMES = (
    "psi1psi2",
    "psi1sq+psi2sq",
    "psi1d11",
    "psi2d11",
    "psi1d12",
    "psi2d12",
    "psi1d0",
    "psi2d0",
    "d2sq",
    "d12d2",
    "d0d2",
    "d0d11",
    "d0d12",
    "d0sq",
)
FUSED_SLOT = 1

# Generator pairs paired against each basis slot (the fused slot carries two).
BASIS_MONOMIALS: Tuple[Tuple[Monomial, ...], ...] = (
    (mono(PSI1, PSI2),),
    (mono(PSI1, PSI1), mono(PSI2, PSI2)),
    (mono(PSI1, D11),),
    (mono(PSI2, D11),),
    (mono(PSI1, D12),),
    (mono(PSI2, D12),),
    (mono(PSI1, D0),),
    (mono(PSI2, D0),),
    (mono(D2, D2),),
    (mono(D12, D2),),
    (mono(D0, D2),),
    (mono(D0, D11),),
    (mono(D0, D12),),
    (mono(D0, D0),),
)

Expr = Dict[Monomial, PolyQ]


def expand_product(a: Sequence[PolyLike], b: Sequence[PolyLike]) -> Expr:
    """Formal expansion of a product of two divisor coefficient 6-vectors."""
    out: Expr = {}
    for i, ai in enumerate(a):
        pi = as_poly(ai)
        if pi.is_zero():
            continue
        for j, bj in enumerate(b):
            pj = as_poly(bj)
            if pj.is_zero():
                continue
            m = mono(i, j)
            out[m] = out.get(m, PolyQ()) + pi * pj
    return {m: c for m, c in out.items() if not c.is_zero()}


def _build_relations() -> Tuple[Expr, ...]:
    psi1, psi2, d0 = (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)
    d2, d11, d12 = (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)
    both_elliptic = (0, 0, 1, 0, 12, 12)  # 12*d11 + 12*d12 + d0
    psi_sum_d11 = (1, 1, 0, 0, 1, 0)  # psi1 + psi2 + d11
    psi_diff = (1, -1, 0, 0, 0, 0)
    mixed = (10, 10, -1, 0, -2, -12)
    return (
        expand_product(d12, both_elliptic),
        expand_product(d11, both_elliptic),
        expand_product(d11, psi_sum_d11),
        expand_product(psi1, d2),
        expand_product(psi2, d2),
        expand_product(d11, d2),
        expand_product(psi_diff, mixed),
    )


#: The seven degree-2 relations; each reduces to the zero class.
RELATIONS: Tuple[Expr, ...] = _build_relations()

# ---------------------------------------------------------------------------
# Class vectors.
# ---------------------------------------------------------------------------


class TautClass2(PolyVector):
    """A degree-2 tautological class: 14 polynomial coefficients in the basis."""

    __slots__ = ()
    names = BASIS_NAMES

    @classmethod
    def from_json_dict(cls, data: Dict[str, list]) -> "TautClass2":
        """Read ``to_json_dict`` output: an object of ``parse_rational`` string lists."""
        if not isinstance(data, dict):
            raise ValueError(f"class JSON must be an object, got {_echo(data)}")
        slots = {}
        for name, value in data.items():
            if name not in cls.names:
                raise ValueError(f"unknown basis name in class JSON: {_echo(name)}")
            if not isinstance(value, list):
                raise ValueError(f"{name!r} must be a list of rational strings, got {_echo(value)}")
            slots[name] = PolyQ(parse_rational(x, repr(name)) for x in value)
        return cls(slots.get(name, PolyQ()) for name in cls.names)


class DivisorM22(PolyVector):
    """A divisor class: 6 coefficients on (psi1, psi2, d0, d2, d11, d12)."""

    __slots__ = ()
    names = GENERATORS


# ---------------------------------------------------------------------------
# Reduction onto a quotient basis.
# ---------------------------------------------------------------------------


class QuotientReducer:
    """Reduces formal combinations of the 21 monomials to a quotient basis.

    Built from data: the vector class of the quotient, its relations (a
    monomial killed outright is a one-term relation), and its basis (the
    monomials whose sum is each slot's basis element).  One ``GatedMatrix``
    of the 21-column rows, slot k's monomial sum as row k and then the
    relations, records the elimination on the monomial columns: the
    monomial m at ``pivots[i]`` equals the combination ``inverse[i]`` of the
    rows over the matrix's ``den``, and as the relations are zero, its class
    is sum_{k < dim} inverse[i][k] * e_k / den.  Construction raises
    ``ValueError`` when a ``null_space`` vector is nonzero on a basis row
    (the basis is dependent modulo the relations), and then unless the rows
    span all 21 monomials.

    The class of every monomial is kept over one common denominator ``den``,
    the matrix's ``den`` divided by its gcd with every basis entry of
    ``inverse``, in one table, ``rows``: ``rows[m]`` lists the nonzero
    ``(slot, n)`` of den * [m], and is empty for a killed monomial.  Reductions
    (``__call__``) and products (``multiply``) both read the polynomials'
    integer numerators over one denominator and fill one accumulator: a
    zeroed integer list per slot, as wide as the result, into which each
    table weight times each coefficient (or coefficient product) is added in
    a single pass over ``rows``.  A product takes monomial (i, j) as
    x_i y_j and, off the diagonal, x_j y_i too.  One finisher, ``_finish``,
    hands each list and the common denominator to ``polyq._poly``, which
    reduces them (the shared zero polynomial in every empty slot), and
    builds the vector with ``_of``.

    A product of two constant factors (no coefficient whose ``num`` has
    more than one entry) keeps one integer per slot instead.  It takes x_i
    and y_j straight from each coefficient's ``num[0]`` and ``den``, over
    one ``math.lcm`` per factor, without ``poly_numerators``; the same pass
    over ``rows`` adds weight * (x_i y_j + x_j y_i), or weight * x_i y_i on
    the diagonal, and ``polyq._const`` builds each slot.
    """

    def __init__(
        self,
        vector_cls: type,
        relations: Sequence[Mapping[Monomial, PolyLike]],
        basis: Sequence[Tuple[Monomial, ...]],
    ):
        self.vector_cls = vector_cls
        n, dim = len(MONOMIALS), len(basis)
        column = {m: k for k, m in enumerate(MONOMIALS)}
        rows = []
        for expr in [dict.fromkeys(slot, 1) for slot in basis] + list(relations):
            row = [0] * n
            for m, c in expr.items():
                row[column[m]] += as_poly(c).constant_value()
            rows.append(row)
        matrix = GatedMatrix(rows)
        if any(any(v[:dim]) for _, v in matrix.null_space):
            raise ValueError("basis is dependent modulo the relations")
        if len(matrix.pivots) != n:
            raise ValueError(f"relations and basis span {len(matrix.pivots)} of the {n} monomials")

        # The class of the monomial at pivots[i] is inverse[i][:dim] / den,
        # kept over the least denominator that serves every monomial.
        g = gcd(matrix.den, *(v for combo in matrix.inverse for v in combo[:dim]))
        self.den = matrix.den // g
        self.rows = {
            MONOMIALS[col]: tuple((k, v // g) for k, v in enumerate(combo[:dim]) if v)
            for col, combo in zip(matrix.pivots, matrix.inverse)
        }

    def __call__(self, expr: Mapping[Monomial, PolyLike]) -> PolyVector:
        """The class of a formal combination of the 21 monomials."""
        ints, den = poly_numerators([as_poly(c) for c in expr.values()])
        acc = [[0] * max(map(len, ints), default=0) for _ in range(self.vector_cls.dim)]
        for m, coeffs in zip(expr, ints):
            for slot, weight in self.rows[mono(*m)]:
                out = acc[slot]
                for k, c in enumerate(coeffs):
                    out[k] += weight * c
        return self._finish(acc, den)

    def multiply(self, a: Sequence[PolyQ], b: Sequence[PolyQ]) -> PolyVector:
        """The class of the product of two divisor coefficient 6-vectors."""
        for p in (*a, *b):
            if len(p.num) > 1:
                break
        else:
            # Both factors constant: each coefficient's numerator over its
            # factor's lcm denominator, and one integer per slot.  The test
            # is a for-else, so a polynomial factor pays no generator for it.
            den_a = lcm(*[p.den for p in a])
            den_b = lcm(*[p.den for p in b])
            x = [p.num[0] * (den_a // p.den) if p.num else 0 for p in a]
            y = [p.num[0] * (den_b // p.den) if p.num else 0 for p in b]
            acc = [0] * self.vector_cls.dim
            for (i, j), entry in self.rows.items():
                xy = x[i] * y[j] + x[j] * y[i] if i != j else x[i] * y[i]
                if xy:
                    for slot, weight in entry:
                        acc[slot] += weight * xy
            den = den_a * den_b * self.den
            return self.vector_cls._of(tuple([_const(n, den) for n in acc]))
        int_a, den_a = poly_numerators(a)
        int_b, den_b = poly_numerators(b)
        width = max(map(len, int_a)) + max(map(len, int_b)) - 1
        acc = [[0] * width for _ in range(self.vector_cls.dim)]
        for (i, j), entry in self.rows.items():
            if not entry:
                continue
            pairs = ((int_a[i], int_b[j]), (int_a[j], int_b[i])) if i != j else ((int_a[i], int_b[i]),)
            for ai, bj in pairs:
                for p, x in enumerate(ai):
                    for k, y in enumerate(bj, p):
                        xy = x * y
                        for slot, weight in entry:
                            acc[slot][k] += weight * xy
        return self._finish(acc, den_a * den_b)

    def _finish(self, acc: list, den: int) -> PolyVector:
        """The vector whose slots are the integer lists over den * self.den."""
        den *= self.den
        return self.vector_cls._of(tuple(_poly(out, den) for out in acc))


_REDUCER = QuotientReducer(TautClass2, RELATIONS, BASIS_MONOMIALS)


def reduce_to_basis(expr: Mapping[Monomial, PolyLike]) -> TautClass2:
    """Canonical coordinates of a formal combination of the 21 monomials.

    Linear, and constant on cosets of the relation span: two expressions
    differing by a relation reduce to the same vector.  The empty expression
    reduces to zero.
    """
    return _REDUCER(expr)


def multiply_divisors(a: DivisorM22, b: DivisorM22) -> TautClass2:
    """Product of two divisor classes, reduced to the 14-basis.

    Equals ``reduce_to_basis(expand_product(a.coeffs, b.coeffs))``, computed
    through the reducer's table in integers: two constant divisors take the
    one-integer-per-slot branch of ``QuotientReducer.multiply``, which reads
    each coefficient's ``num`` and ``den`` directly; any polynomial
    coefficient takes its general loop over ``poly_numerators``.  A factor
    that is not a DivisorM22 is a TypeError.
    """
    if not (isinstance(a, DivisorM22) and isinstance(b, DivisorM22)):
        _require_type(a, DivisorM22, "multiply_divisors")
        _require_type(b, DivisorM22, "multiply_divisors")
    return _REDUCER.multiply(a.coeffs, b.coeffs)


#: The nonzero slots of ``dr2_class`` in t = d^2: (c0, c1, c2, den) is the
#: polynomial (c0 + c1 t + c2 t^2) / den, each the factor t - 1 times a
#: polynomial in t.  Rows: psi1psi2, the fused slot, psi_i*d11, psi_i*d12
#: and psi_i*d0.
_DR2_TABLE = (
    (0, -1, 1, 2),
    (-2, 3, -1, 4),
    (2, 1, -3, 20),
    (6, -7, 1, 10),
    (6, -7, 1, 120),
)


def dr2_class(d: PolyLike) -> TautClass2:
    """The class of the closed degree-d double-ramification locus.

    ``d`` may be an integer, a Fraction, or a polynomial (pass the variable
    ``polyq.D`` for the fully symbolic class).  Every slot carries the global
    factor d^2 - 1, so the class vanishes at d = 1:

        psi1psi2 = (d^2-1) d^2 / 2,   psi1^2+psi2^2 = (d^2-1)(2-d^2) / 4,
        psi_i d11 = -(d^2-1)(3d^2+2) / 20,   psi_i d12 = (d^2-1)(d^2-6) / 10,
        psi_i d0 = (d^2-1)(d^2-6) / 120,

    and the six slots d2^2, d12 d2, d0 d2, d0 d11, d0 d12, d0^2 are zero.
    Each nonzero slot is read off the integer table ``_DR2_TABLE`` in
    t = d^2 = T / e: its numerator e^2 c0 + e c1 T + c2 T^2 over den e^2
    goes to ``polyq._poly`` once, and the two slots of each psi_i pair share
    one polynomial.
    """
    t = as_poly(d) * as_poly(d)
    # t * t is T^2 over e^2 as it stands: by Gauss's lemma the content of
    # T^2 is that of T squared, prime to e^2, so ``_poly`` reduces nothing.
    T, T2, e = t.num, (t * t).num, t.den
    slots = []
    for c0, c1, c2, den in _DR2_TABLE:
        num = [c2 * y for y in T2] or [0]
        for k, x in enumerate(T):
            num[k] += e * c1 * x
        num[0] += e * e * c0
        slots.append(_poly(num, den * e * e))
    p12, fused, psi_d11, psi_d12, psi_d0 = slots
    return TautClass2._of(
        (p12, fused, psi_d11, psi_d11, psi_d12, psi_d12, psi_d0, psi_d0) + (ZERO,) * 6
    )


# Slot permutation induced by exchanging the two marked points.
_SWAP = (0, 1, 3, 2, 5, 4, 7, 6, 8, 9, 10, 11, 12, 13)


def swap_markings(c: TautClass2) -> TautClass2:
    """Exchange the roles of the two marked points (an involution)."""
    _require_type(c, TautClass2, "swap_markings")
    return TautClass2(c.coeffs[k] for k in _SWAP)
