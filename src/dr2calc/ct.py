"""The degree-2 group of the compact-type locus and the Hain-class comparison.

On curves of compact type the irreducible nodal divisor d0 vanishes, and the
degree-2 group of products of the remaining divisor classes collapses to
dimension 5.  We use the marking-symmetric basis

    (psi1+psi2)*d11,  psi1*d12,  psi2*d12,  d2^2,  d12*d2.

The reducing relations are the seven full-space relations as they are (their
d0 terms die with the d0 monomials) together with four relations that only
hold on compact type, which ``CT_RELATIONS`` writes down term by term:

    psi1*psi2 = (3/2)(psi1^2+psi2^2) - (9/10)(psi1+psi2) d11
                                     - (2/5)(psi1+psi2) d12
    psi_i^2   = (7/10)(psi_i (d11+d12) - d12*d2) - d2^2     (i = 1, 2)
    (psi1-psi2) d11 = (psi1-psi2) d12

As in the full ring, one ``linalg.GatedMatrix`` of the basis, these
relations and one-term relations killing the six monomials with a d0 factor
is eliminated once, by the same ``chow.QuotientReducer``, and read off as the
integer class of each monomial over one denominator (20; the killed
monomials have empty entries).
Reductions and the product behind the Hain class read that table.

The pull-back of the zero section of the universal Jacobian along the
section [C, p1, p2] -> O_C(d p1 - d p2) is half the square of an explicit
divisor (Hain's formula):

    (1/2) ( (d^2/2)((psi1-d2) + (psi2-d2)) + d^2 d2 - (d^2/2) d11 )^2 .

Comparing it with the restriction of the degree-d class determines the
decorated boundary classes d22 (push-forward of the psi class from the
1-pointed genus-2 space to the rational-tail divisor) and d11| (two elliptic
tails on a rational component carrying both markings), and verifies that the
difference of the two classes is

    d22 + (2d^2-1) d11| + (d^2 - 6/5) d12*d2,

supported on curves with a rational component containing both markings.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Mapping, NamedTuple, Tuple

from .chow import (
    BASIS_MONOMIALS,
    D0,
    D2,
    D11,
    D12,
    PSI1,
    PSI2,
    RELATIONS,
    Expr,
    Monomial,
    MONOMIALS,
    QuotientReducer,
    TautClass2,
    dr2_class,
    mono,
)
from .polyq import D, ZERO, PolyLike, PolyQ, PolyVector, _const, _require_type, as_poly

CT_BASIS_NAMES = (
    "(psi1+psi2)d11",
    "psi1d12",
    "psi2d12",
    "d2sq",
    "d12d2",
)


class CtClass(PolyVector):
    """A degree-2 class on the compact-type locus: 5 polynomial coefficients."""

    __slots__ = ()
    names = CT_BASIS_NAMES


_F = Fraction

#: The eleven compact-type relation expressions (rank 10 once the d0
#: monomials die, 11 on all 21 monomials): ``chow.RELATIONS``,
#: then the four compact-type relations of the module docstring, each moved to
#: one side of its equation.
CT_RELATIONS: Tuple[Expr, ...] = RELATIONS + tuple(
    {m: PolyQ.const(c) for m, c in rel.items()}
    for rel in (
        # psi1 psi2 - (3/2)(psi1^2 + psi2^2) + (9/10)(psi1+psi2) d11
        #           + (2/5)(psi1+psi2) d12
        {
            (PSI1, PSI2): 1, (PSI1, PSI1): _F(-3, 2), (PSI2, PSI2): _F(-3, 2),
            (PSI1, D11): _F(9, 10), (PSI2, D11): _F(9, 10),
            (PSI1, D12): _F(2, 5), (PSI2, D12): _F(2, 5),
        },
        # psi_i^2 - (7/10) psi_i (d11 + d12) + (7/10) d12 d2 + d2^2, i = 1, 2
        *(
            {(p, p): 1, (p, D11): _F(-7, 10), (p, D12): _F(-7, 10),
             (D2, D12): _F(7, 10), (D2, D2): 1}
            for p in (PSI1, PSI2)
        ),
        # (psi1 - psi2)(d11 - d12)
        {(PSI1, D11): 1, (PSI1, D12): -1, (PSI2, D11): -1, (PSI2, D12): 1},
    )
)

# The first slot pairs psi1*d11 with psi2*d11; monomials with a d0 factor die.
_CT_REDUCER = QuotientReducer(
    CtClass,
    CT_RELATIONS + tuple({m: 1} for m in MONOMIALS if D0 in m),
    (
        (mono(PSI1, D11), mono(PSI2, D11)),
        (mono(PSI1, D12),),
        (mono(PSI2, D12),),
        (mono(D2, D2),),
        (mono(D12, D2),),
    ),
)


def reduce_ct(expr: Mapping[Monomial, PolyLike]) -> CtClass:
    """Reduce a formal monomial combination to the compact-type 5-basis.

    Monomials involving d0 are killed outright; the rest go through the
    precomputed relation table.  Linear.
    """
    return _CT_REDUCER(expr)


def restrict_to_ct(c: TautClass2) -> CtClass:
    """Restriction of a full-space class to the compact-type locus."""
    _require_type(c, TautClass2, "restrict_to_ct")
    return reduce_ct(
        {m: coeff for monomials, coeff in zip(BASIS_MONOMIALS, c.coeffs) for m in monomials}
    )


def hain_class(d: PolyLike) -> CtClass:
    """Pull-back of the Jacobian zero section along [C,p1,p2] -> O(d p1 - d p2).

    Half the square of the divisor (d^2/2)((psi1-d2)+(psi2-d2)) + d^2 d2
    - (d^2/2) d11, whose three d2 terms cancel: it is (d^2/2) u with the
    constant divisor u = psi1 + psi2 - d11, so the class is (d^4/8) u^2.
    u^2 takes the constant branch of ``QuotientReducer.multiply``, and each
    of its slots is scaled by d^4/8 once.  It reduces to
    d^4 ( (1/4)(psi1+psi2)(d12-d11) - d2^2 - (7/10) d12*d2 ).
    """
    t = as_poly(d) * as_poly(d)
    one = _const(1)
    u = [one, one, ZERO, ZERO, _const(-1), ZERO]  # (psi1, psi2, d0, d2, d11, d12)
    return _CT_REDUCER.multiply(u, u).scale(t * t / 8)


class DecoratedRows(NamedTuple):
    """Expressions of the decorated classes in the compact-type basis.

    d11_12 (the third decorated basis member) is d12*d2 by definition, so it
    is the fifth basis vector and carried implicitly.
    """

    d22: CtClass
    d11bar: CtClass


def derive_decorated_rows() -> DecoratedRows:
    """Solve for d22 and d11| from the two known decorated expansions.

    Write x = d22 and y = d11|.  The Hain class equals d^4 (x + y - (1/5) e5)
    and the restricted degree-d class equals
    (d^2-1)((d^2+1) x + (d^2-1) y - ((d^2+6)/5) e5)
    = (d^2-1)(d^2 (x + y - (1/5) e5) + (x - y - (6/5) e5)), with e5 = d12*d2.
    So x + y is read off the d^4 coefficients of the Hain class, and x - y
    off the constant coefficients of the restricted class.  Re-substituting
    x and y into both expansions is the proof: it fails unless the Hain class
    is a pure d^4 multiple and the restricted class has exactly that shape.
    The rows do not depend on d, so the derivation and its proof run once,
    on first use, per pair of the module's ``hain_class`` and ``dr2_class``
    as looked up at call time: replacing either name runs it again.
    """
    return _decorated_rows(hain_class, dr2_class)


@cache
def _decorated_rows(hain_of, class_of) -> DecoratedRows:
    """``derive_decorated_rows`` for the given class constructors; a raise is not cached."""
    e5 = CtClass.unit(4)
    hain = hain_of(D)
    restricted = restrict_to_ct(class_of(D))
    sum_xy = CtClass(c.coefficient(4) for c in hain.coeffs) + e5.scale(Fraction(1, 5))
    diff_xy = e5.scale(Fraction(6, 5)) - CtClass(c.coefficient(0) for c in restricted.coeffs)
    d22 = (sum_xy + diff_xy).scale(Fraction(1, 2))
    d11bar = (sum_xy - diff_xy).scale(Fraction(1, 2))

    # Re-substitute into both displayed expansions.
    d2sq = D * D
    lhs1 = (d22 + d11bar - e5.scale(Fraction(1, 5))).scale(d2sq * d2sq)
    if lhs1 != hain:
        raise ArithmeticError("re-substitution into the Hain expansion failed")
    lhs2 = (
        d22.scale(d2sq + 1) + d11bar.scale(d2sq - 1) - e5.scale((d2sq + 6) / 5)
    ).scale(d2sq - 1)
    if lhs2 != restricted:
        raise ArithmeticError("re-substitution into the class expansion failed")
    return DecoratedRows(d22=d22, d11bar=d11bar)


class HacReport(NamedTuple):
    """Outcome of the Hain-class comparison, as polynomial identities."""

    hain: CtClass
    restricted: CtClass
    difference: CtClass
    decorated: DecoratedRows
    difference_formula_ok: bool
    decomposition_ok: bool

    @property
    def ok(self) -> bool:
        return self.difference_formula_ok and self.decomposition_ok


def verify_hac(d: PolyLike = D) -> HacReport:
    """Check that Hain class minus restricted class equals
    d22 + (2d^2-1) d11| + (d^2 - 6/5) d12*d2, symbolically by default."""
    dd = as_poly(d)
    d2sq = dd * dd
    hain = hain_class(dd)
    restricted = restrict_to_ct(dr2_class(dd))
    difference = hain - restricted

    # Intermediate closed form of the difference.
    q = (2 * d2sq - 1) / 4
    formula = CtClass((-q, q, q, -1, Fraction(-7, 10)))
    difference_formula_ok = difference == formula

    rows = derive_decorated_rows()
    e5 = CtClass.unit(4)
    decomposition = (
        rows.d22 + rows.d11bar.scale(2 * d2sq - 1) + e5.scale(d2sq - Fraction(6, 5))
    )
    decomposition_ok = decomposition == difference
    return HacReport(
        hain=hain,
        restricted=restricted,
        difference=difference,
        decorated=rows,
        difference_formula_ok=difference_formula_ok,
        decomposition_ok=decomposition_ok,
    )
