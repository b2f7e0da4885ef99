"""Divisor calculus on the moduli space of 1-pointed genus-2 stable curves.

The Picard group has basis (psi, d0, d1); here d0 is the irreducible nodal
divisor and d1 the divisor of curves with an elliptic tail.  The module
provides the standard named divisors (lambda, the pointed Weierstrass divisor,
Rulla's moving-cone generator D), the push-forward of degree-2 classes from
the 2-pointed space along the point-forgetting maps, the Diaz divisor of
curves with an exceptional point and its pull-back pipeline, the psi^3
pairing, and classification of divisors against Rulla's cone description:
the pseudo-effective cone is generated by (W, d0, d1), the nef cone by
(psi, lambda, 12*lambda - d0), and the moving cone additionally by
D = 30(W + psi) and E = 20 W + 3 d0 + 6 d1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .chow import TautClass2, swap_markings
from .linalg import InconsistentSystemError, solve_unique
from .polyq import PolyQ, PolyLike, PolyVector, Scalar, _echo, as_poly, exact

M21_NAMES = ("psi", "d0", "d1")


class DivisorM21(PolyVector):
    """A divisor class on the 1-pointed space: coefficients on (psi, d0, d1)."""

    __slots__ = ()
    names = M21_NAMES

    @property
    def psi(self) -> PolyQ:
        return self.coeffs[0]

    @property
    def d0(self) -> PolyQ:
        return self.coeffs[1]

    @property
    def d1(self) -> PolyQ:
        return self.coeffs[2]


#: lambda = (1/10) d0 + (1/5) d1 (the Hodge class in this basis).
LAMBDA_CLASS = DivisorM21((0, Fraction(1, 10), Fraction(1, 5)))

#: Closure of the pointed Weierstrass divisor: 3 psi - (1/10) d0 - (6/5) d1.
WEIERSTRASS_CLASS = DivisorM21((3, Fraction(-1, 10), Fraction(-6, 5)))

#: Rulla's moving-cone generator D = 30(W + psi).
MOVING_D = (WEIERSTRASS_CLASS + DivisorM21((1, 0, 0))).scale(30)

# Push-forward of each 14-basis element along the map forgetting point 1,
# as a (psi, d0, d1) triple.  The fused slot psi1^2 + psi2^2 maps to
# kappa_1 + psi = 2 psi + (1/5) d0 + (7/5) d1.  Every slot has a row; those
# of psi2*d11 and of the d0-products without a d2 or psi factor are zero.
PUSHFORWARD_TABLE_PI1: Tuple[Tuple[Scalar, Scalar, Scalar], ...] = (
    (3, 0, 0),                            # psi1psi2
    (2, Fraction(1, 5), Fraction(7, 5)),  # psi1sq+psi2sq
    (0, 0, 1),                            # psi1d11
    (0, 0, 0),                            # psi2d11
    (0, 0, 2),                            # psi1d12
    (0, 0, 1),                            # psi2d12
    (0, 3, 0),                            # psi1d0
    (0, 1, 0),                            # psi2d0
    (-1, 0, 0),                           # d2sq
    (0, 0, 1),                            # d12d2
    (0, 1, 0),                            # d0d2
    (0, 0, 0),                            # d0d11
    (0, 0, 0),                            # d0d12
    (0, 0, 0),                            # d0sq
)


def pushforward(c: TautClass2, marking: int) -> DivisorM21:
    """Push a degree-2 class down to the 1-pointed space, forgetting a marking.

    The marking argument is 1 or 2; forgetting point 2 is the point-1 table
    applied to the marking-swapped class.
    """
    if not isinstance(c, TautClass2):
        raise TypeError(f"pushforward takes a TautClass2, got {type(c).__name__}")
    if marking == 2:
        c = swap_markings(c)
    elif marking != 1:
        raise ValueError("marking must be 1 or 2")
    return DivisorM21(c.dot(column) for column in zip(*PUSHFORWARD_TABLE_PI1))


def pushforward_class_formula(d: PolyLike) -> DivisorM21:
    """Closed form of the pushed-forward degree-d class:
    (d^2-1) * ((d^2+1) psi - (d^2+6)/5 * (d0/12 + d1)).
    """
    d2 = as_poly(d) * as_poly(d)
    f = d2 - 1
    tail = f * (d2 + 6) / 5
    return DivisorM21((f * (d2 + 1), -tail / 12, -tail))


def _check_genus_type(g) -> None:
    if not isinstance(g, int) or isinstance(g, bool):
        raise TypeError(f"genus must be an int, got {_echo(g)}")


def pencil_count(g: int) -> int:
    """Pencils of degree g+1 on a general 1-pointed genus-g curve with a
    point of total ramification and a ramification at the marked point.

    Equals (g+2) g^2, and satisfies g(g+1)(g+2) = ((g+1)^2 - 1) + (g+2)g^2:
    the degree-(g+1) count on a genus-(g+1) curve with an elliptic tail
    splits into tail cases ((g+1)^2 - 1 torsion choices) and these pencils.
    """
    _check_genus_type(g)
    if g < 1:
        raise ValueError("genus must be at least 1")
    return (g + 2) * g * g


def _diaz_lambda(g):
    return g * g * (g - 1) * (3 * g - 1) * Fraction(1, 2)


def _diaz_d0(g):
    return -((g - 1) ** 2) * g * (g + 1) * Fraction(1, 6)


def _diaz_boundary(g, product_ig):
    # product_ig = i * (g - i) for the splitting being pulled back
    return -product_ig * g * (g * g + g - 4) * Fraction(1, 2)


class DiazDivisor(NamedTuple):
    """Divisor of genus-g curves with a point x where h^0((g-1)x) >= 2,
    in the basis (lambda, delta_0, delta_i for 1 <= i <= g//2)."""

    genus: int
    lambda_coeff: Fraction
    delta0_coeff: Fraction
    delta_coeffs: Dict[int, Fraction]


def diaz_divisor(g: int) -> DiazDivisor:
    _check_genus_type(g)
    if g < 3:
        raise ValueError("the exceptional-point divisor needs genus >= 3")
    return DiazDivisor(
        genus=g,
        lambda_coeff=exact(_diaz_lambda(g)),
        delta0_coeff=exact(_diaz_d0(g)),
        delta_coeffs={i: exact(_diaz_boundary(g, i * (g - i))) for i in range(1, g // 2 + 1)},
    )


def chi_pullback_pipeline(d: PolyLike) -> DivisorM21:
    """Pull the genus-(d+1) Diaz divisor back along the map attaching a fixed
    general pointed genus-(d-1) curve, then subtract (d+1)(d-1)^2 times the
    Weierstrass class.

    Pull-back rules: lambda -> lambda, delta_0 -> d0; boundary terms are
    booked by splitting type, which stays well-defined when d = 2 makes the
    two relevant types collide in boundary index: the 1 + d splitting (an
    elliptic tail on the moving curve, i(g-i) = d) maps to d1, the
    2 + (d-1) splitting (the attaching node itself, i(g-i) = 2(d-1)) maps to
    -psi, and every other splitting type misses the image and maps to zero.
    The result equals ``pushforward_class_formula(d)`` identically.
    """
    dd = as_poly(d)
    if dd.is_constant() and dd.constant_value() < 2:
        raise ValueError("pipeline needs d >= 2")
    g = dd + 1
    lam = _diaz_lambda(g)
    d0c = _diaz_d0(g)
    tail_1_d = _diaz_boundary(g, dd)  # elliptic-tail splitting, i(g-i) = d
    node_2_dm1 = _diaz_boundary(g, 2 * (dd - 1))  # attaching node, maps to -psi
    out = LAMBDA_CLASS.scale(lam) + DivisorM21((-node_2_dm1, d0c, tail_1_d))
    correction = (dd + 1) * (dd - 1) * (dd - 1)
    return out - WEIERSTRASS_CLASS.scale(correction)


# Top intersection numbers on the 1-pointed genus-2 space (Faber's
# computations of its tautological ring).
PSI4 = Fraction(1, 1152)
PSI3_D0 = Fraction(1, 48)
PSI3_D1 = 0


def psi_cubed_intersection(d: PolyLike) -> PolyQ:
    """Pairing of the pushed-forward degree-d class against psi^3.

    Comes out to (d^2-1)(3d^2-7)/5760; the value at d = 2 is 1/384.
    """
    cls = pushforward_class_formula(d)
    return cls.psi * PSI4 + cls.d0 * PSI3_D0 + cls.d1 * PSI3_D1


class ConeReport(NamedTuple):
    """Position of a divisor class in Rulla's cones.

    effective_coords: coordinates in the basis (W, d0, d1) of generators of
    the pseudo-effective cone.  classification: 'zero', 'extremal_ray:<gen>',
    'interior', 'boundary_face', or 'outside'.  w_psi_coords: coordinates in
    span(W, psi) when the class lies in that plane, else None.
    in_moving_d_psi_cone: membership in the cone spanned by D = 30(W + psi)
    and psi (None when the class is outside the W-psi plane).
    """

    effective_coords: Tuple[Fraction, Fraction, Fraction]
    classification: str
    w_psi_coords: Optional[Tuple[Fraction, Fraction]]
    in_moving_d_psi_cone: Optional[bool]


def _coordinates(values: Sequence[Fraction], generators: Sequence[DivisorM21]) -> Tuple[Fraction, ...]:
    """The coordinates of a numeric class in numeric generators; raises
    InconsistentSystemError when the class is outside their span."""
    columns = [[x.constant_value() for x in g.coeffs] for g in generators]
    return tuple(solve_unique(list(zip(*columns)), values))


def classify_effective_cone(c: DivisorM21) -> ConeReport:
    """Express a (numeric) divisor class in the effective generators (W, d0, d1)
    and report its cone position."""
    if not isinstance(c, DivisorM21):
        raise TypeError(f"classify_effective_cone takes a DivisorM21, got {type(c).__name__}")
    if not all(coeff.is_constant() for coeff in c.coeffs):
        raise ValueError("cone classification needs numeric coefficients")
    vals = [coeff.constant_value() for coeff in c.coeffs]
    psi, d0, d1 = (DivisorM21.unit(k) for k in range(3))
    coords = _coordinates(vals, (WEIERSTRASS_CLASS, d0, d1))

    if all(x == 0 for x in coords):
        classification = "zero"
    elif any(x < 0 for x in coords):
        classification = "outside"
    elif all(x > 0 for x in coords):
        classification = "interior"
    else:
        nonzero = [k for k, x in enumerate(coords) if x != 0]
        if len(nonzero) == 1:
            classification = "extremal_ray:" + ("W", "d0", "d1")[nonzero[0]]
        else:
            classification = "boundary_face"

    try:
        w_psi = _coordinates(vals, (WEIERSTRASS_CLASS, psi))
        s, t = _coordinates(vals, (MOVING_D, psi))
        in_d_psi = s >= 0 and t >= 0
    except InconsistentSystemError:
        w_psi = in_d_psi = None
    return ConeReport(coords, classification, w_psi, in_d_psi)
