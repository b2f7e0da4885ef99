"""Results built by the internal constructors are in canonical form.

The reducer kernel and ``PolyQ`` arithmetic build their results without the
public constructors' checks.  These tests draw seeded inputs, many of them
chosen so that coefficients cancel to zero or the degree drops, and check
that every result is exactly what the public constructors would have built:
every coefficient a ``Fraction``, no trailing zero, equal (with an equal
hash) to its own re-validation, and every zero slot of a kernel result the
one shared zero polynomial.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from dr2calc import chow, ct, solver
from dr2calc.chow import MONOMIALS, RELATIONS, DivisorM22, mono
from dr2calc.ct import CtClass
from dr2calc.polyq import D, ZERO, PolyQ, interpolate_columns, poly_interpolate

RINGS = {
    "chow": (chow._REDUCER, RELATIONS),
    "ct": (ct._CT_REDUCER, ct.CT_RELATIONS + RELATIONS),
}


def _assert_canonical_poly(p):
    assert type(p) is PolyQ
    assert all(type(c) is Fraction for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != 0
    again = PolyQ(p.coeffs)
    assert again == p and again.coeffs == p.coeffs and hash(again) == hash(p)
    # The stored form: int numerators with no trailing zero over a positive
    # int denominator sharing no factor with them; zero is ((), 1).
    assert type(p.num) is tuple and all(type(n) is int for n in p.num)
    assert not p.num or p.num[-1] != 0
    assert type(p.den) is int and p.den >= 1 and gcd(p.den, *p.num) == 1
    assert (again.num, again.den) == (p.num, p.den)


def _assert_canonical_vector(v, kernel=True):
    for c in v.coeffs:
        _assert_canonical_poly(c)
        if kernel and c.is_zero():
            assert c is ZERO
    again = type(v)(v.coeffs)
    assert again == v and hash(again) == hash(v)


def _small_poly(rng, max_degree):
    """Coefficients from a narrow range, so sums and products cancel often."""
    return PolyQ(
        Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        for _ in range(rng.randint(0, max_degree + 1))
    )


def _divisor(rng, max_degree):
    return [_small_poly(rng, max_degree) for _ in range(6)]


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("max_degree", [0, 2], ids=["numeric", "symbolic"])
def test_products_are_canonical(ring, max_degree):
    reducer = RINGS[ring][0]
    rng = random.Random(7000 + max_degree)
    for _ in range(150):
        a, b = _divisor(rng, max_degree), _divisor(rng, max_degree)
        _assert_canonical_vector(reducer.multiply(a, b))
    _assert_canonical_vector(reducer.multiply([ZERO] * 6, _divisor(rng, max_degree)))
    _assert_canonical_vector(reducer.multiply([ZERO] * 6, [ZERO] * 6))


def test_public_products_are_canonical():
    rng = random.Random(7100)
    for _ in range(50):
        a = DivisorM22(_divisor(rng, 1))
        b = DivisorM22(_divisor(rng, 1))
        _assert_canonical_vector(chow.multiply_divisors(a, b))
    _assert_canonical_vector(ct.hain_class(D), kernel=False)
    _assert_canonical_vector(ct.hain_class(3), kernel=False)


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("max_degree", [0, 2], ids=["numeric", "symbolic"])
def test_reductions_are_canonical(ring, max_degree):
    reducer, relations = RINGS[ring]
    rng = random.Random(7200 + max_degree)
    for _ in range(150):
        expr = {
            rng.choice(MONOMIALS): _small_poly(rng, max_degree)
            for _ in range(rng.randint(0, 8))
        }
        _assert_canonical_vector(reducer(expr))
    # A relation times a polynomial reduces to zero in every slot, and adding
    # it to a lower-degree expression drops the top degree of the result.
    for rel in relations:
        scaled = {m: c * D**2 for m, c in rel.items()}
        zero = reducer(scaled)
        assert zero.is_zero()
        _assert_canonical_vector(zero)
        lower = dict(scaled)
        m = mono(0, 1)
        lower[m] = lower.get(m, PolyQ()) + D
        _assert_canonical_vector(reducer(lower))
        assert all(len(c.num) <= 2 for c in reducer(lower).coeffs)


def test_restriction_is_canonical():
    rng = random.Random(7300)
    for _ in range(50):
        c = chow.TautClass2(_small_poly(rng, 2) for _ in range(14))
        _assert_canonical_vector(ct.restrict_to_ct(c))


def test_polyq_arithmetic_is_canonical():
    rng = random.Random(7400)
    for _ in range(300):
        p, q = _small_poly(rng, 3), _small_poly(rng, 3)
        k = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
        for r in (p + q, p - q, p * q, -p, p / k, p + k, k - p, p * k, p - p, p + (-p)):
            _assert_canonical_poly(r)
    # Cancellation to zero and degree drops, spelled out.
    assert (D**2 + D) - D**2 == D
    assert len((D**2 + D - D**2).num) == 2
    assert (D - D).coeffs == () and (D + (-D)).coeffs == ()
    assert (PolyQ((1, 2)) + PolyQ((-1, -2))).coeffs == ()
    assert (D * 0).coeffs == () and (PolyQ() * D).coeffs == ()
    for r in ((D**2 + D) - D**2, D - D, D * 0, PolyQ((0, 3)) / 3):
        _assert_canonical_poly(r)


def test_vector_arithmetic_is_canonical():
    rng = random.Random(7500)
    for _ in range(50):
        u = CtClass(_small_poly(rng, 2) for _ in range(5))
        w = CtClass(_small_poly(rng, 2) for _ in range(5))
        for r in (u + w, u - w, u - u, u.scale(_small_poly(rng, 1)), u.eval_at(2)):
            _assert_canonical_vector(r, kernel=False)


def test_interpolation_is_canonical():
    """Fraction and negative abscissae; values from low-degree polynomials
    (the top Newton coefficients cancel) and arbitrary values."""
    rng = random.Random(307)
    for _ in range(300):
        n = rng.randint(1, 9)
        xs = set()
        while len(xs) < n:
            xs.add(Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
        xs = sorted(xs, key=lambda _: rng.random())
        if rng.random() < 0.5:
            p = _small_poly(rng, rng.randint(0, n - 1))
            ys = [p(x) for x in xs]
        else:
            ys = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3)) for _ in xs]
        q = poly_interpolate(zip(xs, ys))
        _assert_canonical_poly(q)
        assert len(q.num) <= n
        assert [q(x) for x in xs] == ys


def test_solver_kernels_are_canonical():
    """Interpolation of every slot and the row residuals: zero residuals
    and zero slots are the shared zero, the rest canonical."""
    system = solver.full_system()
    cert = solver.solve_parametric(system)
    _assert_canonical_vector(cert.solution)
    assert all(r is ZERO for r in cert.residuals)
    rows = list(system.rows)
    r0 = rows[0]
    rows[0] = type(r0)(r0.coefficients, r0.rhs + D / 3, r0.label, r0.kind, r0.provenance)
    residuals = tuple(r.residual(cert.solution) for r in rows)
    assert residuals[0] == -D / 3 and all(r is ZERO for r in residuals[1:])
    for r in residuals:
        _assert_canonical_poly(r)
    got = interpolate_columns([1, 2, 3], [[0, 0, 0], [Fraction(1, 2)] * 3, [1, 4, 9]])
    assert got[0] is ZERO and got == [ZERO, PolyQ((Fraction(1, 2),)), D * D]
    for p in got:
        _assert_canonical_poly(p)
