"""The product kernel's constant branch agrees with expanding and reducing.

``QuotientReducer.multiply`` takes a one-integer-per-slot branch when both
factors are constant.  These seeded cases compare it, and the polynomial
path it sits beside, with ``reduce(expand_product(a, b))`` in both quotient
rings, and check that every slot it builds is in canonical form.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from dr2calc import chow, ct
from dr2calc.chow import GENERATORS, DivisorM22, expand_product, multiply_divisors, reduce_to_basis
from dr2calc.polyq import D, ZERO, PolyQ, as_poly

RINGS = {"chow": chow._REDUCER, "ct": ct._CT_REDUCER}


def _assert_canonical(v):
    for c in v.coeffs:
        if not c.num:
            assert c is ZERO
        assert c.den >= 1 and gcd(c.den, *c.num) == 1
        again = PolyQ(c.coeffs)
        assert (c.num, c.den) == (again.num, again.den)


def _check(reducer, a, b):
    a, b = [as_poly(x) for x in a], [as_poly(x) for x in b]
    got = reducer.multiply(a, b)
    assert got == reducer(expand_product(a, b))
    _assert_canonical(got)
    return got


def _constant(rng, bits=8):
    """An int, a zero, or a Fraction of two numbers up to ``bits`` bits, of either sign."""
    top = 2**bits
    n = rng.randint(-top, top)
    if rng.random() < 0.3:
        return n
    if rng.random() < 0.2:
        return 0
    return Fraction(n, rng.randint(1, top))


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_zero_factor_and_single_generators(ring):
    reducer = RINGS[ring]
    zero = [0] * 6
    for i in range(6):
        unit = [0] * 6
        unit[i] = 1
        assert _check(reducer, zero, unit) == reducer.vector_cls.zero()
        assert _check(reducer, unit, zero) == reducer.vector_cls.zero()
        for j in range(6):
            other = [0] * 6
            other[j] = Fraction(-3, 7)
            _check(reducer, unit, other)
    assert _check(reducer, zero, zero) == reducer.vector_cls.zero()
    # a zero factor beside a linear one also takes the constant branch
    assert _check(reducer, zero, [D + 1] * 6) == reducer.vector_cls.zero()
    assert _check(reducer, [D] * 6, zero) == reducer.vector_cls.zero()


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_mixed_ints_fractions_and_signs(ring):
    reducer = RINGS[ring]
    rng = random.Random(9100)
    for _ in range(200):
        _check(reducer, [_constant(rng) for _ in range(6)], [_constant(rng) for _ in range(6)])


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_denominators_above_64_bits(ring):
    reducer = RINGS[ring]
    rng = random.Random(9200)
    for _ in range(50):
        a = [Fraction(rng.randint(-(2**80), 2**80), 2**64 + rng.randint(1, 2**70)) for _ in range(6)]
        b = [_constant(rng, bits=100) for _ in range(6)]
        got = _check(reducer, a, b)
        assert any(c.den > 2**64 for c in got.coeffs)


def test_multiply_divisors_on_constants():
    rng = random.Random(9300)
    for _ in range(100):
        a = DivisorM22(_constant(rng) for _ in GENERATORS)
        b = DivisorM22(_constant(rng) for _ in GENERATORS)
        got = multiply_divisors(a, b)
        assert got == reduce_to_basis(expand_product(a.coeffs, b.coeffs))
        _assert_canonical(got)


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_constant_times_polynomial_in_both_orders(ring):
    reducer = RINGS[ring]
    rng = random.Random(9400)
    for _ in range(100):
        constant = [_constant(rng) for _ in range(6)]
        poly = [_constant(rng) + _constant(rng) * D + _constant(rng) * D * D for _ in range(6)]
        left = _check(reducer, constant, poly)
        assert _check(reducer, poly, constant) == left
