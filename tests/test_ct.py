import random
from fractions import Fraction

import pytest

from dr2calc import ct
from dr2calc.chow import (
    BASIS_MONOMIALS,
    D0,
    D2,
    D11,
    D12,
    DivisorM22,
    MONOMIALS,
    PSI1,
    PSI2,
    RELATIONS,
    QuotientReducer,
    TautClass2,
    dr2_class,
    expand_product,
    mono,
    multiply_divisors,
)
from dr2calc.ct import (
    _CT_REDUCER,
    CT_BASIS_NAMES,
    CT_RELATIONS,
    CtClass,
    derive_decorated_rows,
    hain_class,
    reduce_ct,
    restrict_to_ct,
    verify_hac,
)
from dr2calc.polyq import D, PolyQ, as_poly

F = Fraction


def test_ct_relations_reduce_to_zero():
    for rel in CT_RELATIONS:
        assert reduce_ct(rel).is_zero()


def test_full_relations_restrict_to_zero():
    # compatibility: the full-space relation set dies on compact type
    for rel in RELATIONS:
        assert reduce_ct(rel).is_zero()


def test_basis_elements_pass_through():
    assert reduce_ct({mono(D2, D2): 1}) == CtClass.unit(3)
    assert reduce_ct({mono(PSI1, 5): 1}) == CtClass.unit(1)  # psi1*d12


def test_d0_monomials_die():
    from dr2calc.chow import D0, TautClass2

    assert reduce_ct({mono(D0, D0): 1}).is_zero()
    assert restrict_to_ct(TautClass2.unit(13)).is_zero()  # d0^2 slot
    assert restrict_to_ct(TautClass2.unit(8)) == CtClass.unit(3)  # d2^2 slot


def test_restriction_of_class_frozen():
    got = restrict_to_ct(dr2_class(D))
    d2 = D * D
    f = d2 - 1
    expected = CtClass(
        (
            -f * f / 4,
            f * f / 4,
            f * f / 4,
            -f * (d2 + 1),
            -f * (d2 + 1) * F(7, 10),
        )
    )
    assert got == expected


def test_hain_class_frozen():
    h = hain_class(D)
    d4 = (D * D) ** 2
    assert h == CtClass(
        (-d4 / 4, d4 / 4, d4 / 4, -d4, d4 * F(-7, 10))
    )
    assert hain_class(0).is_zero()
    assert [c.constant_value() for c in hain_class(1).coeffs] == [
        F(-1, 4),
        F(1, 4),
        F(1, 4),
        F(-1),
        F(-7, 10),
    ]


def test_hain_divisible_by_d4():
    h = hain_class(D)
    for coeff in h.coeffs:
        for k, c in enumerate(coeff.coeffs):
            assert c == 0 or k >= 4


def test_hain_cross_route_oracle():
    # independent route: square the divisor in the full ring, reduce there,
    # then restrict; must agree with the direct compact-type reduction
    half_d2 = D * D / 2
    divisor = DivisorM22((half_d2, half_d2, 0, 0, -half_d2, 0))
    full = multiply_divisors(divisor, divisor).scale(F(1, 2))
    assert restrict_to_ct(full) == hain_class(D)


@pytest.mark.parametrize("d", [D, 0, 2, Fraction(-7, 5)], ids=["D", "0", "2", "-7/5"])
def test_hain_class_is_half_the_square_of_the_polynomial_divisor(d):
    # The product of the divisor as written, through the compact-type
    # product table: the reference for (d^4/8) u^2.
    half_d2 = as_poly(d) * as_poly(d) / 2
    divisor = [PolyQ()] * 6
    divisor[PSI1] = half_d2
    divisor[PSI2] = half_d2
    divisor[D11] = -half_d2
    want = _CT_REDUCER.multiply(divisor, divisor).scale(Fraction(1, 2))
    got = hain_class(d)
    assert type(got) is CtClass
    assert [(c.num, c.den) for c in got.coeffs] == [(c.num, c.den) for c in want.coeffs]


def _random_entry(rng):
    if rng.random() < 0.3:
        return PolyQ([F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(rng.randint(1, 3))])
    return F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) if rng.random() < 0.8 else 0


def test_ct_product_matches_expand_and_reduce():
    # seeded pairs: zero and single generators against each other, then
    # random Fraction and polynomial entries, d0 included
    rng = random.Random(2028)
    special = [DivisorM22.zero()] + [DivisorM22.unit(k) for k in range(6)]
    pairs = [(a, b) for a in special for b in special]
    vectors = [DivisorM22(_random_entry(rng) for _ in range(6)) for _ in range(40)]
    pairs += [(rng.choice(vectors), rng.choice(vectors)) for _ in range(60)]
    for a, b in pairs:
        got = _CT_REDUCER.multiply(a.coeffs, b.coeffs)
        assert type(got) is CtClass
        assert got == reduce_ct(expand_product(a.coeffs, b.coeffs))


def test_restrict_image_is_the_whole_5_space():
    # the 14 basis images span exactly 5 dimensions (kernel dimension 9:
    # the d0-monomial slots plus the compact-type rewriting kernel)
    from dr2calc.chow import TautClass2
    from dr2calc.linalg import rank

    images = [
        [c.constant_value() for c in restrict_to_ct(TautClass2.unit(k)).coeffs]
        for k in range(14)
    ]
    assert rank(images) == 5
    zero_images = sum(1 for row in images if all(x == 0 for x in row))
    assert zero_images == 6  # exactly the six d0-involving slots


def test_restrict_is_linear():
    rng = random.Random(99)
    from dr2calc.chow import TautClass2

    for _ in range(30):
        a = TautClass2([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(14)])
        b = TautClass2([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(14)])
        s = F(rng.randint(-5, 5), rng.randint(1, 3))
        lhs = restrict_to_ct(a.scale(s) + b)
        rhs = restrict_to_ct(a).scale(s) + restrict_to_ct(b)
        assert lhs == rhs


def test_decorated_rows():
    rows = derive_decorated_rows()
    assert rows.d22 == CtClass((0, 0, 0, -1, 0))
    assert rows.d11bar == CtClass((F(-1, 4), F(1, 4), F(1, 4), 0, F(-1, 2)))
    # re-substitution check of the combined expansion:
    # d22 + d11| - (1/5) d12d2 == (1/4)(psi1+psi2)(d12-d11) - d2^2 - (7/10) d12d2
    combo = rows.d22 + rows.d11bar - CtClass.unit(4).scale(F(1, 5))
    assert combo == CtClass((F(-1, 4), F(1, 4), F(1, 4), F(-1), F(-7, 10)))


def test_hac_identity_symbolic():
    report = verify_hac()
    assert report.difference_formula_ok
    assert report.decomposition_ok
    assert report.ok


def test_hac_coefficient_expansions():
    # scalar identities behind the decomposition, expanded independently
    d2 = D * D
    assert d2 * d2 - (d2 - 1) * (d2 + 1) == PolyQ((1,))
    assert -d2 * d2 / 5 + (d2 - 1) * (d2 + 6) / 5 == d2 - F(6, 5)


def test_hac_at_numeric_degrees():
    for d in (0, 1, 2, 3, 7):
        report = verify_hac(d)
        assert report.ok
        assert report.difference == report.hain - report.restricted


def test_ct_json_keys():
    blob = hain_class(2).to_json_dict()
    assert set(blob) == set(CT_BASIS_NAMES)
    assert blob["d2sq"] == ["-16"]



def test_reducer_from_d0_filtered_relations_is_the_same():
    # oracle: the ring as first built, with the d0 terms cut from the seven
    # full relations before they enter the echelon
    filtered = tuple({m: c for m, c in rel.items() if D0 not in m} for rel in RELATIONS)
    killed = tuple({m: 1} for m in MONOMIALS if D0 in m)
    basis = (
        (mono(PSI1, D11), mono(PSI2, D11)),
        (mono(PSI1, D12),),
        (mono(PSI2, D12),),
        (mono(D2, D2),),
        (mono(D12, D2),),
    )
    old = QuotientReducer(CtClass, filtered + CT_RELATIONS[len(RELATIONS) :] + killed, basis)
    assert len(CT_RELATIONS) == 11
    assert CT_RELATIONS[: len(RELATIONS)] == RELATIONS
    assert old.rows == _CT_REDUCER.rows
    assert old.den == _CT_REDUCER.den == 20


def _accumulated_restriction(c):
    # oracle: the restriction as first written, summing a PolyQ per monomial
    # over the nonzero slots before the one reduction
    expr = {}
    for slot, monomials in enumerate(BASIS_MONOMIALS):
        coeff = c.coeffs[slot]
        if coeff.is_zero():
            continue
        for m in monomials:
            expr[m] = expr.get(m, PolyQ()) + coeff
    return reduce_ct(expr)


def test_restriction_matches_accumulated_oracle():
    # seeded classes whose slots are zero, constant or polynomial: all of one
    # kind, and mixed
    rng = random.Random(3057)

    def slot(kind):
        if kind == 0:
            return PolyQ()
        if kind == 1:
            return PolyQ.const(F(rng.randint(-10**6, 10**6), rng.randint(1, 10**3)))
        return PolyQ([F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(rng.randint(2, 5))])

    classes = [dr2_class(D), dr2_class(3)]
    classes += [TautClass2(slot(kind) for _ in range(14)) for kind in range(3)]
    classes += [TautClass2(slot(rng.randrange(3)) for _ in range(14)) for _ in range(60)]
    for c in classes:
        got = restrict_to_ct(c)
        assert type(got) is CtClass
        assert got == _accumulated_restriction(c)


@pytest.mark.parametrize("vector", [CtClass.unit(0), DivisorM22.unit(0)], ids=["CtClass", "DivisorM22"])
def test_restrict_refuses_other_vectors(vector):
    # a zip over the 14 slots would silently truncate a shorter vector
    with pytest.raises(TypeError, match=f"restrict_to_ct takes a TautClass2, got {type(vector).__name__}"):
        restrict_to_ct(vector)


def _hain_plus(extra):
    return lambda d: hain_class(d) + extra


def _class_plus(slot, extra):
    return lambda d: dr2_class(d) + TautClass2.unit(slot).scale(extra)


@pytest.mark.parametrize(
    "name, wrong, expansion",
    [
        ("hain_class", _hain_plus(CtClass.unit(0).scale(D * D)), "Hain"),
        ("hain_class", _hain_plus(CtClass.unit(1).scale((D * D) ** 2)), "class"),
        ("dr2_class", _class_plus(0, D), "class"),
        ("dr2_class", _class_plus(8, 1), "class"),
        ("dr2_class", _class_plus(8, (D * D - 1) * D * D), "class"),
    ],
    ids=["hain+d2*e0", "hain+d4*e1", "class+d@0", "class+1@8", "class+(d2-1)d2@8"],
)
def test_decorated_rows_faults_fail_resubstitution(monkeypatch, name, wrong, expansion):
    # each fault breaks a shape the derivation reads coefficients from; one
    # of the two re-substitutions must refuse it
    monkeypatch.setattr(ct, name, wrong)
    with pytest.raises(ArithmeticError, match=f"re-substitution into the {expansion} expansion failed"):
        derive_decorated_rows()


@pytest.mark.parametrize(
    "name, wrong, expansion",
    [
        ("hain_class", _hain_plus(CtClass.unit(0).scale(D * D)), "Hain"),
        ("dr2_class", _class_plus(8, 1), "class"),
    ],
    ids=["hain+d2*e0", "class+1@8"],
)
def test_warm_decorated_rows_do_not_outlive_a_replaced_constructor(
    monkeypatch, name, wrong, expansion
):
    # the memo is keyed on the constructors the derivation reads, so a warm
    # memo must not answer for a replaced one, and a failure is not kept
    derive_decorated_rows()
    size = ct._decorated_rows.cache_info().currsize
    monkeypatch.setattr(ct, name, wrong)
    with pytest.raises(ArithmeticError, match=f"re-substitution into the {expansion} expansion failed"):
        derive_decorated_rows()
    with pytest.raises(ArithmeticError, match=f"re-substitution into the {expansion} expansion failed"):
        verify_hac(3)
    assert ct._decorated_rows.cache_info().currsize == size
    monkeypatch.undo()
    assert verify_hac(3).ok


def test_second_numeric_verify_hac_is_a_memo_hit():
    verify_hac(5)
    before = ct._decorated_rows.cache_info()
    report = verify_hac(5)
    after = ct._decorated_rows.cache_info()
    assert report.ok
    assert (after.hits, after.misses, after.currsize) == (before.hits + 1, before.misses, before.currsize)


def test_memoized_decorated_rows_equal_a_fresh_derivation():
    rows = derive_decorated_rows()
    assert derive_decorated_rows() is rows
    assert ct._decorated_rows.__wrapped__(hain_class, dr2_class) == rows
