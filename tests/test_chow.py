import random
import re
from fractions import Fraction

import pytest

from dr2calc.chow import (
    BASIS_MONOMIALS,
    BASIS_NAMES,
    D0,
    D2,
    D11,
    D12,
    DivisorM22,
    FUSED_SLOT,
    MONOMIALS,
    PSI1,
    RELATIONS,
    TautClass2,
    _REDUCER,
    dr2_class,
    expand_product,
    mono,
    multiply_divisors,
    reduce_to_basis,
    swap_markings,
)
from dr2calc.polyq import D, PolyQ

F = Fraction
MONO_INDEX = {m: k for k, m in enumerate(MONOMIALS)}


# --- independent oracle: membership in the span of the seven relations ----
# A local elimination, separate from the production reduction table, used to
# confirm that reduce_to_basis only ever subtracts relation elements.


def _expr_to_vec(expr):
    vec = [F(0)] * len(MONOMIALS)
    for m, c in expr.items():
        if isinstance(c, PolyQ):
            c = c.constant_value()
        vec[MONO_INDEX[mono(*m)]] += F(c)
    return vec


def _in_relation_span(vec):
    basis = [_expr_to_vec(rel) for rel in RELATIONS]
    work = [row[:] for row in basis]
    target = vec[:]
    r = 0
    for col in range(len(MONOMIALS)):
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col] / work[r][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        if target[col] != 0:
            f = target[col] / work[r][col]
            target = [a - f * b for a, b in zip(target, work[r])]
        r += 1
    return all(x == 0 for x in target)


def _class_to_expr(c: TautClass2):
    expr = {}
    for slot, monomials in enumerate(BASIS_MONOMIALS):
        for m in monomials:
            expr[m] = expr.get(m, PolyQ()) + c.coeffs[slot]
    return expr


def _expr_sub(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, PolyQ()) - c
    return out


def test_relation_span_has_rank_7():
    vecs = [_expr_to_vec(rel) for rel in RELATIONS]
    work = [row[:] for row in vecs]
    r = 0
    for col in range(len(MONOMIALS)):
        piv = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, len(work)):
            if work[i][col] != 0:
                f = work[i][col] / work[r][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    assert r == 7
    assert len(MONOMIALS) - r == 14  # quotient dimension


def test_all_relations_reduce_to_zero():
    for rel in RELATIONS:
        assert reduce_to_basis(rel).is_zero()


def test_reduction_examples_frozen():
    # psi1 * d2 dies
    assert reduce_to_basis({mono(PSI1, D2): 1}).is_zero()
    # d11^2 = -psi1 d11 - psi2 d11
    got = reduce_to_basis({mono(D11, D11): 1})
    want = TautClass2.unit(2).scale(-1) + TautClass2.unit(3).scale(-1)
    assert got == want
    # d12^2 = -psi1 d11 - psi2 d11 + (1/12) d0 d11 - (1/12) d0 d12
    got = reduce_to_basis({mono(D12, D12): 1})
    want = (
        TautClass2.unit(2).scale(-1)
        + TautClass2.unit(3).scale(-1)
        + TautClass2.unit(11).scale(F(1, 12))
        + TautClass2.unit(12).scale(F(-1, 12))
    )
    assert got == want
    # psi1^2 splits into the fused slot plus antisymmetric corrections
    got = reduce_to_basis({mono(PSI1, PSI1): 1})
    expected = {
        "psi1sq+psi2sq": F(1, 2),
        "psi1d11": F(1, 10),
        "psi2d11": F(-1, 10),
        "psi1d12": F(3, 5),
        "psi2d12": F(-3, 5),
        "psi1d0": F(1, 20),
        "psi2d0": F(-1, 20),
    }
    for name, coeff in zip(BASIS_NAMES, got.coeffs):
        assert coeff == PolyQ.const(expected.get(name, 0))


def test_reductions_differ_from_input_by_relations():
    # oracle check: input minus (expansion of output) is in the relation span
    rng = random.Random(33)
    cases = [
        {mono(D12, D12): 1},
        {mono(PSI1, PSI1): 1},
        {mono(D11, D12): 1},
    ]
    for _ in range(25):
        cases.append(
            {
                m: F(rng.randint(-6, 6), rng.randint(1, 4))
                for m in rng.sample(MONOMIALS, rng.randint(1, 8))
            }
        )
    for expr in cases:
        reduced = reduce_to_basis(expr)
        diff = _expr_sub(expr, _class_to_expr(reduced))
        assert _in_relation_span(_expr_to_vec(diff))


def test_reduce_is_idempotent():
    rng = random.Random(44)
    for _ in range(50):
        c = TautClass2(
            [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(14)]
        )
        assert reduce_to_basis(_class_to_expr(c)) == c


def test_reduce_is_linear():
    rng = random.Random(55)
    for _ in range(50):
        x = {
            m: F(rng.randint(-6, 6), rng.randint(1, 4))
            for m in rng.sample(MONOMIALS, 6)
        }
        y = {
            m: F(rng.randint(-6, 6), rng.randint(1, 4))
            for m in rng.sample(MONOMIALS, 6)
        }
        alpha = F(rng.randint(-5, 5), rng.randint(1, 3))
        beta = F(rng.randint(-5, 5), rng.randint(1, 3))
        combo = {}
        for m, c in x.items():
            combo[m] = combo.get(m, F(0)) + alpha * c
        for m, c in y.items():
            combo[m] = combo.get(m, F(0)) + beta * c
        lhs = reduce_to_basis(combo)
        rhs = reduce_to_basis(x).scale(alpha) + reduce_to_basis(y).scale(beta)
        assert lhs == rhs


def test_empty_expression_reduces_to_zero():
    assert reduce_to_basis({}).is_zero()


def test_multiply_divisors_examples():
    psi_sum = DivisorM22((1, 1, 0, 0, 0, 0))
    sq = multiply_divisors(psi_sum, psi_sum)
    assert sq.coeffs[0] == 2  # psi1psi2
    assert sq.coeffs[FUSED_SLOT] == 1
    assert all(c.is_zero() for k, c in enumerate(sq.coeffs) if k > 1)

    psi1 = DivisorM22.unit(PSI1)
    d2 = DivisorM22.unit(D2)
    assert multiply_divisors(psi1, d2).is_zero()

    d0 = DivisorM22.unit(D0)
    assert multiply_divisors(d0, d0) == TautClass2.unit(13)


def test_multiply_divisors_commutes():
    rng = random.Random(66)
    for _ in range(30):
        a = DivisorM22([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)])
        b = DivisorM22([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)])
        assert multiply_divisors(a, b) == multiply_divisors(b, a)


def test_multiply_with_polynomial_coefficients():
    half_d2 = D * D / 2
    a = DivisorM22((half_d2, half_d2, 0, 0, -half_d2, 0))
    prod = multiply_divisors(a, a)
    # bilinearity over polynomials: evaluating after equals evaluating before
    a3 = DivisorM22([c(3) for c in a.coeffs])
    assert prod.eval_at(3) == multiply_divisors(a3, a3)


def test_product_table_entries_are_reduced_monomials():
    # 60 = lcm of the denominators 2, 5, 10, 12 and 20 in the reduced squares
    assert _REDUCER.den == 60
    for i in range(6):
        for j in range(6):
            coeffs = [0] * 14
            for slot, n in _REDUCER.rows[mono(i, j)]:
                assert type(n) is int and n != 0
                coeffs[slot] = F(n, _REDUCER.den)
            assert TautClass2(coeffs) == reduce_to_basis({mono(i, j): 1})


def _random_entry(rng, kind):
    if kind == "wide":
        return F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
    if kind == "poly" and rng.random() < 0.6:
        degree = rng.randint(0, 4)
        return PolyQ([F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(degree + 1)])
    return F(rng.randint(-9, 9), rng.randint(1, 12))


def _kernel_pairs():
    """Seeded factor pairs: the zero vector and single generators against
    each other, then signed Fractions with denominators up to 10^9 and
    polynomial entries of degree 0-4 mixed with constants."""
    rng = random.Random(2026)
    special = [DivisorM22.zero()] + [DivisorM22.unit(k) for k in range(6)]
    vectors = []
    for kind in ("small", "wide", "poly"):
        for _ in range(15):
            vectors.append(
                DivisorM22(_random_entry(rng, kind) if rng.random() < 0.8 else 0 for _ in range(6))
            )
    pairs = [(a, b) for a in special for b in special]
    pairs += [(rng.choice(special), v) for v in vectors]
    pairs += [(rng.choice(vectors), rng.choice(vectors)) for _ in range(60)]
    return pairs


def test_multiply_divisors_matches_expand_and_reduce():
    for a, b in _kernel_pairs():
        got = multiply_divisors(a, b)
        assert type(got) is TautClass2
        assert all(type(c) is F for p in got.coeffs for c in p.coeffs)
        assert got == reduce_to_basis(expand_product(a.coeffs, b.coeffs))


def test_multiply_divisors_is_commutative_and_bilinear():
    rng = random.Random(2027)
    pairs = _kernel_pairs()
    for (a, b), (c, _) in zip(pairs, pairs[1:]):
        ab = multiply_divisors(a, b)
        assert ab == multiply_divisors(b, a)
        alpha = _random_entry(rng, "poly")
        beta = _random_entry(rng, "wide")
        combo = a.scale(alpha) + c.scale(beta)
        want = ab.scale(alpha) + multiply_divisors(c, b).scale(beta)
        assert multiply_divisors(combo, b) == want
        assert multiply_divisors(b, combo) == want


def test_dr2_class_values():
    c = dr2_class(D)
    d2 = D * D
    f = d2 - 1
    assert c.coeffs[0] == f * d2 / 2
    assert c.coeffs[FUSED_SLOT] == f * (2 - d2) / 4
    assert c.coeffs[2] == -f * (3 * d2 + 2) / 20
    assert c.coeffs[4] == f * (d2 - 6) / 10
    assert c.coeffs[6] == f * (d2 - 6) / 120
    for k in range(8, 14):
        assert c.coeffs[k].is_zero()
    # frozen evaluation at d = 2
    expected = [
        F(6),
        F(-3, 2),
        F(-21, 10),
        F(-21, 10),
        F(-3, 5),
        F(-3, 5),
        F(-1, 20),
        F(-1, 20),
    ] + [F(0)] * 6
    assert [c.constant_value() for c in dr2_class(2).coeffs] == expected
    assert dr2_class(1).is_zero()


def test_swap_markings():
    c = dr2_class(D)
    assert swap_markings(c) == c  # the class is marking-symmetric
    assert swap_markings(TautClass2.unit(6)) == TautClass2.unit(7)
    rng = random.Random(77)
    for _ in range(20):
        v = TautClass2([F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(14)])
        assert swap_markings(swap_markings(v)) == v


def test_json_wire_format():
    c = dr2_class(2)
    blob = c.to_json_dict()
    assert set(blob) == set(BASIS_NAMES)
    assert blob["psi1psi2"] == ["6"]
    assert blob["d0sq"] == []
    assert TautClass2.from_json_dict(blob) == c


def test_class_json_refuses_unknown_names():
    blob = dr2_class(D).to_json_dict()
    blob["psi1psi"] = blob.pop("psi1psi2")
    with pytest.raises(ValueError, match="unknown basis name in class JSON: 'psi1psi'"):
        TautClass2.from_json_dict(blob)


def test_class_json_refuses_bare_strings():
    # iterated, "12" would read as the characters "1" and "2", that is 2*d + 1
    with pytest.raises(ValueError, match="'psi1psi2' must be a list of rational strings, got '12'"):
        TautClass2.from_json_dict({"psi1psi2": "12"})


@pytest.mark.parametrize("entry", ["1.5", " 2/4 ", "1e3", "+2", 0.5, 3])
def test_class_json_entries_are_rational_strings(entry):
    # Fraction() would read "1.5", " 2/4 " and "1e3" as 3/2, 1/2 and 1000
    with pytest.raises(ValueError, match=re.escape(f"'psi1psi2': expected a 'p/q' string, got {entry!r}")):
        TautClass2.from_json_dict({"psi1psi2": ["1", entry]})


@pytest.mark.parametrize("value", [{"1": 2}, 5, None, True, ("1",)], ids=repr)
def test_class_json_values_must_be_lists(value):
    # iterated, the object {"1": 2} would read as its key "1", the constant 1
    with pytest.raises(ValueError, match=re.escape(f"'psi1psi2' must be a list of rational strings, got {value!r}")):
        TautClass2.from_json_dict({"psi1psi2": value})


@pytest.mark.parametrize("document", [[], ["psi1psi2"], "psi1psi2", 6, None], ids=repr)
def test_class_json_must_be_an_object(document):
    with pytest.raises(ValueError, match=re.escape(f"class JSON must be an object, got {document!r}")):
        TautClass2.from_json_dict(document)


@pytest.mark.parametrize(
    "document",
    [["x" * 5000], {"psi1psi2": "1" * 5000}, {"psi1psi2": ["1." + "1" * 4998]}, {"x" * 5000: []}],
    ids=["document", "value", "entry", "name"],
)
def test_class_json_does_not_echo_a_long_input_whole(document):
    with pytest.raises(ValueError) as exc:
        TautClass2.from_json_dict(document)
    message = str(exc.value)
    assert "\n" not in message and len(message) < 200
    assert re.search(r"\(500[0-9] characters\)$", message)
