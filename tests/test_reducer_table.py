"""The integer table of each quotient ring, read directly.

Each reducer keeps the class of every monomial as integers over one common
denominator.  These tests sum table rows by hand, without the reducer's own
kernel, and check the three facts that pin the table down: relations map to
zero, basis monomials map to den times their unit vector, and killed
monomials map to nothing.  The last tests feed the constructor relations
that do not span and a basis that is dependent modulo the relations.
"""

from fractions import Fraction

import pytest

from dr2calc import chow, ct
from dr2calc.chow import BASIS_MONOMIALS, D0, D2, D11, D12, MONOMIALS, PSI1, PSI2, RELATIONS, mono
from dr2calc.polyq import D

CT_BASIS = (
    (mono(PSI1, D11), mono(PSI2, D11)),
    (mono(PSI1, D12),),
    (mono(PSI2, D12),),
    (mono(D2, D2),),
    (mono(D12, D2),),
)

RINGS = {
    "chow": (chow._REDUCER, RELATIONS, BASIS_MONOMIALS, frozenset()),
    "ct": (
        ct._CT_REDUCER,
        ct.CT_RELATIONS + RELATIONS,
        CT_BASIS,
        frozenset(m for m in MONOMIALS if D0 in m),
    ),
}


def _table_sum(reducer, expr):
    """sum of c * rows[m] over the monomials m of expr, as Fractions."""
    out = [Fraction(0)] * reducer.vector_cls.dim
    for (i, j), c in expr.items():
        for slot, n in reducer.rows[mono(i, j)]:
            out[slot] += Fraction(c) * n
    return out


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_table_is_symmetric_with_integer_weights(ring):
    reducer = RINGS[ring][0]
    assert type(reducer.den) is int and reducer.den > 0
    # keyed by unordered monomial, so (i, j) and (j, i) read one entry
    assert set(reducer.rows) == set(MONOMIALS)
    for entry in reducer.rows.values():
        assert all(type(n) is int and n != 0 for _, n in entry)


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_relations_sum_to_zero_along_the_table(ring):
    reducer, relations, _, _ = RINGS[ring]
    for rel in relations:
        expr = {m: c.constant_value() for m, c in rel.items()}
        assert all(x == 0 for x in _table_sum(reducer, expr))


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_basis_monomials_sum_to_den_times_their_unit_vector(ring):
    reducer, _, basis, _ = RINGS[ring]
    assert len(basis) == reducer.vector_cls.dim
    for slot, monomials in enumerate(basis):
        want = [Fraction(0)] * len(basis)
        want[slot] = Fraction(reducer.den)
        assert _table_sum(reducer, {m: 1 for m in monomials}) == want


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_killed_monomials_have_empty_entries(ring):
    reducer, _, _, killed = RINGS[ring]
    for i, j in killed:
        assert reducer.rows[mono(i, j)] == ()


_CONSTANT = chow.DivisorM22((1, 1, 0, 0, 1, 0))  # psi1 + psi2 + d11
_POLYNOMIAL = chow.DivisorM22((D, 1, 0, 0, D, 0))
KERNELS = {
    "chow": (
        lambda: chow.multiply_divisors(_CONSTANT, _CONSTANT),
        lambda: chow.multiply_divisors(_POLYNOMIAL, _POLYNOMIAL),
        lambda: chow.reduce_to_basis({mono(PSI1, D11): 1}),
    ),
    "ct": (
        lambda: ct.hain_class(2),
        lambda: ct.hain_class(D),
        lambda: ct.reduce_ct({mono(PSI1, D11): 1}),
    ),
}


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_every_kernel_reads_the_one_table(monkeypatch, ring):
    # numeric products, polynomial products and reductions all move when one
    # entry of rows does: none of them reads a copy of the table
    reducer = RINGS[ring][0]
    before = [kernel() for kernel in KERNELS[ring]]
    entry = reducer.rows[mono(PSI1, D11)] + ((0, reducer.den),)
    monkeypatch.setattr(reducer, "rows", {**reducer.rows, mono(PSI1, D11): entry})
    after = [kernel() for kernel in KERNELS[ring]]
    assert [x != y for x, y in zip(before, after)] == [True, True, True]


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_reduction_rejects_keys_that_are_not_monomials(ring):
    reducer = RINGS[ring][0]
    for key in [(-1, 0), (0, 6), ("psi1", "psi1")]:
        with pytest.raises(KeyError):
            reducer({key: 1})


@pytest.mark.parametrize("dropped", range(len(RELATIONS)))
def test_relations_that_do_not_span_are_refused(dropped):
    relations = RELATIONS[:dropped] + RELATIONS[dropped + 1 :]
    with pytest.raises(ValueError, match="span 20 of the 21 monomials"):
        chow.QuotientReducer(chow.TautClass2, relations, BASIS_MONOMIALS)


def test_a_basis_dependent_modulo_the_relations_is_refused():
    # (psi1 - psi2)(d11 - d12) is a compact-type relation, so these four
    # products are dependent although no two of them are equal.
    basis = ((mono(PSI1, D11),), (mono(PSI2, D11),), (mono(PSI1, D12),), (mono(PSI2, D12),), (mono(D2, D2),))
    killed = tuple({m: 1} for m in MONOMIALS if D0 in m)
    with pytest.raises(ValueError, match="basis is dependent modulo the relations"):
        chow.QuotientReducer(ct.CtClass, ct.CT_RELATIONS + killed, basis)
