import random
import re
import sys
from fractions import Fraction
from itertools import zip_longest

import pytest

from _reference import fraction_lagrange
from dr2calc import linalg
from dr2calc.m21 import DivisorM21
from dr2calc.polyq import (
    D,
    PolyQ,
    clear_denominators,
    exact,
    format_rational,
    interpolate_columns,
    parse_json,
    parse_rational,
    poly_eval,
    poly_interpolate,
    taylor_shift,
)


def test_rational_normalization():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(-3, -6) == Fraction(1, 2)
    assert Fraction(1, -2).denominator == 2  # denominator stays positive


def test_rational_strings():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-7)) == "-7"
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)


def test_zero_polynomial():
    z = PolyQ()
    assert z.is_zero()
    assert z.num == ()
    assert z(7) == 0
    assert PolyQ((0, 0, 0)) == z  # trailing zeros stripped


def test_int_str_and_fraction_inputs_normalise_alike():
    forms = (
        (1, -2, 0, 3, 0, 0),
        ("1", "-2", "0/7", "3", "0", "-0"),
        (Fraction(1), Fraction(-4, 2), Fraction(0), Fraction(6, 2), Fraction(0), Fraction(0)),
        (Fraction(1), "-2", 0, Fraction(3), "0", Fraction(0)),
    )
    polys = [PolyQ(f) for f in forms]
    for p in polys:
        assert p.coeffs == (Fraction(1), Fraction(-2), Fraction(0), Fraction(3))
        assert all(type(c) is Fraction for c in p.coeffs)
        assert p == polys[0] and hash(p) == hash(polys[0])
    assert PolyQ((0, "0", Fraction(0))).coeffs == ()
    assert PolyQ((Fraction(1, 2), "2/4", 0)).coeffs == (Fraction(1, 2), Fraction(1, 2))


def test_eval_simple():
    p = D**4 - 1
    assert poly_eval(p, 2) == 15
    assert poly_eval(PolyQ(), 7) == 0


def test_eval_quartic_fraction():
    # (d^2-1)(3d^2-7)/5760 at d = 2, expected value computed directly
    p = (D * D - 1) * (3 * D * D - 7) / 5760
    expected = Fraction((4 - 1) * (3 * 4 - 7), 5760)
    assert expected == Fraction(1, 384)
    assert poly_eval(p, 2) == expected


def test_interpolate_constant():
    assert poly_interpolate([(0, 1), (1, 1), (2, 1)]) == PolyQ((1,))
    assert poly_interpolate([(0, 0)]) == PolyQ()


def test_interpolate_quartic():
    # samples of d^4 - 1 computed independently
    samples = [(x, x**4 - 1) for x in range(2, 7)]
    assert [y for _, y in samples] == [15, 80, 255, 624, 1295]
    assert poly_interpolate(samples) == D**4 - 1


def test_interpolate_duplicate_x():
    with pytest.raises(ValueError):
        poly_interpolate([(1, 1), (1, 2)])
    with pytest.raises(ValueError):
        poly_interpolate([])


def _random_poly(rng, max_degree):
    return PolyQ(
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            for _ in range(rng.randint(0, max_degree + 1))
        ]
    )


def test_eval_is_ring_homomorphism():
    rng = random.Random(101)
    for _ in range(200):
        p = _random_poly(rng, 5)
        q = _random_poly(rng, 5)
        x = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)


def test_interpolation_inverts_evaluation():
    rng = random.Random(202)
    for _ in range(100):
        p = _random_poly(rng, 8)
        n = max(len(p.coeffs), 1)
        xs = rng.sample(range(-20, 21), n)
        assert poly_interpolate([(x, p(x)) for x in xs]) == p


def test_division_and_power():
    p = (D - 1) * (D + 1)
    assert p == D * D - 1
    assert (p / 2) * 2 == p
    assert (D + 1) ** 2 == D * D + 2 * D + 1


def test_string_roundtrip():
    p = PolyQ(("-1/2", "0", "3"))
    assert p.to_strings() == ["-1/2", "0", "3"]
    assert PolyQ(p.to_strings()) == p


def test_vector_subclasses_stay_type_distinct():
    from dr2calc import CtClass, DivisorM21, DivisorM22, TautClass2

    classes = (TautClass2, DivisorM22, CtClass, DivisorM21)
    assert [cls.dim for cls in classes] == [14, 6, 5, 3]
    for cls in classes:
        zero, unit = cls.zero(), cls.unit(0)
        assert zero == cls([0] * cls.dim) and zero.is_zero()
        assert type(unit + unit) is cls and type(unit.scale(D)) is cls
        assert type(unit.eval_at(2)) is cls and (unit - unit) == zero
        assert repr(zero) == f"{cls.__name__}(0)"
        assert repr(unit) == f"{cls.__name__}({cls.names[0]}: 1)"
        assert unit.to_json_dict()[cls.names[0]] == ["1"]
        for other in classes:
            if other is not cls:
                assert zero != other.zero() and unit != other.unit(0)
                assert zero.__eq__(other.zero()) is NotImplemented
        with pytest.raises(ValueError):
            cls([0] * (cls.dim + 1))


def test_vector_arithmetic_across_classes_fails():
    from dr2calc import CtClass, DivisorM22, TautClass2

    for a, b in [(CtClass.unit(0), TautClass2.unit(0)), (DivisorM22.unit(1), TautClass2.unit(1))]:
        for x, y in [(a, b), (b, a)]:
            with pytest.raises(TypeError):
                x + y
            with pytest.raises(TypeError):
                x - y


@pytest.mark.parametrize(
    "call",
    [
        lambda x: PolyQ((x,)),
        lambda x: PolyQ((1, x)),
        lambda x: PolyQ.const(x),
        lambda x: D(x),
        lambda x: D / x,
        lambda x: D + x,
        lambda x: D * x,
        lambda x: poly_interpolate([(x, 1)]),
        lambda x: poly_interpolate([(1, x)]),
    ],
    ids=["init", "init-tail", "const", "call", "div", "add", "mul", "interp-x", "interp-y"],
)
def test_floats_are_refused_with_their_value(call):
    with pytest.raises(TypeError, match="0.1"):
        call(0.1)


def test_floats_are_refused_by_vectors_and_the_class():
    from dr2calc import DivisorM22, TautClass2, dr2_class

    with pytest.raises(TypeError, match="2.5"):
        dr2_class(2.5)
    with pytest.raises(TypeError, match="0.5"):
        DivisorM22([0.5, 0, 0, 0, 0, 0])
    with pytest.raises(TypeError, match="0.25"):
        TautClass2.unit(0).scale(0.25)


def test_constants_hash_as_their_value():
    values = [0, 2, -7, Fraction(2), Fraction(-3, 4), Fraction(0), 10**30]
    for v in values:
        p = PolyQ.const(v)
        assert p == v and hash(p) == hash(v)
        assert len({p, v}) == 1
        assert {v: "value"}.get(p) == "value"
        assert {p: "poly"}.get(v) == "poly"
    assert hash(PolyQ()) == 0 and {0: "zero"}.get(PolyQ()) == "zero"
    assert {Fraction(0): "zero"}[PolyQ()] == "zero"
    assert len({PolyQ.const(2), 2, Fraction(2), PolyQ((2, 0))}) == 1
    assert PolyQ.const(2) not in {3, Fraction(2, 3), D + 2}
    assert hash(D + 2) == hash((D + 2).coeffs)


def test_const_keeps_exact_values_and_refuses_floats():
    half = Fraction(1, 2)
    assert PolyQ.const(half).coeffs == (half,)
    assert PolyQ.const("3/6").coeffs == (half,)
    assert PolyQ.const(0).coeffs == ()
    assert all(type(c) is Fraction for c in PolyQ.const(5).coeffs)
    with pytest.raises(TypeError, match="0.5"):
        PolyQ.const(0.5)
    with pytest.raises(TypeError, match="0.5"):
        PolyQ.const(0.5) == 1


def test_format_rational_refuses_floats():
    assert format_rational(3) == "3" and format_rational("2/4") == "1/2"
    with pytest.raises(TypeError, match="0.1"):
        format_rational(0.1)


@pytest.mark.parametrize(
    "value",
    [0.1, 1, Fraction(1, 2), None, "1/0", "abc", ""]
    # Fraction reads all of these but "1/00" as numbers: "1.2" as 6/5, "1e3" as 1000
    + ["1.5", "1e3", " 3/4 ", "1_000", "+2", "1.2", "1/00", "3\n", "\u0663"],
)
def test_parse_rational_takes_only_rational_strings(value):
    # a float 0.1 would otherwise parse to its binary value
    with pytest.raises(ValueError, match=f"expected a 'p/q' string, got {re.escape(repr(value))}"):
        parse_rational(value)


def test_parse_rational_names_the_entry_and_the_digit_limit():
    with pytest.raises(ValueError, match=re.escape("gram row 2: expected a 'p/q' string, got 'pi'")):
        parse_rational("pi", "gram row 2")
    # a numeral int() refuses is reported by its length, not echoed
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ValueError, match=f"limit \\({limit}.*has {limit + 1} digits") as exc:
        parse_rational("-1/" + "7" * (limit + 1))
    assert "p/q" not in str(exc.value) and "7" * 100 not in str(exc.value)


def test_an_echoed_value_is_whole_up_to_the_bound():
    # reprs up to the bound read as they always have; a longer one is cut and measured
    from dr2calc.polyq import _ECHO_LIMIT, _echo

    whole = "x" * (_ECHO_LIMIT - 2)
    assert _echo(whole) == repr(whole)
    assert _echo(whole + "y") == repr(whole + "y")[:_ECHO_LIMIT] + f"... ({_ECHO_LIMIT + 1} characters)"
    assert _echo(7) == "7" and _echo(None) == "None"
    with pytest.raises(ValueError, match=re.escape(f"got {repr('z' * 5000)[:_ECHO_LIMIT]}... (5002 characters)")):
        parse_rational("z" * 5000, "x.json")


def test_exact_is_the_one_gate():
    # ints and Fractions pass as they are; strings parse; floats are refused
    n, q = 10**30 + 7, Fraction(-3, 4)
    assert exact(n) is n and exact(q) is q
    assert exact("-3/4") == q and type(exact("-3/4")) is Fraction
    assert exact(True) == 1 and type(exact(True)) is Fraction
    with pytest.raises(TypeError, match="1.5"):
        exact(1.5)
    with pytest.raises(ValueError, match=re.escape("got '1.5'")):
        exact("1.5")


@pytest.mark.parametrize("length", [13, 15])
def test_dot_refuses_a_row_of_another_length(length):
    from dr2calc import TautClass2
    from dr2calc.surfaces import EquationRow

    # zip would drop the 15th weight, or read a 13-weight row as 0 on slot 13
    weights, unit = (1,) * length, TautClass2.unit(13)
    row = EquationRow(coefficients=weights, rhs=PolyQ(), label="wrong-length", kind="surface")
    for call in (lambda: unit.dot(weights), lambda: row.apply(unit), lambda: row.residual(unit)):
        with pytest.raises(ValueError, match=f"^{length} weights for a vector of 14 coefficients$"):
            call()


def test_dot_is_the_rational_row_action():
    from dr2calc import DivisorM21, TautClass2

    c = DivisorM21((D, 0, Fraction(1, 2)))
    assert c.dot((2, 5, Fraction(-4))) == 2 * D - 2
    assert c.dot((0, 1, 0)) == PolyQ() and DivisorM21.zero().dot((1, 1, 1)) == PolyQ()
    row = [Fraction(k, 3) for k in range(14)]
    cls = TautClass2([D * k + 1 for k in range(14)])
    assert cls.dot(row) == sum((x * w for x, w in zip(cls.coeffs, row)), PolyQ())


def test_dot_matches_the_term_by_term_sum():
    from dr2calc import TautClass2
    from dr2calc.polyq import ZERO

    rng = random.Random(31)
    for _ in range(200):
        cls = TautClass2(
            PolyQ(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(0, 5)))
            for _ in range(14)
        )
        weights = [
            rng.choice((0, Fraction(0), rng.randint(-5, 5), Fraction(rng.randint(-7, 7), rng.randint(1, 9))))
            for _ in range(14)
        ]
        expected = PolyQ()
        for w, c in zip(weights, cls.coeffs):
            expected = expected + c * w
        got = cls.dot(weights)
        assert (got.num, got.den) == (expected.num, expected.den)
        if not got:
            assert got is ZERO


@pytest.mark.parametrize("weights", [(0.5, 0, 0), (1, 0, 0.0)], ids=["live-term", "zero-term"])
def test_dot_refuses_float_weights(weights):
    from dr2calc import DivisorM21

    with pytest.raises(TypeError, match=re.escape(repr(next(w for w in weights if isinstance(w, float))))):
        DivisorM21((D, 1, 0)).dot(weights)


def _newton_interpolate(xs, ys):
    """Reference: divided differences over Fraction, expanded from Newton form."""
    coef = list(ys)
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    out = PolyQ()
    for k in range(len(xs) - 1, -1, -1):
        out = out * (D - xs[k]) + coef[k]
    return out


def test_clear_denominators_puts_rows_over_their_lcm():
    rows = [[Fraction(1, 2), Fraction(-2, 3)], [], [4, Fraction(5, 6)]]
    assert clear_denominators(rows) == ([[3, -4], [], [24, 5]], 6)
    assert clear_denominators([]) == ([], 1)


def test_interpolate_columns_matches_newton_on_rational_points():
    rng = random.Random(303)
    for _ in range(150):
        n = rng.randint(1, 9)
        xs = []
        while len(xs) < n:
            x = Fraction(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 7]))
            if x not in xs:
                xs.append(x)
        columns = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in xs] for _ in range(rng.randint(1, 4))
        ]
        columns.append([0] * n)
        got = interpolate_columns(xs, columns)
        assert got == [_newton_interpolate(xs, [Fraction(y) for y in col]) for col in columns]
        assert got[-1] == PolyQ()
        assert [poly_interpolate(zip(xs, col)) for col in columns] == got
        assert all(type(c) is Fraction for p in got for c in p.coeffs)


@pytest.mark.parametrize("n", range(1, 11))
def test_interpolate_columns_matches_the_fraction_lagrange_reference(n):
    # Negative and fractional abscissae, so that the common denominator q of
    # the xs is not 1 and the synthetic division of the basis divides by it.
    rng = random.Random(4100 + n)
    for _ in range(12):
        xs = []
        while len(xs) < n:
            x = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 5, 6]))
            if x not in xs:
                xs.append(x)
        if n > 1 and all(x.denominator == 1 for x in xs):
            xs[-1] = Fraction(2 * rng.randint(-30, 30) + 1, 2)
        columns = [[Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in xs] for _ in range(3)]
        got = interpolate_columns(xs, columns)
        assert [p.coeffs + (0,) * (n - len(p.coeffs)) for p in got] == [
            tuple(fraction_lagrange(xs, col)) for col in columns
        ]


def test_interpolate_columns_single_point_and_no_columns():
    assert interpolate_columns([Fraction(1, 3)], [[Fraction(-5, 2)], [0]]) == [PolyQ((Fraction(-5, 2),)), PolyQ()]
    assert interpolate_columns([1, 2], []) == []


@pytest.mark.parametrize(
    "xs, columns, message",
    [
        ([], [[]], "at least one sample"),
        ([1, Fraction(2, 2)], [[0, 0]], "duplicate abscissae"),
        ([1, 2], [[0]], "column of 1 values for 2 abscissae"),
    ],
    ids=["empty", "duplicate", "short-column"],
)
def test_interpolate_columns_refuses_ill_posed_input(xs, columns, message):
    with pytest.raises(ValueError, match=message):
        interpolate_columns(xs, columns)


@pytest.mark.parametrize("p", [PolyQ(), PolyQ((1,)), D, PolyQ((Fraction(1, 2), 0, -3))], ids=["zero", "one", "d", "quadratic"])
@pytest.mark.parametrize("zero", [0, Fraction(0), "0", "0/5"])
def test_division_by_zero_raises_for_every_polynomial(p, zero):
    with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
        p / zero


# Reference: the Fraction-tuple arithmetic that PolyQ used before it stored
# integer numerators over one denominator.  A polynomial is the tuple of its
# Fraction coefficients, ascending, with no trailing zero.


def _ref_strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    return _ref_strip(x + y for x, y in zip_longest(a, b, fillvalue=0))


def _ref_neg(a):
    return tuple(-c for c in a)


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_strip(out)


def _ref_pow(a, n):
    out = (Fraction(1),)
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _ref_hash(a):
    if len(a) <= 1:
        return hash(a[0]) if a else 0
    return hash(a)


def _ref_str(a):
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "d" if k == 1 else f"d^{k}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _spelling(rng):
    """One coefficient as an int, a Fraction or a "p/q" string, often zero,
    sometimes with a numerator or denominator far beyond 64 bits."""
    big = rng.random() < 0.2
    num = rng.randint(-(10**30), 10**30) if big else rng.randint(-9, 9)
    if rng.random() < 0.25:
        num = 0
    den = rng.randint(1, 10**20) if big and rng.random() < 0.5 else rng.randint(1, 12)
    form = rng.randrange(3)
    if form == 0:
        return num // den if den == 1 or num % den == 0 else Fraction(num, den)
    if form == 1:
        return Fraction(num, den)
    return f"{num}/{den}" if rng.random() < 0.5 else str(Fraction(num, den))


def _pair(rng):
    """A PolyQ built from mixed spellings, and its reference tuple."""
    kind = rng.random()
    if kind < 0.1:
        spellings = []
    elif kind < 0.3:
        spellings = [_spelling(rng)]
    else:
        spellings = [_spelling(rng) for _ in range(rng.randint(1, 9))]
    if spellings and rng.random() < 0.2:
        spellings += [0, "0", Fraction(0)][: rng.randint(1, 3)]
    return PolyQ(spellings), _ref_strip(Fraction(s) for s in spellings)


def _assert_matches(p, ref):
    assert p.coeffs == ref
    assert all(type(c) is Fraction for c in p.coeffs)
    assert str(p) == _ref_str(ref)
    assert repr(p) == f"PolyQ({[str(c) for c in ref]})"
    assert p.to_strings() == [str(c) for c in ref]
    assert hash(p) == _ref_hash(ref)
    assert len(p.num) == len(ref)
    assert p.is_zero() is (not ref) and bool(p) is bool(ref)
    for k in range(-1, len(ref) + 2):
        assert p.coefficient(k) == (ref[k] if 0 <= k < len(ref) else 0)
        assert type(p.coefficient(k)) is Fraction
    if len(ref) <= 1:
        assert p.constant_value() == (ref[0] if ref else 0)
        assert type(p.constant_value()) is Fraction
    else:
        with pytest.raises(ValueError, match="not a constant polynomial"):
            p.constant_value()


def test_arithmetic_matches_the_fraction_tuple_reference():
    rng = random.Random(1212)
    for _ in range(400):
        (p, rp), (q, rq) = _pair(rng), _pair(rng)
        _assert_matches(p, rp)
        k = Fraction(_spelling(rng))
        n = rng.randint(0, 3)
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        cases = [
            (p + q, _ref_add(rp, rq)),
            (p - q, _ref_add(rp, _ref_neg(rq))),
            (p * q, _ref_mul(rp, rq)),
            (-p, _ref_neg(rp)),
            (p**n, _ref_pow(rp, n)),
            (p + k, _ref_add(rp, (k,) if k else ())),
            (k - p, _ref_add((k,) if k else (), _ref_neg(rp))),
            (k * p, _ref_mul((k,) if k else (), rp)),
            (p - p, ()),
        ]
        if k:
            cases.append((p / k, _ref_strip(c / k for c in rp)))
        for got, ref in cases:
            _assert_matches(got, ref)
        assert p(x) == _ref_eval(rp, x) and type(p(x)) is Fraction
        assert p(int(x)) == _ref_eval(rp, int(x))
        assert p(str(x)) == _ref_eval(rp, x)
        assert (p == q) is (rp == rq) and (p != q) is (rp != rq)
        assert (p == PolyQ(rq)) is (rp == rq)
        if len(rp) <= 1:
            value = rp[0] if rp else Fraction(0)
            assert p == value and hash(p) == hash(value)
            if value.denominator == 1:
                assert p == int(value) and hash(p) == hash(int(value))


def test_fields_are_integer_numerators_over_one_denominator():
    p = PolyQ(("1/6", "-2/4", 0, "5/3", 0))
    assert (p.num, p.den) == ((1, -3, 0, 10), 6)
    assert (PolyQ().num, PolyQ().den) == ((), 1)
    assert (PolyQ((0, "0/3")).num, PolyQ((0, "0/3")).den) == ((), 1)
    assert (PolyQ.const(Fraction(-4, 6)).num, PolyQ.const(Fraction(-4, 6)).den) == ((-2,), 3)
    assert ((p * 6).num, (p * 6).den) == ((1, -3, 0, 10), 1)
    assert ((p / Fraction(-1, 2)).num, (p / Fraction(-1, 2)).den) == ((-1, 3, 0, -10), 3)
    with pytest.raises(AttributeError):
        p.coeffs = ()


@pytest.mark.parametrize("text", ["1.5", "1e3", " 2/4 ", "1_0", "+2"])
@pytest.mark.parametrize(
    "call",
    [
        lambda s: PolyQ((1, s)),
        lambda s: PolyQ.const(s),
        lambda s: DivisorM21((0, s, 0)),
        lambda s: linalg.rank([[1, s]]),
        lambda s: linalg.solve_unique([[1]], [s]),
        lambda s: poly_interpolate([(1, s)]),
    ],
    ids=["init", "const", "vector", "rank", "solve-rhs", "interp"],
)
def test_strings_other_than_p_over_q_are_refused(call, text):
    # Fraction() alone would read these as 3/2, 1000, 1/2, 10 and 2
    with pytest.raises(ValueError, match="expected a 'p/q' string"):
        call(text)


def test_a_long_duplicated_key_is_not_echoed_whole():
    key = "k" * 5000
    with pytest.raises(ValueError) as exc:
        parse_json(f'{{"{key}": 1, "{key}": 2}}')
    message = str(exc.value)
    assert "\n" not in message and len(message) < 200 and message.endswith("(5002 characters)")
    with pytest.raises(ValueError, match="^duplicate key 'k'$"):
        parse_json('{"k": 1, "k": 2}')


def test_taylor_shift_is_composition_with_d_plus_a():
    rng = random.Random(4400)
    for _ in range(200):
        p = PolyQ(Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(rng.randint(0, 6)))
        a = rng.randint(-5, 5)
        shifted = taylor_shift(p, a)
        composed = sum(((D + a) ** k * c for k, c in enumerate(p.coeffs)), PolyQ())
        assert shifted == composed
        assert all(shifted(x) == p(x + a) for x in (-2, 0, Fraction(3, 7)))

