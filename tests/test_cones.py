import json
import random
import re
import sys
from fractions import Fraction

import pytest

from dr2calc.chow import DivisorM22, TautClass2, dr2_class, multiply_divisors, swap_markings
from dr2calc.cones import (
    EffectiveDivisorPattern,
    ci_obstruction,
    cone_decomposition,
    dr_count_two_points,
    dr_infinity,
    load_strata_table,
    nonextremality_check,
    nonpolynomiality_witness,
)
from dr2calc.polyq import D, ZERO, PolyQ

F = Fraction


def _pattern(rng):
    return EffectiveDivisorPattern(
        *[F(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(6)]
    )


def test_pattern_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        EffectiveDivisorPattern(F(1), F(-1), F(0), F(0), F(0), F(0))


@pytest.mark.parametrize("slot", range(6))
@pytest.mark.parametrize("value", [0.5, -0.5, 0.0])
def test_pattern_refuses_floats_at_construction(slot, value):
    weights = [F(1), 2, F(0), 0, F(3, 2), F(0)]
    EffectiveDivisorPattern(*weights)  # ints and Fractions are accepted
    weights[slot] = value
    with pytest.raises(TypeError, match=repr(value)):
        EffectiveDivisorPattern(*weights)


@pytest.mark.parametrize("slot", range(6))
@pytest.mark.parametrize("value", ["1/2", "0", None, [1]], ids=["str", "str-zero", "none", "list"])
def test_pattern_refuses_non_rational_weights_naming_the_field(slot, value):
    weights = [F(1), 2, F(0), 0, F(3, 2), F(0)]
    weights[slot] = value
    field = ("psi1", "psi2", "d0", "d2", "d11", "d12")[slot]
    with pytest.raises(
        TypeError,
        match=re.escape(f"pattern coefficient {field} must be an int or Fraction, got {value!r}"),
    ):
        EffectiveDivisorPattern(*weights)


@pytest.mark.parametrize(
    "weights",
    [
        (1, 2, 0, 3, 12, 0),
        (F(1, 2), F(2, 3), F(0), F(5, 4), F(7), F(12, 5)),
        (0, F(3, 6), 4, F(0), 0, F(11, 3)),
    ],
    ids=["ints", "fractions", "mixed"],
)
def test_to_divisor_matches_the_public_constructor(weights):
    psi1, psi2, d0, d2, d11, d12 = weights
    divisor = EffectiveDivisorPattern(*weights).to_divisor()
    public = DivisorM22([psi1, psi2, -d0, -d2, -d11, -d12])
    assert divisor == public and hash(divisor) == hash(public)
    for got, want, weight in zip(divisor.coeffs, public.coeffs, weights):
        # the canonical form: the public constructor's int numerators and denominator
        assert type(got) is PolyQ and all(type(n) is int for n in got.num) and type(got.den) is int
        assert (got.num, got.den) == (want.num, want.den)
        if not weight:
            assert got is ZERO


def test_ci_obstruction_examples():
    ones = EffectiveDivisorPattern(F(1), F(1), F(0), F(0), F(0), F(0))
    assert ci_obstruction(ones, ones) == 1
    deltas_only = EffectiveDivisorPattern(F(0), F(0), F(2), F(1), F(3), F(4))
    rng = random.Random(5)
    assert ci_obstruction(deltas_only, _pattern(rng)) == 0


def test_ci_obstruction_closed_form_property():
    rng = random.Random(2024)
    for _ in range(300):
        a, b = _pattern(rng), _pattern(rng)
        got = ci_obstruction(a, b)
        assert got == (a.psi1 * b.psi1 + a.psi2 * b.psi2) / 2
        assert got >= 0


def test_class_fused_slot_is_negative():
    slot = dr2_class(D).coeffs[1]
    assert slot == (D * D - 1) * (2 - D * D) / 4
    for d in range(2, 51):
        assert slot(d) < 0


def test_dr_infinity_slots():
    inf = dr_infinity()
    expected = [
        F(1, 2),
        F(-1, 4),
        F(-3, 20),
        F(-3, 20),
        F(1, 10),
        F(1, 10),
        F(1, 120),
        F(1, 120),
    ] + [F(0)] * 6
    assert [c.constant_value() for c in inf.coeffs] == expected


def test_cone_decomposition_symbolic():
    base, limit = cone_decomposition(D)
    assert base == (D * D - 1) / 3
    assert limit == (D * D - 1) * (D * D - 4)
    # identity slot-wise
    recombined = dr2_class(2).scale(base) + dr_infinity().scale(limit)
    assert recombined == dr2_class(D)


def test_cone_decomposition_values():
    assert cone_decomposition(2) == (PolyQ((1,)), PolyQ())
    base, limit = cone_decomposition(3)
    assert (base, limit) == (PolyQ((F(8, 3),)), PolyQ((40,)))
    for d in range(2, 30):
        b, l = cone_decomposition(d)
        assert b.constant_value() >= 0 and l.constant_value() >= 0


def test_nonextremality_gated_without_table():
    report = nonextremality_check(None)
    assert report.status == "skipped_missing_data"
    assert report.residual is None
    assert all(w > 0 for w in report.weights.values())
    assert sorted(report.weights.values()) == sorted(
        [F(1, 5), F(1, 60), F(2, 5), F(1, 30), F(1, 30), F(1, 360), F(1, 15)]
    )


def test_nonextremality_zero_table_residual():
    zero = TautClass2.zero()
    table = {"d11|": zero, "d01|": zero, "d0|": zero, "d00": zero}
    report = nonextremality_check(table)
    assert report.status == "failed"
    residual = report.residual
    expected = (
        dr_infinity()
        - TautClass2.unit(9).scale(F(1, 5))
        - TautClass2.unit(10).scale(F(1, 60))
        - dr2_class(2).scale(F(1, 15))
    )
    assert residual == expected
    assert not residual.is_zero()
    assert residual.coeffs[0] == F(1, 10)  # psi1psi2 slot
    assert residual.coeffs[9] == F(-1, 5)  # d12d2 slot


def test_strata_table_loading(tmp_path):
    zero_row = ["0"] * 14
    doc = {"d11|": zero_row, "d01|": zero_row, "d0|": zero_row, "d00": zero_row}
    path = tmp_path / "strata.json"
    path.write_text(json.dumps(doc))
    table = load_strata_table(str(path))
    assert set(table) == {"d11|", "d01|", "d0|", "d00"}
    assert all(v.is_zero() for v in table.values())

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d11|": ["0"] * 13}))
    with pytest.raises(ValueError):
        load_strata_table(str(bad))
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"d11|": zero_row}))
    with pytest.raises(ValueError):
        load_strata_table(str(missing))
    # an unknown name, such as "d11" for "d11|", is named, never ignored
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps(dict(doc, d11=zero_row)))
    with pytest.raises(ValueError, match=r"\['d11'\].*'d11\|', 'd01\|', 'd0\|', 'd00'"):
        load_strata_table(str(unknown))
    # entries must be "p/q" strings: a JSON float or null names its place
    for value in (0.1, None):
        entry = tmp_path / "entry.json"
        entry.write_text(json.dumps(dict(doc, d00=["0"] * 13 + [value])))
        with pytest.raises(ValueError, match=r"'d00' entry 13"):
            load_strata_table(str(entry))


def test_fiber_counts():
    assert dr_count_two_points(3) == 16
    assert dr_count_two_points(0) == 0
    assert dr_count_two_points(1) == 0
    assert dr_count_two_points(-2) == 6


def test_nonpolynomiality_witness():
    report = nonpolynomiality_witness(4)
    assert report.sample_points == (1, 2, 3, 4, 5)
    assert report.interpolant == 2 * (D * D - 1)
    assert report.value_at_zero == -2
    assert report.count_at_zero == 0
    assert report.witnesses_nonpolynomiality
    # the interpolant does agree at the nonzero samples, e.g. at 1
    assert report.interpolant(1) == dr_count_two_points(1)


def test_nonpolynomiality_degree_edge_cases():
    # degree <= 1: two samples force the line through (1,0), (2,6)
    report = nonpolynomiality_witness(1)
    assert report.value_at_zero == -6
    assert report.witnesses_nonpolynomiality
    # degree 0: the single sample (1, 0) yields the zero constant, which
    # happens to agree at 0; no witness at this degree
    report = nonpolynomiality_witness(0)
    assert report.polynomial_matches
    with pytest.raises(ValueError):
        nonpolynomiality_witness(-1)


_CLASS, _DIVISOR, _PATTERN = TautClass2.unit(0), DivisorM22.unit(0), EffectiveDivisorPattern(1, 1, 0, 0, 0, 0)


@pytest.mark.parametrize(
    "func, args, wanted, got",
    [
        # a TautClass2 would read its first six of 14 slots as divisor coefficients
        (multiply_divisors, (_CLASS, _CLASS), "a DivisorM22", "TautClass2"),
        (multiply_divisors, (_DIVISOR, _CLASS), "a DivisorM22", "TautClass2"),
        (multiply_divisors, (_DIVISOR.coeffs, _DIVISOR), "a DivisorM22", "tuple"),
        (swap_markings, (_DIVISOR,), "a TautClass2", "DivisorM22"),
        (ci_obstruction, (_DIVISOR, _DIVISOR), "an EffectiveDivisorPattern", "DivisorM22"),
        (ci_obstruction, (_PATTERN, _DIVISOR), "an EffectiveDivisorPattern", "DivisorM22"),
    ],
    ids=["classes", "second-factor", "tuple", "swap-divisor", "ci-divisors", "ci-second-divisor"],
)
def test_the_product_path_refuses_other_types_by_name(func, args, wanted, got):
    with pytest.raises(TypeError, match=f"^{func.__name__} takes {wanted}, got {got}$"):
        func(*args)


@pytest.mark.parametrize("max_degree", [True, False, 2.0, F(3, 2), F(2), "3", None], ids=repr)
def test_nonpolynomiality_witness_takes_only_an_int_degree(max_degree):
    with pytest.raises(TypeError, match=re.escape(f"max_degree must be an int, got {max_degree!r}")):
        nonpolynomiality_witness(max_degree)


def test_strata_table_must_be_a_json_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([["0"] * 14] * 4))
    with pytest.raises(ValueError, match="strata table must be a JSON object"):
        load_strata_table(str(path))


def test_a_strata_entry_over_the_digit_limit_names_the_limit(tmp_path):
    # a well-formed "p/q" whose numerator int() refuses is not a malformed string
    limit = sys.get_int_max_str_digits()
    doc = {name: ["0"] * 14 for name in ("d11|", "d01|", "d0|", "d00")}
    doc["d00"][13] = "1" * (limit + 700) + "/3"
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape("stratum 'd00' entry 13: ")) as exc:
        load_strata_table(str(path))
    message = str(exc.value)
    assert f"limit ({limit}" in message and f"has {limit + 700} digits" in message
    assert "p/q" not in message and "1" * 100 not in message


def test_float_degrees_are_refused_after_warm_calls():
    # hash(2.0) == hash(2): no cache may answer a float degree for its int
    from dr2calc.ct import verify_hac

    assert cone_decomposition(2) == (1, 0)
    assert verify_hac(2).ok
    assert dr2_class(2) == dr2_class(PolyQ.const(2))
    for call in (cone_decomposition, verify_hac, dr2_class):
        with pytest.raises(TypeError, match="float 2.0 is not exact"):
            call(2.0)


def test_memoized_rays_equal_a_fresh_computation():
    from dr2calc import cones

    assert dr_infinity() is dr_infinity()
    assert dr_infinity() == TautClass2(PolyQ.const(c.coefficient(4)) for c in dr2_class(D).coeffs)
    assert cones._degree_two_class() is cones._degree_two_class()
    assert cones._degree_two_class() == dr2_class(2)


def test_warm_rays_do_not_outlive_a_replaced_constructor(monkeypatch):
    # the rays are keyed on the class constructor they read, so a warm memo
    # must not answer for a replaced one, and a failure is not kept
    from dr2calc import cones
    from dr2calc.checks import check_cone_decomposition

    passing = check_cone_decomposition()
    assert passing.passed
    monkeypatch.setattr(cones, "dr2_class", lambda d: dr2_class(d).scale(2))
    assert check_cone_decomposition().details == "limit class slots differ"
    size = cones._rays.cache_info().currsize

    def refused(d):
        raise ArithmeticError("no class")

    monkeypatch.setattr(cones, "dr2_class", refused)
    with pytest.raises(ArithmeticError, match="no class"):
        dr_infinity()
    assert cones._rays.cache_info().currsize == size
    monkeypatch.undo()
    assert check_cone_decomposition() == passing
    assert cone_decomposition(5) == (8, 504)


def test_a_long_strata_entry_is_not_echoed_whole(tmp_path):
    value = "p" * 5000
    doc = {name: ["0"] * 14 for name in ("d11|", "d01|", "d0|", "d00")}
    doc["d00"][13] = value
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape("stratum 'd00' entry 13: expected a 'p/q' string")) as exc:
        load_strata_table(str(path))
    message = str(exc.value)
    assert "\n" not in message and len(message) < 200 and message.endswith("(5002 characters)")


def test_a_long_unknown_stratum_is_not_echoed_whole(tmp_path):
    doc = {name: ["0"] * 14 for name in ("d11|", "d01|", "d0|", "d00", "s" * 5000)}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="^strata table has unknown strata ") as exc:
        load_strata_table(str(path))
    message = str(exc.value)
    # the repr of the one-name list: two brackets and two quotes around the name
    assert "\n" not in message and len(message) < 200 and "(5004 characters)" in message
