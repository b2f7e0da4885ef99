import hashlib
import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

from dr2calc import surfaces
from dr2calc.chow import RELATIONS, DivisorM22, TautClass2, dr2_class, swap_markings
from dr2calc.ct import CtClass
from dr2calc.polyq import D
from dr2calc.surfaces import (
    DISPLAYED_INTERSECTIONS,
    SurfaceModel,
    _fixture_bytes,
    _parse_surface,
    builtin_surfaces,
    equation_row,
    fixture_checksums,
    full_system_rows,
    gated_matrix,
    pushforward_rows,
    symmetry_rows,
)

F = Fraction

SURFACES = {s.family: s for s in builtin_surfaces()}

# slot permutation induced by swapping the marked points
SWAP = (0, 1, 3, 2, 5, 4, 7, 6, 8, 9, 10, 11, 12, 13)


def test_ten_surfaces_load():
    assert sorted(SURFACES) == list(range(1, 11))
    for s in SURFACES.values():
        assert len(s.gram) == len(s.generators)


# Explicit ids name each case by its index, so that the type of the
# expected value does not rename the 34 cases.
@pytest.mark.parametrize(
    "family,gen_a,gen_b,expected",
    DISPLAYED_INTERSECTIONS,
    ids=[f"{f}-{a}-{b}-expected{k}" for k, (f, a, b, _) in enumerate(DISPLAYED_INTERSECTIONS)],
)
def test_golden_intersection_numbers(family, gen_a, gen_b, expected):
    assert SURFACES[family].pair_generators(gen_a, gen_b) == expected


def test_absent_generator_restricts_to_zero():
    s = SURFACES[3]
    assert all(x == 0 for x in s.restriction("psi1"))
    with pytest.raises(KeyError):
        s.restriction("nonsense")


@pytest.mark.parametrize("gen_a, gen_b", [("nonsense", "psi1"), ("psi1", "nonsense")])
def test_pair_generators_refuses_unknown_names(gen_a, gen_b):
    with pytest.raises(KeyError, match="unknown divisor generator 'nonsense'"):
        SURFACES[1].pair_generators(gen_a, gen_b)


def test_relations_pair_to_zero_on_every_surface():
    # the surface functionals are well-defined on the quotient
    for s in SURFACES.values():
        for rel in RELATIONS:
            total = F(0)
            for (i, j), coeff in rel.items():
                from dr2calc.chow import GENERATORS

                total += coeff.constant_value() * s.pair_generators(
                    GENERATORS[i], GENERATORS[j]
                )
            assert total == 0, (s.family, rel)


def test_equation_rows_frozen():
    row1 = equation_row(SURFACES[1])
    expected1 = {0: F(6), 1: F(4), 8: F(-2)}
    for k, c in enumerate(row1.coefficients):
        assert c == expected1.get(k, F(0))
    assert row1.rhs == 2 * (D**4 - 1)

    row3 = equation_row(SURFACES[3])
    expected3 = {13: F(288), 12: F(-24)}
    for k, c in enumerate(row3.coefficients):
        assert c == expected3.get(k, F(0))
    assert row3.rhs.is_zero()

    row9 = equation_row(SURFACES[9])
    expected9 = {4: F(-1), 5: F(-1), 6: F(12), 7: F(12)}
    for k, c in enumerate(row9.coefficients):
        assert c == expected9.get(k, F(0))
    assert row9.rhs.is_zero()

    row2 = equation_row(SURFACES[2])
    expected2 = {0: F(1), 2: F(-1), 3: F(-1), 4: F(1), 5: F(1)}
    for k, c in enumerate(row2.coefficients):
        assert c == expected2.get(k, F(0))
    assert row2.rhs == (D * D - 1) ** 2


def test_asymmetric_gram_rejected():
    s = SURFACES[1]
    bad = SurfaceModel(
        name="broken",
        family=99,
        generators=s.generators,
        gram=((F(0), F(1), F(1)), (F(2), F(0), F(1)), (F(1), F(1), F(-2))),
        restrictions=s.restrictions,
        rhs=s.rhs,
        rationale="",
    )
    with pytest.raises(ValueError):
        equation_row(bad)


def test_symmetry_rows():
    rows = symmetry_rows()
    assert len(rows) == 3
    slots = [(2, 3), (4, 5), (6, 7)]
    for row, (a, b) in zip(rows, slots):
        for k, c in enumerate(row.coefficients):
            expected = F(1) if k == a else F(-1) if k == b else F(0)
            assert c == expected
        assert row.rhs.is_zero()


def test_pushforward_rows_frozen():
    rows = pushforward_rows()
    psi_row, d0_row, d1_row = rows
    assert psi_row.coefficients == (
        F(3), F(2), F(0), F(0), F(0), F(0), F(0), F(0), F(-1),
        F(0), F(0), F(0), F(0), F(0),
    )
    assert psi_row.rhs == D**4 - 1
    assert d0_row.coefficients == (
        F(0), F(1, 5), F(0), F(0), F(0), F(0), F(3), F(1), F(0),
        F(0), F(1), F(0), F(0), F(0),
    )
    assert d0_row.rhs == -(D * D - 1) * (D * D + 6) / 60
    assert d1_row.coefficients == (
        F(0), F(7, 5), F(1), F(0), F(2), F(1), F(0), F(0), F(0),
        F(1), F(0), F(0), F(0), F(0),
    )
    assert d1_row.rhs == -(D * D - 1) * (D * D + 6) / 5


def test_every_row_vanishes_on_the_class():
    c = dr2_class(D)
    rows = full_system_rows()
    assert len(rows) == 16
    for row in rows:
        assert row.residual(c).is_zero(), row.label


def test_symmetric_families_have_swap_invariant_rows():
    for family in (1, 2, 3, 9):
        row = equation_row(SURFACES[family])
        swapped = tuple(row.coefficients[k] for k in SWAP)
        assert swapped == row.coefficients


def test_row_functional_respects_swap_on_symmetric_families():
    rng = random.Random(88)
    for family in (1, 2, 3, 9):
        row = equation_row(SURFACES[family])
        for _ in range(5):
            c = TautClass2(
                [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(14)]
            )
            assert row.apply(swap_markings(c)) == row.apply(c)


def test_fixture_checksums_shape():
    sums = fixture_checksums()
    assert len(sums) == 10
    assert all(len(v) == 64 for v in sums.values())


def test_fixture_checksums_fall_back_to_hashlib(monkeypatch):
    # With neither private built-in SHA-256 module importable, the digests
    # come from hashlib, and they are the same.
    want, real, calls = fixture_checksums(), hashlib.sha256, []

    def sha256(blob):
        calls.append(len(blob))
        return real(blob)

    monkeypatch.setitem(sys.modules, "_sha256", None)
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setattr(hashlib, "sha256", sha256)
    assert fixture_checksums() == want
    assert len(calls) == 10


@pytest.mark.parametrize("vector_cls", [CtClass, DivisorM22], ids=lambda cls: cls.__name__)
def test_equation_row_refuses_other_vectors(vector_cls):
    # a zip over the 14 coefficients would silently truncate a shorter vector
    row = full_system_rows()[0]
    name = vector_cls.__name__
    with pytest.raises(TypeError, match=f"EquationRow.apply takes a TautClass2, got {name}"):
        row.apply(vector_cls.unit(0))
    with pytest.raises(TypeError, match=name):
        row.residual(vector_cls.unit(0))


@pytest.mark.parametrize("value", [0.1, 1, None, "1/0", "one"])
@pytest.mark.parametrize("field", ["gram", "restrictions"])
def test_parse_surface_refuses_non_string_rationals(field, value):
    # a JSON number would load as its binary value; every shipped entry is a string
    doc = json.loads(_fixture_bytes()["family01.json"])
    if field == "gram":
        doc["gram"][0][0] = value
    else:
        next(iter(doc["restrictions"].values()))[0] = value
    with pytest.raises(ValueError, match=re.escape(f"{doc['name']}: expected a 'p/q' string, got {value!r}")):
        _parse_surface(doc)


@pytest.mark.parametrize(
    "value, message",
    [
        # a bare string would be iterated digit by digit: "12" as 1 + 2d
        ("12", "rhs must be a list of 'p/q' strings"),
        ([0.5], "expected a 'p/q' string, got 0.5"),
        # JSON integers are refused here as in the Gram entries
        ([3, 1], "expected a 'p/q' string, got 3"),
    ],
)
def test_parse_surface_reads_rhs_like_gram_entries(value, message):
    doc = json.loads(_fixture_bytes()["family01.json"])
    doc["rhs"] = value
    with pytest.raises(ValueError, match=re.escape(f"{doc['name']}: {message}")):
        _parse_surface(doc)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc["gram"].pop(), "gram shape does not match generators"),
        (lambda doc: doc["gram"][0].append("0"), "gram shape does not match generators"),
        (
            lambda doc: doc["restrictions"].update(d3=["0"] * len(doc["generators"])),
            "unknown generator 'd3'",
        ),
        (
            lambda doc: next(iter(doc["restrictions"].values())).append("0"),
            "restriction length for",
        ),
    ],
    ids=["gram-rows", "gram-columns", "unknown-generator", "restriction-length"],
)
def test_parse_surface_refuses_malformed_shapes(edit, message):
    doc = json.loads(_fixture_bytes()["family01.json"])
    edit(doc)
    with pytest.raises(ValueError, match=re.escape(f"{doc['name']}: {message}")):
        _parse_surface(doc)


def _load_with_family03(monkeypatch, blob):
    blobs = {**_fixture_bytes(), "family03.json": blob}
    monkeypatch.setattr(surfaces, "_fixture_bytes", lambda: blobs)
    return builtin_surfaces()


@pytest.mark.parametrize(
    "field", ["name", "family", "generators", "gram", "restrictions", "rhs", "rationale"]
)
def test_fixture_without_a_required_field_names_file_and_field(monkeypatch, field):
    doc = json.loads(_fixture_bytes()["family03.json"])
    del doc[field]
    with pytest.raises(ValueError, match=re.escape(f"family03.json: missing field {field!r}")):
        _load_with_family03(monkeypatch, json.dumps(doc).encode())


def _family03_with(**fields):
    """family03.json with some fields replaced, as bytes."""
    return json.dumps({**json.loads(_fixture_bytes()["family03.json"]), **fields}).encode()


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"[]", "missing field 'name'"),
        (b"{", "Expecting property name"),
        (
            json.dumps({**json.loads(_fixture_bytes()["family03.json"]), "restrictions": []}).encode(),
            "restrictions must map generators to vectors",
        ),
        (_family03_with(gram=5), "gram must be a list of rows of 'p/q' strings"),
        (_family03_with(gram=["01", "10"]), "gram must be a list of rows of 'p/q' strings"),
        (_family03_with(generators=3), "generators must be a list of generator names"),
        (_family03_with(generators=["x1", 2]), "generators must be a list of generator names"),
        (_family03_with(family="x"), "family must be an integer"),
        (_family03_with(family=3.0), "family must be an integer"),
        (_family03_with(family=True), "family must be an integer"),
        (_family03_with(name=5), "name must be a string"),
        (_family03_with(rationale=["a"]), "rationale must be a string"),
        (
            _family03_with(restrictions={"d0": "00"}),
            "restrictions must map generators to vectors",
        ),
        (_family03_with(family=4), "family field 4 does not match the file name"),
        (
            _family03_with(restriction={"d0": ["0"] * 4}),
            "two_elliptic_pencils_on_a_4_pointed_rational_curve: unknown field 'restriction'",
        ),
        (_family03_with(notes="x"), "unknown field 'notes'"),
    ],
    ids=[
        "not-an-object",
        "not-json",
        "restrictions-list",
        "gram-number",
        "gram-string-rows",
        "generators-number",
        "generators-non-string",
        "family-string",
        "family-float",
        "family-bool",
        "name-number",
        "rationale-list",
        "restriction-string",
        "family-mismatch",
        "misspelled-field",
        "extra-field",
    ],
)
def test_malformed_fixture_names_the_file(monkeypatch, blob, message):
    with pytest.raises(ValueError, match=f"^family03.json: .*{message}"):
        _load_with_family03(monkeypatch, blob)


def _fraction_pairing(s, gen_a, gen_b):
    """Reference: restriction_a . Gram . restriction_b, summed over Fraction."""
    u, v = s.restriction(gen_a), s.restriction(gen_b)
    return sum((ui * s.gram[i][j] * vj for i, ui in enumerate(u) for j, vj in enumerate(v)), F(0))


def _assert_integer_pairings_match_fractions(s):
    from dr2calc.chow import BASIS_MONOMIALS, GENERATORS

    def pair(i, j):
        return _fraction_pairing(s, GENERATORS[i], GENERATORS[j])

    pairings, den = s.monomial_pairings()
    for (i, j), value in pairings.items():
        assert F(value, den) == pair(i, j), (s.name, i, j)
        for a, b in ((i, j), (j, i)):
            assert s.pair_generators(GENERATORS[a], GENERATORS[b]) == pair(i, j), (s.name, a, b)
    expected = tuple(
        sum((pair(i, j) for i, j in monomials), F(0)) for monomials in BASIS_MONOMIALS
    )
    assert equation_row(s).coefficients == expected, s.name


def test_equation_row_matches_the_fraction_pairings():
    for s in SURFACES.values():
        _assert_integer_pairings_match_fractions(s)


def test_equation_row_matches_the_fraction_pairings_on_rational_lattices():
    from dr2calc.chow import GENERATORS

    rng = random.Random(404)

    def entry():
        return F(rng.randint(-12, 12), rng.choice([1, 2, 3, 5, 12]))

    for trial in range(40):
        n = rng.randint(1, 6)
        upper = [[entry() for _ in range(n)] for _ in range(n)]
        gram = tuple(tuple(upper[min(i, j)][max(i, j)] for j in range(n)) for i in range(n))
        _assert_integer_pairings_match_fractions(
            SurfaceModel(
                name=f"random-{trial}",
                family=trial,
                generators=tuple(f"e{k}" for k in range(n)),
                gram=gram,
                restrictions={
                    g: tuple(entry() for _ in range(n)) for g in GENERATORS if rng.random() < 0.8
                },
                rhs=D,
                rationale="",
            )
        )


def test_full_system_rows_follow_the_fixture_bytes(monkeypatch):
    from dr2calc.solver import full_system

    original = full_system().rows
    doc = json.loads(_fixture_bytes()["family03.json"])
    doc["restrictions"]["d0"] = ["12", "11"]
    doc["rhs"] = ["1"]
    blobs = {**_fixture_bytes(), "family03.json": json.dumps(doc).encode()}
    monkeypatch.setattr(surfaces, "_fixture_bytes", lambda: blobs)
    edited = full_system().rows
    assert edited[2].rhs == 1 and edited[2].coefficients != original[2].coefficients
    assert edited[:2] + edited[3:] == original[:2] + original[3:]
    monkeypatch.undo()
    assert full_system().rows == original


def test_a_malformed_fixture_fails_on_every_call(monkeypatch):
    from dr2calc.solver import full_system

    full_system()
    blobs = {**_fixture_bytes(), "family03.json": _family03_with(gram=5)}
    monkeypatch.setattr(surfaces, "_fixture_bytes", lambda: blobs)
    for _ in range(3):
        with pytest.raises(ValueError, match="^family03.json: .*gram must be a list of rows"):
            full_system()


def test_a_cold_verify_parses_each_fixture_once(monkeypatch, capsys):
    from dr2calc.cli import main

    parsed = Counter()
    parse = surfaces._parse_surface

    def counted(doc):
        parsed[doc["family"]] += 1
        return parse(doc)

    monkeypatch.setattr(surfaces, "_parse_surface", counted)
    # bytes no earlier load has seen, so this run loads the fixtures cold
    blobs = {name: blob + b"\n" for name, blob in _fixture_bytes().items()}
    monkeypatch.setattr(surfaces, "_fixture_bytes", lambda: blobs)
    assert main(["verify", "--emit", "json"]) == 0
    capsys.readouterr()
    assert parsed == Counter(range(1, 11))


def test_fixture_bytes_are_one_read_only_mapping():
    blobs = _fixture_bytes()
    assert _fixture_bytes() is blobs
    assert sorted(blobs) == list(surfaces.FIXTURE_NAMES)
    with pytest.raises(TypeError):
        blobs["family01.json"] = b"{}"


def test_builtin_surfaces_are_shared_and_read_only():
    first, second = builtin_surfaces(), builtin_surfaces()
    assert len(first) == 10 and all(a is b for a, b in zip(first, second))
    with pytest.raises(TypeError):
        first[0].restrictions["psi1"] = (F(0),) * len(first[0].generators)
    assert first == second


def test_every_fixture_reader_follows_the_fixture_bytes(monkeypatch):
    original = fixture_checksums(), builtin_surfaces(), full_system_rows()
    blob = _family03_with(rhs=["1"])
    blobs = {**_fixture_bytes(), "family03.json": blob}
    monkeypatch.setattr(surfaces, "_fixture_bytes", lambda: blobs)
    sums, edited, rows = fixture_checksums(), builtin_surfaces(), full_system_rows()
    assert sums == {**original[0], "family03.json": hashlib.sha256(blob).hexdigest()}
    assert sums["family03.json"] != original[0]["family03.json"]
    assert edited[2].rhs == 1 and edited[:2] + edited[3:] == original[1][:2] + original[1][3:]
    assert rows[2].rhs == 1 and rows[:2] + rows[3:] == original[2][:2] + original[2][3:]
    monkeypatch.undo()
    assert (fixture_checksums(), builtin_surfaces(), full_system_rows()) == original


def test_the_16_rows_are_built_once_per_fixture_content(monkeypatch):
    rows = full_system_rows()
    assert len(rows) == 16 and [r.kind for r in rows[10:]] == ["symmetry"] * 3 + ["pushforward"] * 3
    assert rows[10:] == symmetry_rows() + pushforward_rows()

    def rebuilt():
        raise AssertionError("push-forward rows rebuilt")

    monkeypatch.setattr(surfaces, "pushforward_rows", rebuilt)
    assert full_system_rows() is rows


def test_the_shipped_matrix_is_handed_out_for_the_loaded_rows_only():
    # keyed by identity: 2.0 == 2, so an equal row of floats must still meet the gate
    rows = full_system_rows()
    shipped = gated_matrix(rows)
    assert gated_matrix(rows) is shipped
    copied = gated_matrix(list(rows))
    assert copied is not shipped
    assert (copied.ints, copied.scales) == (shipped.ints, shipped.scales)
    coefficients = list(rows[0].coefficients)
    k = next(i for i, c in enumerate(coefficients) if c and c.denominator == 1)
    coefficients[k] = float(coefficients[k])
    floated = (rows[0]._replace(coefficients=tuple(coefficients)),) + rows[1:]
    assert floated == rows
    with pytest.raises(TypeError, match="float"):
        gated_matrix(floated)


_LONG = "x" * 5000
_CUT = f"{repr(_LONG)[:60]}... (5002 characters)"


@pytest.mark.parametrize(
    "edit, message",
    [
        # the fixture name is printed unquoted, so its length is that of the string
        (lambda doc: doc.update(name=_LONG, extra=0), f"{_LONG[:60]}... (5000 characters): unknown field 'extra'"),
        (lambda doc: doc.update({_LONG: 0}), "{name}: unknown field " + _CUT),
        (lambda doc: doc["restrictions"].update({_LONG: []}), "{name}: unknown generator " + _CUT),
    ],
    ids=["name", "field", "generator"],
)
def test_parse_surface_does_not_echo_a_long_value_whole(edit, message):
    doc = json.loads(_fixture_bytes()["family01.json"])
    edit(doc)
    with pytest.raises(ValueError) as exc:
        _parse_surface(doc)
    assert str(exc.value) == message.format(name=doc["name"])
    assert len(str(exc.value)) < 200


def test_an_asymmetric_gram_does_not_echo_a_long_name_whole():
    s = SURFACES[1]._replace(name=_LONG)
    gram = [list(row) for row in s.gram]
    gram[0][1] += 1
    with pytest.raises(ValueError, match=re.escape("(5000 characters): gram matrix is not symmetric")) as exc:
        equation_row(s._replace(gram=tuple(map(tuple, gram))))
    assert len(str(exc.value)) < 200
