"""One table of malformed input files, run in process and through the CLI.

It covers every field of a surface fixture (``surfaces._FIELDS``), the
strata table that ``--strata-table`` loads and the class JSON that
``TautClass2.from_json_dict`` reads.  In process, each case raises one
ValueError, on one line of under 200 characters, that names the file or
the field; the table pins its whole text.  Through ``cli.main`` a strata
table case is a usage error (exit 2) and a fixture case fails its command
(exit 1, ``<command> failed: family03.json: ...``), never with a traceback.
"""

import json

import pytest

from dr2calc import surfaces
from dr2calc.chow import TautClass2
from dr2calc.cli import main
from dr2calc.cones import REQUIRED_STRATA, load_strata_table
from dr2calc.polyq import _echo

_LONG = "x" * 5000
_CUT = f"{repr(_LONG)[:60]}... (5002 characters)"
_DEEP = "[" * 100_000 + "]" * 100_000

# ---------------------------------------------------------------------------
# Surface fixtures: family03.json with one fault.
# ---------------------------------------------------------------------------

_BLOB = surfaces._fixture_bytes()["family03.json"]
_DOC = json.loads(_BLOB)
_TEXT = _BLOB.decode()


def _with(**fields) -> bytes:
    return json.dumps({**_DOC, **fields}).encode()


def _without(field) -> bytes:
    return json.dumps({key: value for key, value in _DOC.items() if key != field}).encode()


def _before_rhs(text) -> bytes:
    """family03.json with ``text`` inserted as a member before "rhs"."""
    return _TEXT.replace('"rhs":', f'{text},\n  "rhs":', 1).encode()


_BAD_BYTE = _BLOB.replace(b'"rationale": "', b'"rationale": "\xff', 1)

# Every _FIELDS field's type and a value of another JSON type.
_WRONG_TYPE = {
    "name": (5, "name must be a string"),
    "family": ("3", "{name}: family must be an integer"),
    "generators": ("x1", "{name}: generators must be a list of generator names"),
    "gram": ({}, "{name}: gram must be a list of rows of 'p/q' strings"),
    "restrictions": ([], "{name}: restrictions must map generators to vectors"),
    "rhs": ("12", "{name}: rhs must be a list of 'p/q' strings"),
    "rationale": (7, "{name}: rationale must be a string"),
}

# A list holding one 5,000-character string: the wrong type for the string
# fields, a generator name for generators, and a 'p/q' entry for rhs.
_LONG_VALUE = {
    "name": "name must be a string",
    "family": "{name}: family must be an integer",
    "generators": "{name}: gram shape does not match generators",
    "gram": "{name}: gram must be a list of rows of 'p/q' strings",
    "restrictions": "{name}: restrictions must map generators to vectors",
    "rhs": "{name}: expected a 'p/q' string, got " + _CUT,
    "rationale": "{name}: rationale must be a string",
}

# (id, fixture bytes, the message after "family03.json: ")
_FIXTURE_CASES = (
    [(f"{field}-missing", _without(field), f"missing field {field!r}") for field in _WRONG_TYPE]
    + [(f"{field}-type", _with(**{field: value}), message) for field, (value, message) in _WRONG_TYPE.items()]
    + [
        ("generators-item", _with(generators=["x1", 2]), "{name}: generators must be a list of generator names"),
        ("gram-item", _with(gram=[["0", "1"], "10"]), "{name}: gram must be a list of rows of 'p/q' strings"),
        ("restrictions-item", _with(restrictions={"d12": ["-1", "-1"], "d0": "12"}),
         "{name}: restrictions must map generators to vectors"),
        ("rhs-item", _with(rhs=[3]), "{name}: expected a 'p/q' string, got 3"),
    ]
    + [(f"{field}-long", _with(**{field: [_LONG]}), message) for field, message in _LONG_VALUE.items()]
    + [
        ("family-bool", _with(family=True), "{name}: family must be an integer"),
        ("family-float", _with(family=3.0), "{name}: family must be an integer"),
        ("family-nan", _with(family=float("nan")), "{name}: family must be an integer"),
        ("gram-float", _with(gram=[["0", 0.5], ["1", "0"]]), "{name}: expected a 'p/q' string, got 0.5"),
        ("rhs-nan", _with(rhs=[float("nan")]), "{name}: expected a 'p/q' string, got nan"),
        ("restrictions-float", _with(restrictions={"d12": [-1.0, "-1"]}), "{name}: expected a 'p/q' string, got -1.0"),
        ("extra-field", _with(notes="x"), "{name}: unknown field 'notes'"),
        ("duplicate-key", _before_rhs('"family": 3'), "duplicate key 'family'"),
        ("bad-utf8", _BAD_BYTE,
         f"'utf-8' codec can't decode byte 0xff in position {_BAD_BYTE.index(0xFF)}: invalid start byte"),
        ("deep", _before_rhs(f'"deep": {_DEEP}'), "JSON nested too deeply to parse"),
        ("not-json", b"{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("not-an-object", b"[]", "missing field 'name'"),
    ]
)


def _fixture_message(message):
    return "family03.json: " + message.format(name=_DOC["name"])


def _one_bounded_line(message):
    assert "\n" not in message and len(message) < 200, message


@pytest.fixture
def fixture_blob(monkeypatch):
    """Serve ``surfaces._fixture_bytes`` with family03.json replaced."""

    def serve(blob):
        blobs = {**surfaces._fixture_bytes(), "family03.json": blob}
        monkeypatch.setattr(surfaces, "_fixture_bytes", lambda: blobs)

    return serve


@pytest.mark.parametrize(
    "blob, message", [case[1:] for case in _FIXTURE_CASES], ids=[case[0] for case in _FIXTURE_CASES]
)
def test_a_malformed_fixture_is_one_named_value_error(fixture_blob, blob, message):
    fixture_blob(blob)
    with pytest.raises(ValueError) as exc:
        surfaces.builtin_surfaces()
    assert type(exc.value) is ValueError
    assert str(exc.value) == _fixture_message(message)
    _one_bounded_line(str(exc.value))


@pytest.mark.parametrize(
    "blob, message", [case[1:] for case in _FIXTURE_CASES], ids=[case[0] for case in _FIXTURE_CASES]
)
def test_a_malformed_fixture_fails_the_command(capsys, fixture_blob, blob, message):
    fixture_blob(blob)
    assert main(["equations"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"equations failed: {_fixture_message(message)}\n"


def test_every_fixture_field_has_its_cases():
    ids = {case[0] for case in _FIXTURE_CASES}
    for field, _, item_kind, _ in surfaces._FIELDS:
        kinds = ("missing", "type", "long") + (("item",) if item_kind else ())
        assert {f"{field}-{kind}" for kind in kinds} <= ids


# ---------------------------------------------------------------------------
# Strata tables.
# ---------------------------------------------------------------------------

_STRATA = {name: ["0"] * 14 for name in REQUIRED_STRATA}
_STRATA_TEXT = json.dumps(_STRATA)
_STRATA_BAD_BYTE = _STRATA_TEXT.encode().replace(b'"d00"', b'"d00\xff"')
_EXPECTED = "expected ['d11|', 'd01|', 'd0|', 'd00']"


def _strata_with(**rows) -> bytes:
    return json.dumps({**_STRATA, **rows}).encode()


def _strata_entry(value) -> bytes:
    return _strata_with(d00=["0"] * 13 + [value])


# (id, file bytes, message)
_STRATA_CASES = [
    ("not-an-object", json.dumps([["0"] * 14] * 4).encode(), "strata table must be a JSON object"),
    ("unknown-stratum", _strata_with(d11=["0"] * 14), f"strata table has unknown strata ['d11']; {_EXPECTED}"),
    ("long-stratum", _strata_with(**{_LONG: ["0"] * 14}),
     f"strata table has unknown strata {_echo([_LONG])}; {_EXPECTED}"),
    ("missing-stratum", json.dumps({k: v for k, v in _STRATA.items() if k != "d00"}).encode(),
     "strata table is missing ['d00']"),
    ("wrong-length", _strata_with(d00=["0"] * 13), "stratum 'd00' must be a 14-entry coefficient array"),
    ("not-a-list", _strata_with(d00="0"), "stratum 'd00' must be a 14-entry coefficient array"),
    ("int-entry", _strata_entry(0), "stratum 'd00' entry 13: expected a 'p/q' string, got 0"),
    ("float-entry", _strata_entry(0.5), "stratum 'd00' entry 13: expected a 'p/q' string, got 0.5"),
    ("nan-entry", _strata_entry(float("nan")), "stratum 'd00' entry 13: expected a 'p/q' string, got nan"),
    ("long-entry", _strata_entry(_LONG), f"stratum 'd00' entry 13: expected a 'p/q' string, got {_CUT}"),
    ("bad-utf8", _STRATA_BAD_BYTE,
     "strata table: 'utf-8' codec can't decode byte 0xff in position "
     f"{_STRATA_BAD_BYTE.index(0xFF)}: invalid start byte"),
    ("deep", (_STRATA_TEXT[:-1] + f', "deep": {_DEEP}}}').encode(), "strata table: JSON nested too deeply to parse"),
    ("duplicate-key", (_STRATA_TEXT[:-1] + ', "d11|": []}').encode(), "strata table: duplicate key 'd11|'"),
    ("not-json", b"{not json", "strata table: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
]


@pytest.fixture
def strata_file(tmp_path):
    def write(blob):
        path = tmp_path / "strata.json"
        path.write_bytes(blob)
        return str(path)

    return write


@pytest.mark.parametrize(
    "blob, message", [case[1:] for case in _STRATA_CASES], ids=[case[0] for case in _STRATA_CASES]
)
def test_a_malformed_strata_table_is_one_named_value_error(strata_file, blob, message):
    with pytest.raises(ValueError) as exc:
        load_strata_table(strata_file(blob))
    assert type(exc.value) is ValueError
    assert str(exc.value) == message
    assert message.startswith(("strata table", "stratum "))
    _one_bounded_line(message)


@pytest.mark.parametrize("blob", [case[1] for case in _STRATA_CASES], ids=[case[0] for case in _STRATA_CASES])
def test_a_malformed_strata_table_is_a_usage_error(capsys, strata_file, blob):
    path = strata_file(blob)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--only", "nonextremality", "--strata-table", path])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    [line] = [ln for ln in captured.err.splitlines() if "error:" in ln]
    assert f"error: --strata-table {_echo(path)}: " in line
    assert len(captured.err.encode()) < 400


# ---------------------------------------------------------------------------
# Class JSON, as TautClass2.from_json_dict reads it.
# ---------------------------------------------------------------------------

_CLASS_CASES = [
    ("not-an-object", [], "class JSON must be an object, got []"),
    ("unknown-name", {"psi3": []}, "unknown basis name in class JSON: 'psi3'"),
    ("long-name", {_LONG: []}, f"unknown basis name in class JSON: {_CUT}"),
    ("not-a-list", {"psi1psi2": "1/2"}, "'psi1psi2' must be a list of rational strings, got '1/2'"),
    ("long-value", {"psi1psi2": _LONG}, f"'psi1psi2' must be a list of rational strings, got {_CUT}"),
    ("float", {"psi1psi2": [0.5]}, "'psi1psi2': expected a 'p/q' string, got 0.5"),
    ("nan", {"psi1psi2": ["1", float("nan")]}, "'psi1psi2': expected a 'p/q' string, got nan"),
]


@pytest.mark.parametrize(
    "data, message", [case[1:] for case in _CLASS_CASES], ids=[case[0] for case in _CLASS_CASES]
)
def test_a_malformed_class_json_is_one_named_value_error(data, message):
    with pytest.raises(ValueError) as exc:
        TautClass2.from_json_dict(data)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message
    assert "class JSON" in message or message.startswith("'psi1psi2'")
    _one_bounded_line(message)
