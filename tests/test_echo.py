"""Library calls that read no file bound the input their errors echo.

A short value is echoed whole, so its message is unchanged; a long one
through ``polyq._echo``, as its start and its length, so the message stays
one short line.
"""

import json
from fractions import Fraction

import pytest

from dr2calc import checks, cones, m21, polyq, surfaces

_LONG = "x" * 5000
_ZERO = dict(psi1=0, psi2=0, d0=0, d2=0, d11=0, d12=0)
_VALID = str(list(checks.CHECKS))


def _pattern(d11):
    return cones.EffectiveDivisorPattern(**{**_ZERO, "d11": d11})


def _load_family01_as(family):
    doc = json.loads(surfaces._fixture_bytes()["family01.json"])
    doc["family"] = family
    blobs = (("family01.json", json.dumps(doc).encode()),)
    return surfaces._load(blobs, m21.PUSHFORWARD_TABLE_PI1, m21.pushforward_class_formula)


# (call, short input, its message, long input, how the message shows it)
CASES = {
    "pencil_count": (m21.pencil_count, "ab", "genus must be an int, got 'ab'", _LONG, repr),
    "diaz_divisor": (m21.diaz_divisor, "ab", "genus must be an int, got 'ab'", _LONG, repr),
    "restriction": (
        lambda g: surfaces.builtin_surfaces()[0].restriction(g),
        "ab", "unknown divisor generator 'ab'", _LONG, repr,
    ),
    "pair_generators": (
        lambda g: surfaces.builtin_surfaces()[0].pair_generators("psi1", g),
        "ab", "unknown divisor generator 'ab'", _LONG, repr,
    ),
    "run_checks": (
        lambda name: checks.run_checks([name]),
        "ab", f"unknown check name(s): ['ab']; valid: {_VALID}", _LONG, lambda v: repr([v]),
    ),
    "run_checks-str": (
        checks.run_checks, "ab", "only must be a sequence of check names, got the str 'ab'", _LONG, repr,
    ),
    "nonpolynomiality_witness": (
        cones.nonpolynomiality_witness, "ab", "max_degree must be an int, got 'ab'", _LONG, repr,
    ),
    "pattern-type": (
        _pattern, "ab", "pattern coefficient d11 must be an int or Fraction, got 'ab'", _LONG, repr,
    ),
    "pattern-sign": (
        _pattern, Fraction(-5, 3), "pattern coefficient d11 = -5/3 violates non-negativity",
        -int("9" * 3000), str,
    ),
    "constant_value": (
        lambda c: polyq.PolyQ([1, c]).constant_value(),
        2, "not a constant polynomial: 2*d + 1", 10**4000, lambda c: str(polyq.PolyQ([1, c])),
    ),
    "fixture-family": (
        _load_family01_as, 2, "family01.json: family field 2 does not match the file name",
        10**3999, str,
    ),
}


def _raised(call, value) -> Exception:
    with pytest.raises(Exception) as exc:
        call(value)
    return exc.value


@pytest.mark.parametrize("case", CASES)
def test_a_long_input_is_echoed_bounded_and_a_short_one_whole(case):
    call, short, message, long, show = CASES[case]
    expected = _raised(call, short)
    assert expected.args == (message,)
    got = _raised(call, long)
    assert type(got) is type(expected)
    (line,) = got.args
    assert "\n" not in line and f"... ({len(show(long))} characters)" in line
    # the list of valid check names is the package's text, not echoed input
    assert len(line.replace(_VALID, "")) < 200
