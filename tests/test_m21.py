import re
from fractions import Fraction

import pytest

from dr2calc import m21
from dr2calc.chow import DivisorM22, TautClass2, dr2_class
from dr2calc.ct import CtClass
from dr2calc.m21 import (
    LAMBDA_CLASS,
    MOVING_D,
    WEIERSTRASS_CLASS,
    DivisorM21,
    chi_pullback_pipeline,
    classify_effective_cone,
    diaz_divisor,
    pencil_count,
    psi_cubed_intersection,
    pushforward,
    pushforward_class_formula,
)
from dr2calc.polyq import D

F = Fraction


def _target_class():
    # (d^2-1)((d^2+1) psi - (d^2+6)/5 (d0/12 + d1)), built from scratch
    d2 = D * D
    f = d2 - 1
    tail = f * (d2 + 6) / 5
    return DivisorM21((f * (d2 + 1), -tail / 12, -tail))


def test_named_divisors_expand_correctly():
    assert LAMBDA_CLASS == DivisorM21((0, F(1, 10), F(1, 5)))
    assert WEIERSTRASS_CLASS == DivisorM21((3, F(-1, 10), F(-6, 5)))
    assert MOVING_D == DivisorM21((120, -3, -36))


def test_pushforward_basis_contract():
    # unit at psi1psi2 -> 3 psi; unit at d0^2 -> 0
    assert pushforward(TautClass2.unit(0), 1) == DivisorM21((3, 0, 0))
    assert pushforward(TautClass2.unit(13), 1).is_zero()
    # forgetting point 2 swaps the marked slots first
    assert pushforward(TautClass2.unit(6), 2) == DivisorM21((0, 1, 0))
    assert pushforward(TautClass2.unit(7), 1) == DivisorM21((0, 1, 0))


def test_pushforward_of_class_both_markings():
    c = dr2_class(D)
    target = _target_class()
    assert pushforward(c, 1) == target
    assert pushforward(c, 2) == target
    assert pushforward_class_formula(D) == target


def test_pushforward_at_small_degrees():
    assert pushforward_class_formula(2) == WEIERSTRASS_CLASS.scale(5)
    assert pushforward_class_formula(2) == DivisorM21((15, F(-1, 2), -6))
    assert pushforward_class_formula(1).is_zero()


def test_pencil_count():
    assert pencil_count(1) == 3
    assert pencil_count(5) == 175
    assert 5 * 6 * 7 == 35 + 175
    for g in range(1, 101):
        assert g * (g + 1) * (g + 2) == ((g + 1) ** 2 - 1) + pencil_count(g)
    with pytest.raises(ValueError):
        pencil_count(0)


def test_diaz_divisor_values():
    dz = diaz_divisor(3)
    assert dz.lambda_coeff == 72
    assert dz.delta0_coeff == -8
    assert dz.delta_coeffs == {1: F(-24)}
    with pytest.raises(ValueError):
        diaz_divisor(2)


def test_diaz_divisor_refuses_a_float_coefficient(monkeypatch):
    # g^2 (g-1)(3g-1) / 2 with true division: 72.0 at g = 3, not Fraction(72)
    monkeypatch.setattr(m21, "_diaz_lambda", lambda g: g * g * (g - 1) * (3 * g - 1) / 2)
    with pytest.raises(TypeError, match=re.escape("float 72.0 is not exact")):
        diaz_divisor(3)


def test_chi_pipeline_symbolic_identity():
    assert chi_pullback_pipeline(D) == _target_class()


def test_chi_pipeline_psi_coefficient_expansion():
    # (d-1)(d+1)(d^2+3d-2) - 3(d+1)(d-1)^2 == (d^2-1)(d^2+1)
    lhs = (D - 1) * (D + 1) * (D * D + 3 * D - 2) - 3 * (D + 1) * (D - 1) ** 2
    assert lhs == (D * D - 1) * (D * D + 1)
    assert chi_pullback_pipeline(D).psi == lhs


def test_chi_pipeline_at_d2_is_5w():
    assert chi_pullback_pipeline(2) == WEIERSTRASS_CLASS.scale(5)
    with pytest.raises(ValueError):
        chi_pullback_pipeline(1)


def test_psi_cubed_intersection():
    got = psi_cubed_intersection(D)
    assert got == (D * D - 1) * (3 * D * D - 7) / 5760
    assert got(2) == F(1, 384)
    assert got(1) == 0


def test_cone_classification_extremal_at_d2():
    report = classify_effective_cone(pushforward_class_formula(2))
    assert report.effective_coords == (F(5), F(0), F(0))
    assert report.classification == "extremal_ray:W"


def test_cone_classification_d3_on_moving_boundary():
    cls = pushforward_class_formula(3)
    assert cls == MOVING_D.scale(F(2, 3))
    report = classify_effective_cone(cls)
    assert report.classification == "interior"
    assert report.w_psi_coords == (F(20), F(20))
    assert report.in_moving_d_psi_cone is True


def test_cone_decomposition_in_w_psi_symbolic():
    d2 = D * D
    f = d2 - 1
    psi = DivisorM21((1, 0, 0))
    combo = WEIERSTRASS_CLASS.scale(f * (d2 + 6) / 6) + psi.scale(f * (d2 - 4) / 2)
    assert combo == pushforward_class_formula(D)


def test_cone_classification_outside_and_boundary():
    outside = classify_effective_cone(DivisorM21((0, -1, 0)))
    assert outside.classification == "outside"
    face = classify_effective_cone(WEIERSTRASS_CLASS + DivisorM21((0, 1, 0)))
    assert face.classification == "boundary_face"
    zero = classify_effective_cone(DivisorM21((0, 0, 0)))
    assert zero.classification == "zero"


def test_cone_classification_needs_numeric_input():
    with pytest.raises(ValueError):
        classify_effective_cone(pushforward_class_formula(D))


@pytest.mark.parametrize("value", [TautClass2.unit(0), "psi"], ids=lambda v: type(v).__name__)
def test_cone_classification_refuses_other_types(value):
    # a TautClass2 reached solve_unique's length check, and a str had no coeffs
    name = type(value).__name__
    with pytest.raises(TypeError, match=f"classify_effective_cone takes a DivisorM21, got {name}"):
        classify_effective_cone(value)


def test_pushforward_rows_are_pushforward_functionals():
    # the three equation rows match coordinates of the push-forward map
    from dr2calc.surfaces import pushforward_rows

    rows = pushforward_rows()
    target = pushforward_class_formula(D)
    for k, row in enumerate(rows):
        assert row.rhs == target.coeffs[k]
        for slot in range(14):
            assert row.coefficients[slot] == pushforward(
                TautClass2.unit(slot), 1
            ).coeffs[k].constant_value()


@pytest.mark.parametrize("marking", [1, 2])
@pytest.mark.parametrize("vector_cls", [CtClass, DivisorM22], ids=lambda cls: cls.__name__)
def test_pushforward_refuses_other_vectors(vector_cls, marking):
    # a zip over the 14 slots would silently truncate a shorter vector
    with pytest.raises(TypeError, match=f"pushforward takes a TautClass2, got {vector_cls.__name__}"):
        pushforward(vector_cls.unit(0), marking)


@pytest.mark.parametrize("marking", [True, False, 2.0, F(2), "1", None], ids=repr)
def test_pushforward_marking_must_be_an_int(marking):
    # True == 1 and 2.0 == 2, so without the gate they would run as markings
    with pytest.raises(TypeError, match=re.escape(f"marking must be an int, got {marking!r}")):
        pushforward(dr2_class(D), marking)


def test_pushforward_refuses_a_third_marking():
    with pytest.raises(ValueError, match="marking must be 1 or 2"):
        pushforward(dr2_class(D), 3)


def _cone_grid():
    """Numeric divisors: a lattice of (psi, d0, d1) points, points of the
    (W, psi) plane, and the pushed-forward class for d = 1..50."""
    values = (F(-2), F(-1, 3), F(0), F(1, 10), F(1), F(12, 5))
    psi = DivisorM21((1, 0, 0))
    grid = [DivisorM21((a, b, c)) for a in values for b in values for c in values]
    grid += [WEIERSTRASS_CLASS.scale(s) + psi.scale(t) for s in values for t in values]
    grid += [MOVING_D.scale(s) + psi.scale(t) for s in values for t in values]
    grid += [pushforward_class_formula(d) for d in range(1, 51)]
    return grid


def test_cone_coordinates_recombine_to_the_class():
    psi, d0, d1 = (DivisorM21.unit(k) for k in range(3))
    for c in _cone_grid():
        report = classify_effective_cone(c)
        w, e0, e1 = report.effective_coords
        assert WEIERSTRASS_CLASS.scale(w) + d0.scale(e0) + d1.scale(e1) == c
        # c lies in span(W, psi) iff its d0 and d1 coordinates are
        # proportional to W's: c.d0 * W.d1 == c.d1 * W.d0
        in_plane = c.d0 * WEIERSTRASS_CLASS.d1 == c.d1 * WEIERSTRASS_CLASS.d0
        assert (report.w_psi_coords is not None) == in_plane
        assert (report.in_moving_d_psi_cone is not None) == in_plane
        if in_plane:
            alpha, beta = report.w_psi_coords
            assert WEIERSTRASS_CLASS.scale(alpha) + psi.scale(beta) == c
            # c = s * D + t * psi, read off the d0 coordinate of D
            s = c.d0.constant_value() / MOVING_D.d0.constant_value()
            t = c.psi.constant_value() - s * MOVING_D.psi.constant_value()
            assert MOVING_D.scale(s) + psi.scale(t) == c
            assert report.in_moving_d_psi_cone == (s >= 0 and t >= 0)


@pytest.mark.parametrize("genus", [2.5, F(5, 2), F(7, 2), F(4), True, "3"], ids=repr)
@pytest.mark.parametrize("func", [pencil_count, diaz_divisor], ids=lambda f: f.__name__)
def test_genus_must_be_an_int(func, genus):
    with pytest.raises(TypeError, match=re.escape(f"genus must be an int, got {genus!r}")):
        func(genus)
