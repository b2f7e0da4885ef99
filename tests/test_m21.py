from fractions import Fraction

import pytest

from dr2calc.chow import DivisorM22, TautClass2, dr2_class
from dr2calc.ct import CtClass
from dr2calc.m21 import (
    LAMBDA_CLASS,
    MOVING_D,
    MOVING_E,
    NEF_GENERATORS,
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
    assert MOVING_E == DivisorM21((60, 1, -18))
    assert NEF_GENERATORS[2] == DivisorM21((0, F(1, 5), F(12, 5)))


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


def test_diaz_boundary_symmetric_in_splitting():
    dz = diaz_divisor(7)
    for i in range(1, 7):
        assert dz.delta(i) == dz.delta(7 - i)


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


def test_pushforward_refuses_a_third_marking():
    with pytest.raises(ValueError, match="marking must be 1 or 2"):
        pushforward(dr2_class(D), 3)


@pytest.mark.parametrize("i", [0, 7, -1])
def test_diaz_delta_refuses_indices_outside_the_splittings(i):
    with pytest.raises(ValueError, match=f"no boundary index {i} in genus 7"):
        diaz_divisor(7).delta(i)
