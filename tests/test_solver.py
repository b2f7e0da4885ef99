import json
from fractions import Fraction

import pytest

from dr2calc.chow import dr2_class
from dr2calc.polyq import D, PolyQ
from dr2calc.solver import (
    InconsistentSystemError,
    ParamSystem,
    UnderdeterminedSystemError,
    full_system,
    redundancy_report,
    solve_parametric,
)
from dr2calc.surfaces import EquationRow, full_system_rows, symmetry_rows

F = Fraction


def _corrupt_row(rows, index, bump):
    rows = list(rows)
    r = rows[index]
    rows[index] = EquationRow(
        coefficients=r.coefficients,
        rhs=r.rhs + bump,
        label=r.label,
        kind=r.kind,
        provenance=r.provenance,
    )
    return tuple(rows)


def test_full_solve_reproduces_closed_form():
    cert = solve_parametric(full_system())
    assert cert.rank == 14
    assert cert.consistent
    assert all(r.is_zero() for r in cert.residuals)
    assert cert.solution == dr2_class(D)
    # six zero slots come out identically zero
    for k in range(8, 14):
        assert cert.solution.coeffs[k].is_zero()


def test_sample_set_independence():
    sys_ = full_system()
    a = solve_parametric(sys_, samples=range(2, 8))
    b = solve_parametric(sys_, samples=range(3, 9))
    assert a.solution == b.solution
    assert a.sample_points != b.sample_points


def test_exactly_two_redundant_rows():
    sys_ = full_system()
    deps = redundancy_report(sys_)
    assert len(deps) == 2
    # each reported combination actually reconstructs the row, rhs included
    for dep in deps:
        row = sys_.rows[dep.index]
        recombined = [F(0)] * 14
        rhs = PolyQ()
        for k, coeff in dep.combination.items():
            src = sys_.rows[k]
            recombined = [
                acc + coeff * c for acc, c in zip(recombined, src.coefficients)
            ]
            rhs = rhs + src.rhs * coeff
        assert tuple(recombined) == row.coefficients
        assert rhs == row.rhs


def test_dropping_a_redundant_row_leaves_solution_unchanged():
    sys_ = full_system()
    baseline = solve_parametric(sys_).solution
    for dep in redundancy_report(sys_):
        rows = tuple(r for k, r in enumerate(sys_.rows) if k != dep.index)
        cert = solve_parametric(ParamSystem(rows=rows))
        assert cert.solution == baseline
        assert cert.consistent


def test_symmetry_rows_alone_is_underdetermined():
    with pytest.raises(UnderdeterminedSystemError):
        solve_parametric(ParamSystem(rows=symmetry_rows()))


def test_single_row_system_has_no_dependencies():
    sys_ = ParamSystem(rows=full_system_rows()[:1])
    assert redundancy_report(sys_) == []


def test_surface_rows_alone_dependencies_match_rank():
    from dr2calc.linalg import rank

    rows = full_system_rows()[:10]
    sys_ = ParamSystem(rows=rows)
    deps = redundancy_report(sys_)
    matrix = [list(r.coefficients) for r in rows]
    assert len(deps) == 10 - rank(matrix)


def test_corrupted_rhs_detected():
    rows = _corrupt_row(full_system_rows(), 0, 1)
    with pytest.raises(InconsistentSystemError) as exc:
        solve_parametric(ParamSystem(rows=rows))
    assert 0 <= exc.value.row_index < 16


def test_corrupted_system_has_no_solution_at_d2():
    # independent oracle: at d = 2 the corrupted augmented matrix has higher
    # rank than the coefficient matrix, so no solution exists at all
    from dr2calc.linalg import rank

    rows = _corrupt_row(full_system_rows(), 0, 1)
    matrix = [list(r.coefficients) for r in rows]
    augmented = [list(r.coefficients) + [r.rhs(2)] for r in rows]
    assert rank(augmented) == rank(matrix) + 1


def test_certificate_serialization():
    cert = solve_parametric(full_system())
    blob = cert.to_json_dict()
    assert blob["rank"] == 14
    assert blob["consistent"] is True
    assert blob["sample_points"] == ["2", "3", "4", "5", "6", "7"]
    assert all(res == [] for res in blob["residuals"])


@pytest.mark.parametrize("samples", [[], (), range(0)])
def test_empty_sample_set_is_refused(samples):
    with pytest.raises(ValueError, match="at least one sample"):
        solve_parametric(full_system(), samples=samples)


@pytest.mark.parametrize("samples", [(2,), (2, 3, 4), (F(1, 2), 3, 4, 5)])
def test_fewer_samples_than_the_rhs_degree_needs_are_refused(samples):
    # three samples cannot interpolate the degree-4 solution, and used to
    # report the consistent shipped system as inconsistent
    with pytest.raises(ValueError, match=f"at least 5 samples .* degree 4, got {len(samples)}"):
        solve_parametric(full_system(), samples=samples)


def test_one_sample_more_than_the_rhs_degree_is_enough():
    cert = solve_parametric(full_system(), samples=(2, 3, 4, 5, 6))
    assert cert.consistent and cert.solution == dr2_class(D)
    with pytest.raises(ValueError, match="at least one sample"):
        solve_parametric(full_system(), samples=())


def test_float_sample_is_refused():
    with pytest.raises(TypeError, match="2.5"):
        solve_parametric(full_system(), samples=[2.5, 3, 4, 5, 6, 7])


def test_rational_samples_solve_to_the_closed_form():
    cert = solve_parametric(full_system(), samples=[F(1, 2), F(-7, 3), 4, F(9, 5), 11, 0])
    assert cert.consistent
    assert cert.solution == dr2_class(D)


def test_integer_residuals_match_row_residual():
    solution = dr2_class(D)
    system = full_system()
    assert all(r.residual(solution).is_zero() for r in system.rows)
    for index, bump in ((0, 1), (12, F(-2, 7) * D**3), (15, D / 3)):
        corrupted = ParamSystem(rows=_corrupt_row(system.rows, index, bump))
        got = tuple(r.residual(solution) for r in corrupted.rows)
        assert [k for k, r in enumerate(got) if not r.is_zero()] == [index]


def test_string_coefficients_solve_like_fractions():
    rows = tuple(
        EquationRow(
            coefficients=tuple(str(c) for c in r.coefficients),
            rhs=r.rhs,
            label=r.label,
            kind=r.kind,
        )
        for r in full_system_rows()
    )
    cert = solve_parametric(ParamSystem(rows=rows))
    assert cert.consistent
    assert cert.solution == dr2_class(D)


@pytest.mark.parametrize("samples", [None, range(2, 8), [F(1, 2), 3, 5, 7, 11, 13, 17, 19, 23]])
def test_each_sample_point_is_one_solve_unique_call(monkeypatch, samples):
    from dr2calc import linalg

    calls = []
    real = linalg.solve_unique

    def counted(rows, rhs):
        calls.append(len(rows))
        return real(rows, rhs)

    monkeypatch.setattr(linalg, "solve_unique", counted)
    cert = solve_parametric(full_system(), samples=samples)
    assert cert.consistent
    assert calls == [16] * len(cert.sample_points)


def test_a_system_of_mutable_rows_is_gated_on_every_call():
    # a list of rows can change between calls, so its matrix is not memoized
    rows = list(full_system_rows())
    system = ParamSystem(rows=rows)
    assert solve_parametric(system).consistent
    r = rows[0]
    rows[0] = EquationRow(
        coefficients=(r.coefficients[0] + 1,) + r.coefficients[1:],
        rhs=r.rhs,
        label=r.label,
        kind=r.kind,
    )
    with pytest.raises(InconsistentSystemError):
        solve_parametric(system)


def _solve_outcome(system):
    try:
        cert = solve_parametric(system)
    except InconsistentSystemError as exc:
        return "inconsistent", exc.row_index
    return cert.solution, cert.consistent


def test_each_rows_tuple_is_solved_with_its_own_matrix():
    # the tuple's matrix is memoized and the list's is not; both must solve
    # the perturbed rows, not the shipped ones solved just before
    shipped = full_system_rows()
    outcomes = set()
    for k in range(len(shipped)):
        r = shipped[k]
        bumped = EquationRow(
            coefficients=(r.coefficients[0] + 1,) + r.coefficients[1:],
            rhs=r.rhs,
            label=r.label,
            kind=r.kind,
        )
        rows = shipped[:k] + (bumped,) + shipped[k + 1:]
        assert solve_parametric(ParamSystem(rows=shipped)).consistent
        got = _solve_outcome(ParamSystem(rows=rows))
        assert got == _solve_outcome(ParamSystem(rows=list(rows)))
        outcomes.add(got[0] == "inconsistent")
    assert outcomes == {True, False}


def test_the_gated_matrix_follows_the_fixture_bytes(monkeypatch):
    # the shipped matrix is warm; an edited fixture must be solved with its own
    from dr2calc import surfaces

    shipped = full_system()
    assert solve_parametric(shipped).solution == dr2_class(D)
    doc = json.loads(surfaces._fixture_bytes()["family01.json"])
    doc["gram"][0][0] = "1"  # f1.f1: 0 -> 1
    blobs = {**surfaces._fixture_bytes(), "family01.json": json.dumps(doc).encode()}
    monkeypatch.setattr(surfaces, "_fixture_bytes", lambda: blobs)
    edited = full_system()
    assert edited.rows[0].coefficients != shipped.rows[0].coefficients
    got = _solve_outcome(edited)
    assert got[0] == "inconsistent" or got[0] != dr2_class(D)
    monkeypatch.undo()
    cert = solve_parametric(full_system())
    assert cert.consistent and cert.solution == dr2_class(D)


def test_the_fixture_load_follows_the_pushforward_table_and_formula(monkeypatch):
    # the push-forward rows are built in the memoized fixture load; a patched
    # table or formula must reach the solver even when the load is warm
    from dr2calc import checks, m21

    solver_check = checks.CHECKS["solver"]
    assert solver_check().passed
    table = ((4, 0, 0),) + m21.PUSHFORWARD_TABLE_PI1[1:]  # psi1psi2: 3 psi -> 4 psi
    monkeypatch.setattr(m21, "PUSHFORWARD_TABLE_PI1", table)
    assert solver_check() == checks.CheckResult("solver", False, "inconsistent at row 7")
    monkeypatch.undo()
    formula = m21.pushforward_class_formula
    monkeypatch.setattr(m21, "pushforward_class_formula", lambda d: formula(d).scale(2))
    assert solver_check() == checks.CheckResult("solver", False, "inconsistent at row 13")
    monkeypatch.undo()
    assert solver_check().passed
