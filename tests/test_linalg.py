import itertools
import random
from fractions import Fraction

import pytest
from _reference import fraction_gauss_jordan

from dr2calc.linalg import (
    InconsistentSystemError,
    LinearSystemError,
    UnderdeterminedSystemError,
    rank,
    reduced_echelon,
    row_dependencies,
    solve_unique,
)

F = Fraction


def test_rank_basic():
    assert rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank([]) == 0
    assert rank([[F(0), F(0)]]) == 0


def test_solve_unique_square():
    sol = solve_unique([[F(2), F(1)], [F(1), F(-1)]], [F(5), F(1)])
    assert sol == [F(2), F(1)]


def test_solve_overdetermined_consistent():
    rows = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    assert solve_unique(rows, [F(3), F(4), F(7)]) == [F(3), F(4)]


def test_solve_underdetermined():
    with pytest.raises(UnderdeterminedSystemError):
        solve_unique([[F(1), F(1)]], [F(1)])


def test_solve_inconsistent_reports_row():
    rows = [[F(1), F(0)], [F(0), F(1)], [F(1), F(1)]]
    with pytest.raises(InconsistentSystemError) as exc:
        solve_unique(rows, [F(3), F(4), F(8)])
    assert exc.value.row_index == 2


def test_row_dependencies():
    rows = [[F(1), F(0)], [F(0), F(1)], [F(2), F(3)], [F(1), F(1)]]
    deps = row_dependencies(rows)
    assert [i for i, _ in deps] == [2, 3]
    for i, combo in deps:
        recombined = [
            sum(combo[k] * rows[k][c] for k in combo) for c in range(2)
        ]
        assert recombined == rows[i]


def test_row_dependencies_single_row():
    assert row_dependencies([[F(1), F(2), F(3)]]) == []


def test_reduced_echelon_pivot_preference():
    rows = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
    entries = reduced_echelon(rows, [2, 1, 0])
    pivots = [col for col, _ in entries]
    assert pivots == [2, 1]
    # fully reduced: each pivot column is zero in the other rows
    for col, row in entries:
        for other_col, other_row in entries:
            if other_col != col:
                assert other_row[col] == 0



# --- the shared elimination kernel, on seeded random small matrices --------


def _random_matrix(rng, nrows, ncols):
    """Small rational matrix with zero rows and rows dependent on earlier ones."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            row = [F(0)] * ncols
        elif kind < 0.4 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            x, y = F(rng.randint(-2, 2)), F(rng.randint(-3, 3), rng.randint(1, 3))
            row = [x * p + y * q for p, q in zip(a, b)]
        else:
            row = [
                F(rng.choice((0, 0, 1, -1, rng.randint(-5, 5))), rng.randint(1, 4))
                for _ in range(ncols)
            ]
        rows.append(row)
    return rows


def _matrices(seed, count=200):
    rng = random.Random(seed)
    yield []
    yield [[F(0), F(0), F(0)]]
    for _ in range(count):
        yield _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 5))


def _dot(row, x):
    return sum((a * b for a, b in zip(row, x)), F(0))


def test_rank_equals_pivot_count():
    for rows in _matrices(11):
        ncols = len(rows[0]) if rows else 0
        pivots = [col for col, _ in reduced_echelon(rows, range(ncols))]
        assert rank(rows) == len(pivots) <= min(len(rows), ncols)


def test_row_dependencies_rebuild_from_earlier_kept_rows():
    for rows in _matrices(12):
        ncols = len(rows[0]) if rows else 0
        deps = row_dependencies(rows)
        dependent = {i for i, _ in deps}
        kept = [i for i in range(len(rows)) if i not in dependent]
        assert rank([rows[i] for i in kept]) == len(kept) == rank(rows)
        for i, combo in deps:
            assert all(k < i and k in kept for k in combo)
            rebuilt = [sum((c * rows[k][j] for k, c in combo.items()), F(0)) for j in range(ncols)]
            assert rebuilt == rows[i]


def _names_a_failing_row(rows, rhs, k):
    """Some full-rank choice of rows has a solution that meets rows[:k] and fails row k."""
    ncols = len(rows[0])
    for chosen in itertools.combinations(range(len(rows)), ncols):
        sub = [rows[i] for i in chosen]
        if rank(sub) < ncols:
            continue
        x = solve_unique(sub, [rhs[i] for i in chosen])
        if all(_dot(rows[i], x) == rhs[i] for i in range(k)) and _dot(rows[k], x) != rhs[k]:
            return True
    return False


def test_solve_unique_satisfies_every_row_or_names_a_failing_one():
    rng = random.Random(13)
    solved = inconsistent = 0
    for rows in _matrices(13):
        ncols = len(rows[0]) if rows else 0
        if not rows or rank(rows) < ncols:
            with pytest.raises(UnderdeterminedSystemError):
                solve_unique(rows, [F(1)] * len(rows))
            continue
        x = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
        rhs = [_dot(row, x) for row in rows]
        sol = solve_unique(rows, rhs)
        assert sol == x and all(_dot(row, sol) == t for row, t in zip(rows, rhs))
        solved += 1
        bad = list(rhs)
        bad[rng.randrange(len(bad))] += 1
        augmented = [row + [t] for row, t in zip(rows, bad)]
        if rank(augmented) == ncols:
            assert solve_unique(rows, bad) is not None
            continue
        with pytest.raises(InconsistentSystemError) as exc:
            solve_unique(rows, bad)
        assert _names_a_failing_row(rows, bad, exc.value.row_index)
        inconsistent += 1
    assert solved > 20 and inconsistent > 10


def test_reduced_echelon_rows_are_unit_at_own_pivot_and_zero_at_others():
    rng = random.Random(14)
    for rows in _matrices(14):
        ncols = len(rows[0]) if rows else 0
        order = list(range(ncols))
        rng.shuffle(order)
        entries = reduced_echelon(rows, order)
        pivots = [col for col, _ in entries]
        assert len(set(pivots)) == len(pivots) == rank(rows)
        assert rank(rows + [row for _, row in entries]) == rank(rows)
        for col, row in entries:
            for other in pivots:
                assert row[other] == (1 if other == col else 0)


def test_reduced_echelon_reports_an_unswept_column():
    with pytest.raises(LinearSystemError):
        reduced_echelon([[F(1), F(0)], [F(0), F(1)]], [0])


@pytest.mark.parametrize(
    "call",
    [
        lambda x: solve_unique([[x]], [1]),
        lambda x: solve_unique([[1]], [x]),
        lambda x: rank([[1, x], [2, 3]]),
        lambda x: row_dependencies([[1, 2], [x, 3]]),
        lambda x: reduced_echelon([[x, 1]], [0, 1]),
    ],
    ids=["solve-rows", "solve-rhs", "rank", "row_dependencies", "reduced_echelon"],
)
def test_floats_are_refused_with_their_value(call):
    with pytest.raises(TypeError, match="0.1"):
        call(0.1)
    call(F(1, 10))  # the exact value is accepted


# --- the fraction-free kernel against the Fraction elimination it replaced --


def _reference_rank(rows):
    return len(fraction_gauss_jordan(rows)[0])


def _reference_solve_unique(rows, rhs):
    ncols = len(rows[0])
    pivots, m = fraction_gauss_jordan([list(r) + [b] for r, b in zip(rows, rhs)], range(ncols))
    if len(pivots) < ncols:
        raise UnderdeterminedSystemError("reference")
    solution = [F(0)] * ncols
    for prow, pcol in zip(m, pivots):
        solution[pcol] = prow[-1]
    for k, (row, target) in enumerate(zip(rows, rhs)):
        if _dot(row, solution) != target:
            raise InconsistentSystemError(k)
    return solution


def _reference_row_dependencies(rows):
    pivots, m = fraction_gauss_jordan([list(col) for col in zip(*rows)])
    return [
        (idx, {pivots[i]: m[i][idx] for i in range(len(pivots)) if m[i][idx] != 0})
        for idx in range(len(rows))
        if idx not in pivots
    ]


def _reference_reduced_echelon(rows, column_order):
    pivots, m = fraction_gauss_jordan(rows, column_order)
    if any(any(x != 0 for x in r) for r in m[len(pivots):]):
        raise LinearSystemError("reference")
    return list(zip(pivots, m))


def _outcome(call, *args):
    """A wrapper's value, or the class and row index of what it raised."""
    try:
        return "value", call(*args)
    except LinearSystemError as exc:
        return type(exc), getattr(exc, "row_index", None)


def _big_entry(rng):
    if rng.random() < 0.3:
        return F(0)
    return F(rng.randint(-10**30, 10**30), rng.randint(1, 10**9))


def _wide_matrix(rng, nrows, ncols):
    """Huge numerators and denominators, zero rows and columns, dependent rows."""
    zero_cols = {c for c in range(ncols) if rng.random() < 0.15}
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            row = [F(0)] * ncols
        elif kind < 0.35 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            x, y = _big_entry(rng), _big_entry(rng)
            row = [x * p + y * q for p, q in zip(a, b)]
        else:
            row = [F(0) if c in zero_cols else _big_entry(rng) for c in range(ncols)]
        rows.append(row)
    return rows


def _differential_cases(seed, count=120):
    rng = random.Random(seed)
    for k in range(count):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 6)
        if k % 2:
            rows = _random_matrix(rng, nrows, ncols)
        else:
            rows = _wide_matrix(rng, nrows, ncols)
        order = list(range(ncols))
        rng.shuffle(order)
        yield rng, rows, order[: rng.randint(0, ncols)] if k % 5 == 0 else order


def test_kernel_matches_the_fraction_elimination():
    from dr2calc.linalg import _cleared, _gauss_jordan

    for _, rows, order in _differential_cases(21):
        ints = _cleared(rows)[0]
        before = [list(r) for r in ints]
        pivots, m = _gauss_jordan(ints, order)
        assert ints == before  # the caller's integer rows are left unchanged
        ref_pivots, ref = fraction_gauss_jordan(rows, order)
        assert pivots == ref_pivots
        n = len(pivots)
        assert all(type(x) is int for row in m for x in row)
        # each pivot row, divided by its pivot entry, is the reference row
        assert [[F(x, row[col]) for x in row] for col, row in zip(pivots, m)] == ref[:n]
        # every later row is a nonzero multiple of the reference row
        for row, ref_row in zip(m[n:], ref[n:]):
            assert [x != 0 for x in row] == [x != 0 for x in ref_row]
            assert all(row[c] == 0 for c in order)


def test_wrappers_match_the_fraction_elimination():
    inconsistent = underdetermined = 0
    for rng, rows, order in _differential_cases(22):
        ncols = len(rows[0])
        assert rank(rows) == _reference_rank(rows)
        assert row_dependencies(rows) == _reference_row_dependencies(rows)
        assert _outcome(reduced_echelon, rows, order) == _outcome(
            _reference_reduced_echelon, rows, order
        )
        x = [_big_entry(rng) for _ in range(ncols)]
        rhs = [_dot(row, x) for row in rows]
        for target in (rhs, [t + rng.choice((0, 0, 1, F(1, 10**9))) for t in rhs]):
            got = _outcome(solve_unique, rows, target)
            assert got == _outcome(_reference_solve_unique, rows, target)
            inconsistent += got[0] is InconsistentSystemError
            underdetermined += got[0] is UnderdeterminedSystemError
    assert inconsistent > 10 and underdetermined > 10


@pytest.mark.parametrize(
    "call",
    [
        lambda rows: solve_unique(rows, [1] * len(rows)),
        rank,
        row_dependencies,
        lambda rows: reduced_echelon(rows, [0, 1]),
    ],
    ids=["solve_unique", "rank", "row_dependencies", "reduced_echelon"],
)
@pytest.mark.parametrize(
    "rows, bad",
    [([[1, 0], [0, 1, 5]], 1), ([[1, 2], [3]], 1), ([[1, 2], [3, 4], []], 2), ([[1], [2, 3]], 1)],
)
def test_ragged_rows_are_refused_by_name(call, rows, bad):
    with pytest.raises(ValueError, match=f"row {bad} has {len(rows[bad])} entries"):
        call(rows)


def test_solve_unique_refuses_a_rhs_of_another_length():
    with pytest.raises(ValueError, match="row/rhs length mismatch"):
        solve_unique([[F(1), F(0)], [F(0), F(1)]], [F(1)])


# --- the memoized elimination against a plain elimination of [A | b] -------


def _shipped_matrix():
    from dr2calc.solver import full_system

    system = full_system()
    return [list(row.coefficients) for row in system.rows], [row.rhs for row in system.rows]


def _assert_solves_like_the_reference(rows, rhs):
    got = _outcome(solve_unique, rows, rhs)
    assert got == _outcome(_reference_solve_unique, rows, rhs)
    return got[0]


def _reference_solutions(rows, columns):
    """One plain elimination of [A | b_1 ... b_k]; the solution for each b,
    checked against every row."""
    ncols = len(rows[0])
    pivots, m = fraction_gauss_jordan(
        [list(row) + list(bs) for row, bs in zip(rows, zip(*columns))], range(ncols)
    )
    assert pivots == list(range(ncols))
    out = []
    for j, b in enumerate(columns):
        x = [m[i][ncols + j] for i in range(ncols)]
        assert all(_dot(row, x) == t for row, t in zip(rows, b))
        out.append(x)
    return out


def test_shipped_solve_matches_a_plain_elimination_at_seeded_sample_sets():
    matrix, rhs = _shipped_matrix()
    rng = random.Random(41)
    for _ in range(50):
        points = [F(x) for x in rng.sample(range(-200, 201), rng.randint(6, 9))]
        points[0] = F(rng.randint(-99, 99), rng.randint(2, 40))
        columns = [[p(x) for p in rhs] for x in points]
        assert [solve_unique(matrix, b) for b in columns] == _reference_solutions(matrix, columns)


def test_shipped_solve_matches_a_plain_elimination_on_perturbed_systems():
    matrix, rhs = _shipped_matrix()
    at = [p(F(7, 2)) for p in rhs]
    outcomes = set()
    for k in range(len(matrix)):
        bumped = list(at)
        bumped[k] += 1
        outcomes.add(_assert_solves_like_the_reference(matrix, bumped))
        zeroed = [row if i != k else [F(0)] * len(row) for i, row in enumerate(matrix)]
        outcomes.add(_assert_solves_like_the_reference(zeroed, at))
    for size in (10, 1):
        assert _assert_solves_like_the_reference(matrix[:size], at[:size]) is UnderdeterminedSystemError
    assert outcomes == {"value", InconsistentSystemError, UnderdeterminedSystemError}


def test_returned_lists_are_the_callers_own():
    rows = [[F(1), F(0)], [F(0), F(1)], [F(2), F(3)], [F(1), F(1)]]
    rhs = [F(1), F(2), F(8), F(3)]
    solution = solve_unique(rows, rhs)
    solution[0] = F(99)
    solution.append(F(1))
    assert solve_unique(rows, rhs) == [F(1), F(2)]

    deps = row_dependencies(rows)
    expected = [(i, dict(combo)) for i, combo in deps]
    deps[0][1][0] = F(99)
    deps[1][1].clear()
    deps.pop()
    assert row_dependencies(rows) == expected

    entries = reduced_echelon(rows, [1, 0])
    expected = [(col, list(row)) for col, row in entries]
    entries[0][1][0] = F(99)
    entries.pop()
    assert reduced_echelon(rows, [1, 0]) == expected


def test_rows_and_right_hand_sides_take_the_same_entries():
    assert solve_unique([["1/2", 0], [0, 3]], ["1/4", "-6"]) == [F(1, 2), F(-2)]
    assert solve_unique([[F(1, 2), 0], [0, 3]], [F(1, 4), -6]) == [F(1, 2), F(-2)]


def test_a_second_redundancy_report_runs_no_elimination(monkeypatch):
    from dr2calc import linalg, surfaces
    from dr2calc.solver import full_system, redundancy_report, solve_parametric

    kernel, calls = linalg._gauss_jordan, []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(linalg, "_gauss_jordan", counted)
    surfaces._load.cache_clear()
    system = full_system()
    matrix = surfaces.gated_matrix(system.rows)
    assert len(calls) == 2  # [A | I] at the load, then its left null space
    solve_parametric(system)
    first = redundancy_report(system)
    assert redundancy_report(system) == first
    assert len(calls) == 2
    assert [i for i, _ in matrix.null_space] == [row.index for row in first]
    stored = [matrix.ints, matrix.inverse, [v for _, v in matrix.null_space]]
    entries = [*matrix.scales, *matrix.pivots, *matrix.inverse_den, *(i for i, _ in matrix.null_space)]
    entries += [x for rows in stored for row in rows for x in row]
    assert all(type(x) is int for x in entries)


# --- a gated matrix against the plain rows it was built from ---------------


def _outcome_or_error(call, *args):
    """``_outcome``, or the class and text of a TypeError or ValueError."""
    try:
        return _outcome(call, *args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _gated_outcome(call, rows, *args):
    """``_outcome_or_error`` of a call on ``GatedMatrix(rows)``, or what the gate raised."""
    from dr2calc.linalg import GatedMatrix

    try:
        matrix = GatedMatrix(rows)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return _outcome_or_error(call, matrix, *args)


def test_a_gated_matrix_solves_and_finds_dependencies_like_its_rows():
    rng = random.Random(23)
    cases = [rows for rows in _matrices(23) if rows] + [rows for _, rows, _ in _differential_cases(24)]
    for rows in cases:
        ncols = len(rows[0])
        assert _gated_outcome(row_dependencies, rows) == _outcome_or_error(row_dependencies, rows)
        x = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
        rhs = [_dot(row, x) for row in rows]
        bumped = [t + rng.choice((0, 1, F(1, 7))) for t in rhs]
        for target in (rhs, bumped, rhs[1:], [0.5] * len(rows)):
            got = _gated_outcome(solve_unique, rows, target)
            assert got == _outcome_or_error(solve_unique, rows, target)


@pytest.mark.parametrize(
    "rows",
    [[[1, 0], [0, 1, 5]], [[1, 0.5], [0, 1, 5]], [[1, 2], ["1/0", 1]], [[1, 2], ["1.5", 1]], [[0.25]]],
)
def test_the_gated_matrix_constructor_raises_what_plain_rows_raise(rows):
    from dr2calc.linalg import GatedMatrix

    with pytest.raises((TypeError, ValueError)) as gate:
        GatedMatrix(rows)
    for call in (lambda m: solve_unique(m, [1] * len(rows)), row_dependencies):
        assert _outcome_or_error(call, rows) == (type(gate.value), str(gate.value))


def test_a_gated_matrix_has_its_rows_length_and_is_not_gated_again(monkeypatch):
    from dr2calc import linalg

    matrix = linalg.GatedMatrix([[F(1, 2), 0], [0, 3], ["1/3", "2/3"]])
    assert len(matrix) == 3 and matrix.width == 2
    assert matrix.ints == ((1, 0), (0, 3), (1, 2)) and matrix.scales == (2, 1, 3)
    cleared, gated = linalg._cleared, []

    def counted(rows):
        gated.append(len(rows))
        return cleared(rows)

    monkeypatch.setattr(linalg, "_cleared", counted)
    assert solve_unique(matrix, [F(1, 4), -6, "-7/6"]) == [F(1, 2), F(-2)]
    assert row_dependencies(matrix) == [(2, {0: F(2, 3), 1: F(2, 9)})]
    assert gated == [1]  # the right-hand side alone


def test_a_warm_solve_and_redundancy_report_run_no_matrix_gate(monkeypatch):
    from dr2calc import linalg
    from dr2calc.solver import full_system, redundancy_report, solve_parametric

    solve_parametric(full_system())
    redundancy_report(full_system())
    cleared, gated = linalg._cleared, []

    def counted(rows):
        gated.append(len(rows))
        return cleared(rows)

    monkeypatch.setattr(linalg, "_cleared", counted)
    cert = solve_parametric(full_system())
    assert len(redundancy_report(full_system())) == 2
    assert cert.consistent
    assert gated == [1] * len(cert.sample_points)  # one right-hand side per sample
