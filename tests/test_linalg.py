import itertools
import random
from fractions import Fraction

import pytest

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
