"""Every named check reports a failure, with its details, when the identity it
verifies breaks.  Each case replaces the function the check relies on with a
wrong one, or feeds the check wrong input, and runs the check."""

import hashlib
import random
from fractions import Fraction

import pytest

from dr2calc import checks, chow, cones, ct, m21, solver, surfaces
from dr2calc.chow import D0, D11, D12, FUSED_SLOT, PSI1, PSI2, TautClass2, dr2_class, mono
from dr2calc.linalg import InconsistentSystemError
from dr2calc.polyq import D, PolyQ

F = Fraction


def _off_by_one_pairing(monkeypatch):
    pair = surfaces.SurfaceModel.pair_generators

    def wrong(self, a, b, *table):
        return pair(self, a, b, *table) + ((self.family, a, b) == (1, "psi1", "psi1"))

    monkeypatch.setattr(surfaces.SurfaceModel, "pair_generators", wrong)
    return {}


def _off_by_one_pairing_table(monkeypatch):
    # the integer kernel itself: family 1's psi1*psi1 numerator is 1 too large
    table = surfaces.SurfaceModel.monomial_pairings

    def wrong(self):
        pairings, den = table(self)
        if self.family == 1:
            pairings = {**pairings, mono(PSI1, PSI1): pairings[mono(PSI1, PSI1)] + 1}
        return pairings, den

    monkeypatch.setattr(surfaces.SurfaceModel, "monomial_pairings", wrong)
    return {}


def _symmetry_rows_only(monkeypatch):
    system = solver.ParamSystem(rows=surfaces.symmetry_rows())
    monkeypatch.setattr(solver, "full_system", lambda: system)
    return {}


def _inconsistent_solve(monkeypatch):
    def raise_inconsistent(system):
        raise InconsistentSystemError(5)

    monkeypatch.setattr(solver, "solve_parametric", raise_inconsistent)
    return {}


def _wrong_certificate(monkeypatch):
    cert = solver.SolveCertificate(
        solution=TautClass2.zero(), rank=13, consistent=False, residuals=(), sample_points=()
    )
    monkeypatch.setattr(solver, "solve_parametric", lambda system: cert)
    monkeypatch.setattr(solver, "redundancy_report", lambda system: [])
    return {}


def _patch(module, name, value):
    def apply(monkeypatch):
        monkeypatch.setattr(module, name, value)
        return {}

    return apply


def _raise_arithmetic(d):
    raise ArithmeticError("two-ray decomposition failed slot-wise")


def _wrong_limit_class(monkeypatch):
    monkeypatch.setattr(cones, "cone_decomposition", lambda d: (F(1), F(0)))
    monkeypatch.setattr(cones, "dr_infinity", TautClass2.zero)
    return {}


def _zero_weight(monkeypatch):
    monkeypatch.setitem(cones.DECOMPOSITION_WEIGHTS, "d00", F(0))
    return {}


def _miscopied_relation(monkeypatch):
    # relation 0 is d12 * (12 d11 + 12 d12 + d0); read 12 d11 as 11 d11
    relation = {**checks.RELATIONS[0], mono(D11, D12): PolyQ((11,))}
    monkeypatch.setattr(checks, "RELATIONS", (relation,) + checks.RELATIONS[1:])
    return {}


def _off_by_one_pairing_and_miscopied_relation(monkeypatch):
    # the relations are paired only once every displayed number matches
    _miscopied_relation(monkeypatch)
    return _off_by_one_pairing(monkeypatch)


def _hain_plus_d2_e0(monkeypatch):
    # the "hain+d2*e0" fault of tests/test_ct.py: the derivation raises
    hain = ct.hain_class
    monkeypatch.setattr(ct, "hain_class", lambda d: hain(d) + ct.CtClass.unit(0).scale(D * D))
    return {}


def _psi1_d0_in_the_fused_row(monkeypatch):
    # the product table's fused slot picks up a psi1*d0 term
    reducer = chow._REDUCER
    entry = reducer.rows[mono(PSI1, D0)] + ((FUSED_SLOT, reducer.den),)
    monkeypatch.setattr(reducer, "rows", {**reducer.rows, mono(PSI1, D0): entry})
    return {}


def _psi1_d0_reads_the_fused_slot(monkeypatch):
    # the same table fault, with the sampled products read off the closed
    # form, so that only the proof from the table sees it
    def closed_form(a, b):
        return (a.psi1 * b.psi1 + a.psi2 * b.psi2) / 2

    monkeypatch.setattr(cones, "ci_obstruction", closed_form)
    return _psi1_d0_in_the_fused_row(monkeypatch)


def _inert_gram_entry(monkeypatch):
    # family 10's D13.D13 entry read as 0 instead of -1: no restriction has a
    # D13 component, so no row, displayed number or relation changes
    loaded = surfaces.builtin_surfaces()
    s = loaded[-1]
    gram = tuple(
        tuple(F(0) if i == j == 1 else x for j, x in enumerate(row)) for i, row in enumerate(s.gram)
    )
    wrong = loaded[:-1] + (s._replace(gram=gram),)
    monkeypatch.setattr(surfaces, "builtin_surfaces", lambda: wrong)
    return {}


def _d11bar_weight_three_fifths(monkeypatch):
    # the compact-type half of the identity pins the d11| weight at 2/5
    monkeypatch.setitem(cones.DECOMPOSITION_WEIGHTS, "d11|", F(3, 5))
    return {}


def _d2sq_row_edited(monkeypatch):
    # psi's entry of the d2sq row read as 0 instead of -1: the class has no
    # d2sq component, so only the projection formula sees it
    table = m21.PUSHFORWARD_TABLE_PI1
    monkeypatch.setattr(m21, "PUSHFORWARD_TABLE_PI1", table[:8] + ((0, 0, 0),) + table[9:])
    return {}


def _negated_closed_form(monkeypatch):
    monkeypatch.setattr(cones, "ci_obstruction", lambda a, b: -(a.psi1 * b.psi1 + a.psi2 * b.psi2) / 2)
    return {}


def _wrong_from_trial_one(monkeypatch):
    # right on the first product, one too large on every later one
    ci_obstruction, trials = cones.ci_obstruction, []

    def wrong(a, b):
        trials.append(None)
        return ci_obstruction(a, b) + (len(trials) > 1)

    monkeypatch.setattr(cones, "ci_obstruction", wrong)
    return {}


def _psi1_psi2_doubled_in_a_compact_type_relation(monkeypatch):
    # the first compact-type relation's psi1*psi2 coefficient read as 2
    n = len(chow.RELATIONS)
    relation = {**ct.CT_RELATIONS[n], mono(PSI1, PSI2): PolyQ((2,))}
    monkeypatch.setattr(ct, "CT_RELATIONS", ct.CT_RELATIONS[:n] + (relation,) + ct.CT_RELATIONS[n + 1 :])
    return {}


def _zero_strata_table(monkeypatch):
    return {"strata_table": {name: TautClass2.zero() for name in cones.REQUIRED_STRATA}}


FAILURES = [
    ("surfaces", _off_by_one_pairing, "family 1: psi1.psi1 = 3, expected 2"),
    ("solver", _symmetry_rows_only, "rank defect: rank 3 < 14 unknowns"),
    ("solver", _inconsistent_solve, "inconsistent at row 5"),
    (
        "solver",
        _wrong_certificate,
        "nonzero symbolic residual; 0 redundant rows, expected 2; "
        "solution differs from the closed-form class",
    ),
    (
        "pushforward",
        _patch(m21, "pushforward", lambda c, marking: m21.DivisorM21.zero()),
        "push-forward identity failed",
    ),
    (
        "chi-pipeline",
        _patch(m21, "chi_pullback_pipeline", lambda d: m21.DivisorM21.zero()),
        "pipeline output differs",
    ),
    ("psi3", _patch(m21, "psi_cubed_intersection", lambda d: PolyQ()), "got 0"),
    (
        "m-count",
        _patch(m21, "pencil_count", lambda g: 0),
        f"fails at g in {list(range(1, 101))}",
    ),
    (
        "hac",
        _patch(
            ct,
            "derive_decorated_rows",
            lambda: ct.DecoratedRows(d22=ct.CtClass.zero(), d11bar=ct.CtClass.zero()),
        ),
        "comparison failed",
    ),
    (
        "ci-obstruction",
        _patch(cones, "ci_obstruction", lambda a, b: F(-1)),
        "trial 0: -1 != 393/80",
    ),
    (
        "ci-obstruction",
        _patch(checks, "dr2_class", lambda d: TautClass2.zero()),
        "fused slot of the class is 0, expected (d^2-1)(2-d^2)/4",
    ),
    (
        "cone-decomposition",
        _patch(cones, "cone_decomposition", _raise_arithmetic),
        "two-ray decomposition failed slot-wise",
    ),
    ("cone-decomposition", _wrong_limit_class, "limit class slots differ"),
    ("nonextremality", _zero_weight, "a decomposition weight is not positive"),
    (
        "nonextremality",
        _zero_strata_table,
        "supplied strata table does not close the identity",
    ),
    (
        "nonpolynomiality",
        _patch(cones, "dr_count_two_points", lambda m: 2 * (m * m - 1)),
        "witness failed",
    ),
    (
        "surfaces",
        _miscopied_relation,
        "family 2: relation 0 pairs to 2, expected 0; family 4: relation 0 pairs to -1, expected 0",
    ),
    (
        "surfaces",
        _off_by_one_pairing_and_miscopied_relation,
        "family 1: psi1.psi1 = 3, expected 2",
    ),
    ("hac", _hain_plus_d2_e0, "re-substitution into the Hain expansion failed"),
    (
        "ci-obstruction",
        _psi1_d0_reads_the_fused_slot,
        "fused slot of a product reads 1/2 psi1*psi1, 1 psi1*d0, 1/2 psi2*psi2, "
        "expected 1/2 psi1*psi1, 1/2 psi2*psi2",
    ),
    (
        "ci-obstruction",
        _patch(checks, "dr2_class", lambda d: dr2_class(d).scale(2)),
        "fused slot of the class is -1/2*d^4 + 3/2*d^2 - 1, expected (d^2-1)(2-d^2)/4",
    ),
    ("surfaces", _off_by_one_pairing_table, "family 1: psi1.psi1 = 3, expected 2"),
    ("surfaces", _inert_gram_entry, "family 10: Gram matrix has 2 positive eigenvalues, expected 1"),
    (
        "m-count",
        _patch(PolyQ, "__pow__", lambda self, n: self),
        "g(g+1)(g+2) - ((g+1)^2 - 1) - (g+2)g^2 = d^2 + d, expected 0",
    ),
    (
        "m-count",
        _patch(m21, "pencil_count", lambda g: (g + 2) * g * g / 1),
        "count at g = 1 is 3.0, expected an int",
    ),
    # the products read the table the proof reads, so the sampling fails first
    ("ci-obstruction", _psi1_d0_in_the_fused_row, "trial 0: 289/240 != 393/80"),
    ("nonextremality", _d11bar_weight_three_fifths, "identity restricted to compact type fails"),
    # a shift that leaves the slot where it is proves nothing about d >= 2
    (
        "ci-obstruction",
        _patch(checks, "taylor_shift", lambda p, a: p),
        "fused slot of the class at d + 2 is -1/4*d^4 + 3/4*d^2 - 1/2, "
        "expected a negative constant and no positive coefficient",
    ),
    # a limit coefficient (d^2-1)(d^2-5), negative at d = 2
    (
        "cone-decomposition",
        _patch(cones, "cone_decomposition", lambda d: ((D * D - 1) / 3, (D * D - 1) * (D * D - 5))),
        "limit coefficient at d + 2 is d^4 + 8*d^3 + 18*d^2 + 8*d - 3, expected no negative coefficient",
    ),
    (
        "pushforward",
        _d2sq_row_edited,
        "projection formula fails: pi_*(pi^*psi * d2) = DivisorM21(0), expected DivisorM21(psi: 1)",
    ),
    ("ci-obstruction", _negated_closed_form, "trial 0: -393/80 != 393/80"),
    ("ci-obstruction", _wrong_from_trial_one, "trial 1: 73/6 != 67/6"),
    (
        "surfaces",
        _psi1_psi2_doubled_in_a_compact_type_relation,
        "family 1: compact-type relation 0 pairs to 6, expected 0; "
        "family 2: compact-type relation 0 pairs to 1, expected 0",
    ),
]


@pytest.mark.parametrize(
    "name, breakage, details",
    FAILURES,
    ids=[f"{case[0]}-{k}" for k, case in enumerate(FAILURES)],
)
def test_every_named_check_can_fail(monkeypatch, name, breakage, details):
    kwargs = breakage(monkeypatch)
    result = checks.CHECKS[name](**kwargs)
    assert result.name == name
    assert result.passed is False
    assert result.details == details


def test_every_named_check_has_a_failure_case():
    assert {name for name, _, _ in FAILURES} == set(checks.CHECKS)


def test_run_checks_rejects_unknown_names():
    with pytest.raises(KeyError, match=r"unknown check name\(s\): \['nope'\]"):
        checks.run_checks(["solver", "nope"])


def test_run_checks_refuses_bytes_by_name():
    # iterating bytes gives ints, which would be reported as unknown names
    with pytest.raises(TypeError, match=r"^only must be a sequence of check names, got the bytes b'ab'$"):
        checks.run_checks(only=b"ab")


@pytest.mark.parametrize(
    "only, shown",
    [
        (bytearray(b"ab"), r"bytearray bytearray\(b'ab'\)"),
        ([1], r"list \[1\]"),
        (["solver", 1], r"list \['solver', 1\]"),
    ],
    ids=["bytearray", "int", "int-after-name"],
)
def test_run_checks_refuses_an_item_that_is_not_a_name(only, shown):
    with pytest.raises(TypeError, match=f"^only must be a sequence of check names, got the {shown}$"):
        checks.run_checks(only=only)


@pytest.mark.parametrize(
    "only, shown",
    [(5, "int 5"), (2.5, "float 2.5"), (object(), r"object <object object at 0x[0-9a-f]+>")],
    ids=["int", "float", "object"],
)
def test_run_checks_refuses_what_is_not_iterable_by_name(only, shown):
    with pytest.raises(TypeError, match=f"^only must be a sequence of check names, got the {shown}$"):
        checks.run_checks(only=only)


def test_run_checks_refuses_a_bare_string_by_name():
    with pytest.raises(TypeError, match=r"^only must be a sequence of check names, got the str 'solver'$"):
        checks.run_checks(only="solver")


def test_run_checks_with_an_empty_selection_runs_none():
    assert checks.run_checks(only=[]) == []
    assert checks.run_checks([]) == []


def test_ci_obstruction_trials_are_pinned(monkeypatch):
    # The trials' draws, their number and their route through the product
    # are fixed: the digest is of the 1000 pattern pairs as first drawn.
    pairs, products = [], []
    ci_obstruction, multiply = cones.ci_obstruction, cones.multiply_divisors

    def record_pair(a, b):
        pairs.append((a, b))
        return ci_obstruction(a, b)

    def record_product(a, b):
        products.append(None)
        return multiply(a, b)

    monkeypatch.setattr(cones, "ci_obstruction", record_pair)
    monkeypatch.setattr(cones, "multiply_divisors", record_product)
    assert checks.CHECKS["ci-obstruction"]().passed
    assert len(pairs) == 1000
    assert len(products) == 1000
    text = "\n".join(" ".join(str(getattr(p, n)) for p in pair for n in chow.GENERATORS) for pair in pairs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5377c5ef7e49fba98cfa37cf2acb77998ff7da0eb8f8ff3384f4031ec0f38089"
    )


def test_ci_obstruction_draws_are_randints(monkeypatch):
    # The check draws its words with getrandbits; they are the weights
    # Fraction(randint(0, 12), randint(1, 6)) of the same seed, in order.
    pairs, ci_obstruction = [], cones.ci_obstruction

    def record_pair(a, b):
        pairs.append((a, b))
        return ci_obstruction(a, b)

    monkeypatch.setattr(cones, "ci_obstruction", record_pair)
    assert checks.CHECKS["ci-obstruction"]().passed
    rng = random.Random(20250817)
    replay = [[F(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(12)] for _ in range(1000)]
    assert [[getattr(p, n) for p in pair for n in chow.GENERATORS] for pair in pairs] == replay


def _descartes_inertia(a):
    """(positive, negative, zero) roots of a symmetric matrix's characteristic
    polynomial, from Faddeev-LeVerrier over Fraction; the roots are real, so
    Descartes' rule of signs counts them exactly."""
    n = len(a)

    def times_a(m):
        return [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]

    coeffs, m = [F(1)], [[F(0)] * n for _ in range(n)]  # coeffs[k] is that of x^(n-k)
    for k in range(1, n + 1):
        m = [[x + coeffs[-1] * (i == j) for j, x in enumerate(row)] for i, row in enumerate(times_a(m))]
        coeffs.append(-sum(row[i] for i, row in enumerate(times_a(m))) / k)
    zero = next((k for k, c in enumerate(reversed(coeffs)) if c), n)
    nonzero = coeffs[: n + 1 - zero]

    def changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    flipped = [c * (-1) ** (n - k) for k, c in enumerate(nonzero)]
    return changes(nonzero), changes(flipped), zero


def test_inertia_matches_the_characteristic_polynomial():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 6)
        a = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.5:
                    a[i][j] = a[j][i] = F(rng.randint(-4, 4), rng.randint(1, 3))
        if rng.random() < 0.3:  # a zero diagonal, which needs the off-diagonal step
            for i in range(n):
                a[i][i] = F(0)
        assert checks._inertia(a) == _descartes_inertia(a), a


def test_every_gram_matrix_has_the_hodge_index():
    inertia = {s.family: checks._inertia(s.gram) for s in surfaces.builtin_surfaces()}
    n = {s.family: len(s.generators) for s in surfaces.builtin_surfaces()}
    assert {fam: inertia[fam] for fam in (9, 10)} == {9: (1, 1, 3), 10: (1, 4, 5)}
    assert all(inertia[fam] == (1, n[fam] - 1, 0) for fam in range(1, 9))
    for s in surfaces.builtin_surfaces():
        assert checks._inertia(s.gram) == _descartes_inertia(s.gram), s.family


def test_the_inert_gram_entry_changes_no_equation_row(monkeypatch):
    rows = [surfaces.equation_row(s) for s in surfaces.builtin_surfaces()]
    _inert_gram_entry(monkeypatch)
    assert [surfaces.equation_row(s) for s in surfaces.builtin_surfaces()] == rows
