"""Named regression checks over every identity the package computes.

The CLI verify command runs them all (or a named subset) and fails on any
failure.  The checks are deliberately redundant with the test suite: they
make the whole verification story runnable from an installed package,
without pytest.

To add a check, write a function that returns ``(passed, details)`` and
decorate it with ``@_check(name)``; it imports in its own body each module
beyond ``chow`` and ``polyq`` that it reads, so that running one check loads
only what that check needs.  The decorator returns, and registers in
``CHECKS`` under ``name``, the check proper: it calls your function and builds
the ``CheckResult``.  ``verify`` runs the checks in definition order.  Every
name needs a case in ``FAILURES`` of ``tests/test_checks.py`` that makes it
fail with exact ``details``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from operator import mul
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import chow
from .chow import BASIS_NAMES, FUSED_SLOT, GENERATORS, RELATIONS, TautClass2, dr2_class
from .polyq import D, PolyQ, _echo, clear_denominators, taylor_shift

if TYPE_CHECKING:
    from .cones import StrataTable


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: str


#: The registered checks, by name, in definition order.
CHECKS: Dict[str, Callable[..., CheckResult]] = {}


def _check(name: str):
    """Register a function returning ``(passed, details)`` as the check ``name``."""

    def register(body: Callable[..., Tuple[bool, str]]) -> Callable[..., CheckResult]:
        def check(*args, **kwargs) -> CheckResult:
            return CheckResult(name, *body(*args, **kwargs))

        CHECKS[name] = check
        return check

    return register


def _inertia(gram: Sequence[Sequence[Fraction]]) -> Tuple[int, int, int]:
    """The (positive, negative, zero) eigenvalue counts of a symmetric
    rational matrix, by congruence diagonalisation in exact integers.

    The matrix is cleared of denominators, a positive scale.  Each step takes
    a nonzero diagonal entry p as pivot (when the diagonal is zero and some
    entry (i, j) is not, adding row and column j to row and column i puts
    2·(i, j) on the diagonal) and replaces the other rows and columns by |p|
    times their Schur complement: p's sign is one eigenvalue sign, and the
    rest keep their inertia.
    """
    m, _ = clear_denominators(gram)
    n = len(m)
    positive = negative = 0
    while m:
        k = next((i for i, row in enumerate(m) if row[i]), None)
        if k is None:
            entry = next(((i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x), None)
            if entry is None:
                break
            k, j = entry
            m[k] = [x + y for x, y in zip(m[k], m[j])]
            for row in m:
                row[k] += row[j]
        pivot = m.pop(k)
        p = pivot.pop(k)
        sign = 1 if p > 0 else -1
        positive, negative = positive + (p > 0), negative + (p < 0)
        column = [row.pop(k) for row in m]
        m = [[abs(p) * x - sign * f * y for x, y in zip(row, pivot)] for row, f in zip(m, column)]
    return positive, negative, n - positive - negative


@_check("surfaces")
def check_surfaces() -> Tuple[bool, str]:
    """Displayed intersection numbers, then on each surface: each relation
    pairs to zero, and the Gram matrix has one positive eigenvalue; then on
    each surface whose d0 restriction is zero, each of the four compact-type
    relations of ``ct.CT_RELATIONS`` pairs to zero.

    Each surface's pairing table is built once and read by both the
    displayed numbers and the relations (``RELATIONS[k]``, named by k, and
    the compact-type ones by their index among the four).  The relations
    and the Hodge index are checked only once every displayed number
    matches.
    """
    from . import ct, surfaces

    by_family = {s.family: s for s in surfaces.builtin_surfaces()}
    tables = {fam: surface.monomial_pairings() for fam, surface in by_family.items()}
    bad = []
    for fam, a, b, want in surfaces.DISPLAYED_INTERSECTIONS:
        got = by_family[fam].pair_generators(a, b, tables[fam])
        if got != want:
            bad.append(f"family {fam}: {a}.{b} = {got}, expected {want}")

    def cleared(relations):
        # each relation's coefficients as integers over one denominator
        return [
            (relation, *clear_denominators([[c.constant_value() for c in relation.values()]]))
            for relation in relations
        ]

    def pair(fam, relations, kind):
        pairings, den = tables[fam]
        for k, (relation, [ints], rden) in enumerate(relations):
            value = sum(map(mul, ints, map(pairings.__getitem__, relation)))
            if value:
                value = Fraction(value, den * rden)
                bad.append(f"family {fam}: {kind} {k} pairs to {value}, expected 0")

    if not bad:
        relations = cleared(RELATIONS)
        for fam in tables:
            pair(fam, relations, "relation")
            positive = _inertia(by_family[fam].gram)[0]
            if positive != 1:
                bad.append(
                    f"family {fam}: Gram matrix has {positive} positive eigenvalues, expected 1"
                )
        # Delta_0 is effective, so a surface on which its class is numerically
        # zero misses it and lies in compact type, where these relations hold.
        compact = cleared(ct.CT_RELATIONS[len(chow.RELATIONS) :])
        for fam, surface in by_family.items():
            if not any(surface.restriction("d0")):
                pair(fam, compact, "compact-type relation")
    n = len(surfaces.DISPLAYED_INTERSECTIONS)
    return not bad, "; ".join(bad) or f"all {n} displayed intersection numbers reproduced"


@_check("solver")
def check_solver() -> Tuple[bool, str]:
    from . import solver

    sys_ = solver.full_system()
    try:
        cert = solver.solve_parametric(sys_)
    except solver.UnderdeterminedSystemError as exc:
        return False, f"rank defect: {exc}"
    except solver.InconsistentSystemError as exc:
        return False, f"inconsistent at row {exc.row_index}"
    problems = []
    if not cert.consistent:
        problems.append("nonzero symbolic residual")
    deps = solver.redundancy_report(sys_)
    if len(deps) != 2:
        problems.append(f"{len(deps)} redundant rows, expected 2")
    if cert.solution != dr2_class(D):
        problems.append("solution differs from the closed-form class")
    return not problems, (
        "; ".join(problems) or "rank 14, 2 redundant rows, solution matches the closed form"
    )


@_check("pushforward")
def check_pushforward() -> Tuple[bool, str]:
    from . import m21

    c = dr2_class(D)
    expected = m21.pushforward_class_formula(D)
    ok = (
        m21.pushforward(c, 1) == expected
        and m21.pushforward(c, 2) == expected
        and m21.pushforward_class_formula(2) == m21.WEIERSTRASS_CLASS.scale(5)
    )
    if not ok:
        return False, "push-forward identity failed"
    # The projection formula along pi, which forgets point 1: with
    # pi^*psi = psi2 - d2, pi^*d0 = d0, pi^*d1 = d11 + d12 and pi_* of the
    # generators (3, 1, 0, 1, 0, 0), pi_*(pi^*a * b) = pi_*(b) a for each a
    # and generator b; and pi_*(psi1^2) = kappa_1 = psi + d0/5 + 7 d1/5.  The
    # 19 products span the 14 slots, so every edit of the table breaks one.
    pullbacks = ((0, 1, 0, -1, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 1))
    identities = [
        (f"pi^*{a} * {b}", chow.DivisorM22(pullback), chow.DivisorM22.unit(j), m21.DivisorM21.unit(i).scale(n))
        for i, (a, pullback) in enumerate(zip(m21.M21_NAMES, pullbacks))
        for j, (b, n) in enumerate(zip(GENERATORS, (3, 1, 0, 1, 0, 0)))
    ]
    psi1 = chow.DivisorM22.unit(0)
    identities.append(("psi1^2", psi1, psi1, m21.DivisorM21((1, Fraction(1, 5), Fraction(7, 5)))))
    bad = [
        f"pi_*({name}) = {got!r}, expected {want!r}"
        for name, a, b, want in identities
        if (got := m21.pushforward(chow.multiply_divisors(a, b), 1)) != want
    ]
    if bad:
        return False, "projection formula fails: " + "; ".join(bad)
    return True, "push-forward matches the closed form for both markings; d=2 gives 5W"


@_check("chi-pipeline")
def check_chi_pipeline() -> Tuple[bool, str]:
    from . import m21

    ok = m21.chi_pullback_pipeline(D) == m21.pushforward_class_formula(D)
    return ok, (
        "Diaz pull-back pipeline reproduces the push-forward class"
        if ok
        else "pipeline output differs"
    )


@_check("psi3")
def check_psi3() -> Tuple[bool, str]:
    from . import m21

    got = m21.psi_cubed_intersection(D)
    want = (D * D - 1) * (3 * D * D - 7) / 5760
    ok = got == want and got(2) == Fraction(1, 384)
    return ok, f"psi^3 pairing is {got} with value 1/384 at d=2" if ok else f"got {got}"


@_check("m-count")
def check_pencil_count() -> Tuple[bool, str]:
    from . import m21

    counts = [(g, m21.pencil_count(g)) for g in range(1, 101)]
    for g, n in counts:
        if type(n) is not int:
            return False, f"count at g = {g} is {n!r}, expected an int"
    bad = [g for g, n in counts if g * (g + 1) * (g + 2) != ((g + 1) ** 2 - 1) + n]
    if bad:
        return False, f"fails at g in {bad}"
    # The scan shows that pencil_count is (g+2)g^2; this proves the splitting
    # of that formula for every g.
    residual = D * (D + 1) * (D + 2) - ((D + 1) ** 2 - 1) - (D + 2) * D * D
    if not residual.is_zero():
        return False, f"g(g+1)(g+2) - ((g+1)^2 - 1) - (g+2)g^2 = {residual}, expected 0"
    return True, "splitting identity holds for g = 1..100"


@_check("hac")
def check_hac() -> Tuple[bool, str]:
    from . import ct

    try:
        report = ct.verify_hac()
    except ArithmeticError as exc:
        return False, str(exc)
    rows = report.decorated
    extras = (
        rows.d22 == ct.CtClass((0, 0, 0, -1, 0))
        and rows.d11bar
        == ct.CtClass(
            (Fraction(-1, 4), Fraction(1, 4), Fraction(1, 4), 0, Fraction(-1, 2))
        )
    )
    ok = report.ok and extras
    return ok, (
        "Hain-class comparison and decorated decomposition hold symbolically"
        if ok
        else "comparison failed"
    )


@_check("ci-obstruction")
def check_ci_obstruction() -> Tuple[bool, str]:
    import random

    from . import cones

    # Each weight is Fraction(randint(0, 12), randint(1, 6)), read from the
    # 78 such Fractions built once.  randint(0, 12) draws 4-bit words until
    # one is at most 12, and randint(1, 6) 3-bit words until one is at most
    # 5, plus 1; the stream draws those words, in the same order, without
    # randint's per-call work.
    bits = random.Random(20250817).getrandbits
    weights = [[Fraction(n, d) for d in range(1, 7)] for n in range(13)]

    def stream():
        while True:
            n = bits(4)
            while n > 12:
                n = bits(4)
            d = bits(3)
            while d > 5:
                d = bits(3)
            yield weights[n][d]

    draws, pattern = stream(), cones.EffectiveDivisorPattern
    for trial in range(1000):
        w = list(islice(draws, 12))
        a, b = pattern(*w[:6]), pattern(*w[6:])
        got = cones.ci_obstruction(a, b)
        # (a_psi1 b_psi1 + a_psi2 b_psi2) / 2 as one Fraction
        p, q, r, s = a.psi1, b.psi1, a.psi2, b.psi2
        pq, rs = p.denominator * q.denominator, r.denominator * s.denominator
        want = Fraction(p.numerator * q.numerator * rs + r.numerator * s.numerator * pq, 2 * pq * rs)
        if got != want or got.numerator < 0:
            return False, f"trial {trial}: {got} != {want}"
    # Proof of the sampled statement: the fused slot of a product reads only
    # psi1*psi1 and psi2*psi2, each at weight 1/2, and the class's is negative.
    reducer = chow._REDUCER
    fused = {
        f"{GENERATORS[i]}*{GENERATORS[j]}": Fraction(w, reducer.den)
        for (i, j), entry in reducer.rows.items()
        for k, w in entry
        if k == FUSED_SLOT
    }
    if fused != {"psi1*psi1": Fraction(1, 2), "psi2*psi2": Fraction(1, 2)}:
        terms = ", ".join(f"{w} {m}" for m, w in fused.items())
        return False, f"fused slot of a product reads {terms}, expected 1/2 psi1*psi1, 1/2 psi2*psi2"
    slot = dr2_class(D).coeffs[FUSED_SLOT]
    if slot != (D * D - 1) * (2 - D * D) / 4:
        return False, f"fused slot of the class is {slot}, expected (d^2-1)(2-d^2)/4"
    # Proof that the class's fused slot is negative for every real d >= 2:
    # at d + 2 it has a negative constant term and no positive coefficient.
    shifted = taylor_shift(slot, 2)
    if not (shifted(0) < 0 and all(c <= 0 for c in shifted.num)):
        return False, (
            f"fused slot of the class at d + 2 is {shifted}, "
            "expected a negative constant and no positive coefficient"
        )
    # The text predates the Taylor-shift proof and is pinned by the golden
    # verify report, so it still names the d = 2..50 scan the proof replaced.
    return True, (
        "1000 random effective products have non-negative fused slot; "
        "the class has negative fused slot for d = 2..50"
    )


@_check("cone-decomposition")
def check_cone_decomposition() -> Tuple[bool, str]:
    from . import cones

    try:
        coefficients = cones.cone_decomposition(D)
    except ArithmeticError as exc:
        return False, str(exc)
    inf = cones.dr_infinity()
    expected = (
        Fraction(1, 2),
        Fraction(-1, 4),
        Fraction(-3, 20),
        Fraction(-3, 20),
        Fraction(1, 10),
        Fraction(1, 10),
        Fraction(1, 120),
        Fraction(1, 120),
    ) + (0,) * 6
    if inf != TautClass2(expected):
        return False, "limit class slots differ"
    # Cone membership for every real d >= 2: neither coefficient has a
    # negative coefficient at d + 2.
    for ray, coefficient in zip(("degree-2", "limit"), coefficients):
        shifted = taylor_shift(coefficient, 2)
        if any(c < 0 for c in shifted.num):
            return False, f"{ray} coefficient at d + 2 is {shifted}, expected no negative coefficient"
    return True, "two-ray decomposition holds slot-wise; limit class matches"


@_check("nonextremality")
def check_nonextremality(
    strata_table: Optional[StrataTable] = None,
) -> Tuple[bool, str]:
    """The weights are positive, a supplied strata table closes the identity,
    and its restriction to compact type holds with no table: there d01|, d0|
    and d00, which lie in delta_0, restrict to zero, and d11| is the stratum
    d11bar that ``ct.derive_decorated_rows`` derives from Hain's formula."""
    from . import cones, ct

    report = cones.nonextremality_check(strata_table)
    weights = report.weights
    if not all(w > 0 for w in weights.values()):
        return False, "a decomposition weight is not positive"
    if report.status == "failed":
        return False, "supplied strata table does not close the identity"
    restrict = ct.restrict_to_ct
    restricted = {
        "d12d2": restrict(TautClass2.unit(BASIS_NAMES.index("d12d2"))),
        "d0d2": restrict(TautClass2.unit(BASIS_NAMES.index("d0d2"))),
        "d11|": ct.derive_decorated_rows().d11bar,
        "dr2(2)": restrict(dr2_class(2)),
    }
    combo = sum((c.scale(weights[n]) for n, c in restricted.items()), ct.CtClass.zero())
    if restrict(cones.dr_infinity()) != combo:
        return False, "identity restricted to compact type fails"
    return True, "all decomposition weights positive; identity " + (
        "verified against supplied table" if report.status == "verified" else "data-gated, skipped"
    )


@_check("nonpolynomiality")
def check_nonpolynomiality() -> Tuple[bool, str]:
    from . import cones

    report = cones.nonpolynomiality_witness(4)
    ok = (
        report.interpolant == PolyQ((-2, 0, 2))
        and report.value_at_zero == Fraction(-2)
        and report.count_at_zero == 0
        and report.witnesses_nonpolynomiality
    )
    return ok, (
        "interpolant through m = 1..5 predicts -2 at 0, true count is 0"
        if ok
        else "witness failed"
    )


def run_checks(
    only: Optional[Sequence[str]] = None,
    strata_table: Optional[StrataTable] = None,
) -> List[CheckResult]:
    # something not iterable is read as its one item, which is not a name
    names = list(CHECKS) if only is None else list(only) if isinstance(only, Iterable) else [only]
    if isinstance(only, str) or not all(isinstance(name, str) for name in names):
        raise TypeError(f"only must be a sequence of check names, got the {type(only).__name__} {_echo(only)}")
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown check name(s): {_echo(unknown)}; valid: {list(CHECKS)}")
    return [
        CHECKS[name](strata_table=strata_table)
        if name == "nonextremality"
        else CHECKS[name]()
        for name in names
    ]
