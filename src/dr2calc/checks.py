"""Named regression checks over every identity the package computes.

Each check is a pure function returning a CheckResult; the CLI verify
command runs them all (or a named subset) and fails on any failure.  The
checks are deliberately redundant with the test suite: they make the whole
verification story runnable from an installed package, without pytest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from . import cones, ct, m21, solver, surfaces
from .chow import dr2_class
from .polyq import D, PolyQ


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str


def check_surfaces() -> CheckResult:
    by_family = {s.family: s for s in surfaces.builtin_surfaces()}
    bad = []
    for fam, a, b, want in surfaces.DISPLAYED_INTERSECTIONS:
        got = by_family[fam].pair_generators(a, b)
        if got != want:
            bad.append(f"family {fam}: {a}.{b} = {got}, expected {want}")
    if bad:
        return CheckResult("surfaces", False, "; ".join(bad))
    n = len(surfaces.DISPLAYED_INTERSECTIONS)
    return CheckResult("surfaces", True, f"all {n} displayed intersection numbers reproduced")


def check_solver(system: Optional[solver.ParamSystem] = None) -> CheckResult:
    sys_ = system or solver.full_system()
    try:
        cert = solver.solve_parametric(sys_)
    except solver.UnderdeterminedSystemError as exc:
        return CheckResult("solver", False, f"rank defect: {exc}")
    except solver.InconsistentSystemError as exc:
        return CheckResult("solver", False, f"inconsistent at row {exc.row_index}")
    problems = []
    if cert.rank != 14:
        problems.append(f"rank {cert.rank} != 14")
    if not cert.consistent:
        problems.append("nonzero symbolic residual")
    deps = solver.redundancy_report(sys_)
    if len(deps) != 2:
        problems.append(f"{len(deps)} redundant rows, expected 2")
    if cert.solution != dr2_class(D):
        problems.append("solution differs from the closed-form class")
    if problems:
        return CheckResult("solver", False, "; ".join(problems))
    return CheckResult(
        "solver", True, "rank 14, 2 redundant rows, solution matches the closed form"
    )


def check_pushforward() -> CheckResult:
    c = dr2_class(D)
    expected = m21.pushforward_class_formula(D)
    ok = (
        m21.pushforward(c, 1) == expected
        and m21.pushforward(c, 2) == expected
        and m21.pushforward_class_formula(2) == m21.WEIERSTRASS_CLASS.scale(5)
    )
    details = (
        "push-forward matches the closed form for both markings; d=2 gives 5W"
        if ok
        else "push-forward identity failed"
    )
    return CheckResult("pushforward", ok, details)


def check_chi_pipeline() -> CheckResult:
    ok = m21.chi_pullback_pipeline(D) == m21.pushforward_class_formula(D)
    return CheckResult(
        "chi-pipeline",
        ok,
        "Diaz pull-back pipeline reproduces the push-forward class"
        if ok
        else "pipeline output differs",
    )


def check_psi3() -> CheckResult:
    got = m21.psi_cubed_intersection(D)
    want = (D * D - 1) * (3 * D * D - 7) / 5760
    ok = got == want and got(2) == Fraction(1, 384)
    return CheckResult(
        "psi3",
        ok,
        f"psi^3 pairing is {got} with value 1/384 at d=2" if ok else f"got {got}",
    )


def check_pencil_count() -> CheckResult:
    bad = [
        g
        for g in range(1, 101)
        if g * (g + 1) * (g + 2) != ((g + 1) ** 2 - 1) + m21.pencil_count(g)
    ]
    ok = not bad
    return CheckResult(
        "m-count",
        ok,
        "splitting identity holds for g = 1..100" if ok else f"fails at g in {bad}",
    )


def check_hac() -> CheckResult:
    report = ct.verify_hac()
    rows = report.decorated
    extras = (
        rows.d22 == ct.CtClass((0, 0, 0, -1, 0))
        and rows.d11bar
        == ct.CtClass(
            (Fraction(-1, 4), Fraction(1, 4), Fraction(1, 4), 0, Fraction(-1, 2))
        )
    )
    ok = report.ok and extras
    return CheckResult(
        "hac",
        ok,
        "Hain-class comparison and decorated decomposition hold symbolically"
        if ok
        else "comparison failed",
    )


def check_ci_obstruction() -> CheckResult:
    rng = random.Random(20250817)
    for trial in range(1000):
        a = cones.EffectiveDivisorPattern(
            *[Fraction(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(6)]
        )
        b = cones.EffectiveDivisorPattern(
            *[Fraction(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(6)]
        )
        got = cones.ci_obstruction(a, b)
        want = (a.psi1 * b.psi1 + a.psi2 * b.psi2) / 2
        if got != want or got < 0:
            return CheckResult(
                "ci-obstruction", False, f"trial {trial}: {got} != {want}"
            )
    slot = dr2_class(D).coeffs[1]
    negative = [d for d in range(2, 51) if not slot(d) < 0]
    if negative:
        return CheckResult(
            "ci-obstruction", False, f"fused slot not negative at d in {negative}"
        )
    return CheckResult(
        "ci-obstruction",
        True,
        "1000 random effective products have non-negative fused slot; "
        "the class has negative fused slot for d = 2..50",
    )


def check_cone_decomposition() -> CheckResult:
    try:
        cones.cone_decomposition(D)
    except ArithmeticError as exc:
        return CheckResult("cone-decomposition", False, str(exc))
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
    ) + (Fraction(0),) * 6
    ok = all(c == PolyQ.const(v) for c, v in zip(inf.coeffs, expected))
    return CheckResult(
        "cone-decomposition",
        ok,
        "two-ray decomposition holds slot-wise; limit class matches"
        if ok
        else "limit class slots differ",
    )


def check_nonextremality(
    strata_table: Optional[cones.StrataTable] = None,
) -> CheckResult:
    report = cones.nonextremality_check(strata_table)
    positive = all(w > 0 for w in report.weights.values())
    if not positive:
        return CheckResult("nonextremality", False, "a decomposition weight is not positive")
    if report.status == "failed":
        return CheckResult(
            "nonextremality", False, "supplied strata table does not close the identity"
        )
    return CheckResult(
        "nonextremality",
        True,
        "all decomposition weights positive; identity "
        + ("verified against supplied table" if report.status == "verified" else "data-gated, skipped"),
    )


def check_nonpolynomiality() -> CheckResult:
    report = cones.nonpolynomiality_witness(4)
    ok = (
        report.interpolant == PolyQ((-2, 0, 2))
        and report.value_at_zero == Fraction(-2)
        and report.count_at_zero == 0
        and report.witnesses_nonpolynomiality
    )
    return CheckResult(
        "nonpolynomiality",
        ok,
        "interpolant through m = 1..5 predicts -2 at 0, true count is 0"
        if ok
        else "witness failed",
    )


CHECKS: Dict[str, Callable[..., CheckResult]] = {
    "surfaces": check_surfaces,
    "solver": check_solver,
    "pushforward": check_pushforward,
    "chi-pipeline": check_chi_pipeline,
    "psi3": check_psi3,
    "m-count": check_pencil_count,
    "hac": check_hac,
    "ci-obstruction": check_ci_obstruction,
    "cone-decomposition": check_cone_decomposition,
    "nonextremality": check_nonextremality,
    "nonpolynomiality": check_nonpolynomiality,
}


def run_checks(
    only: Optional[Sequence[str]] = None,
    strata_table: Optional[cones.StrataTable] = None,
) -> List[CheckResult]:
    names = list(CHECKS) if only is None else list(only)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown check name(s): {unknown}; valid: {list(CHECKS)}")
    return [
        CHECKS[name](strata_table=strata_table)
        if name == "nonextremality"
        else CHECKS[name]()
        for name in names
    ]
