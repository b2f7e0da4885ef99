"""Command-line interface.

Commands: class, solve, equations, pushforward, cone-m21, ct, cone, verify.
Every command emits either a deterministic JSON report (rationals as "p/q"
strings, keys sorted, byte-identical across runs for identical inputs) or a
markdown rendering for human reading.  Exit status is 0 exactly when every
computation and check performed by the command succeeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional

from . import __version__, checks, cones, ct, m21, solver, surfaces
from .chow import BASIS_NAMES, class_to_markdown, dr2_class
from .polyq import D, PolyQ


def _make_report(command: str, inputs: Dict[str, object], outputs) -> Dict[str, object]:
    return {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "version": __version__,
        "fixture_checksums": surfaces.fixture_checksums(),
    }


def _dump(report: Dict[str, object]) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _parse_degree(value: str, parser: argparse.ArgumentParser, allow_one: bool = True):
    if value == "symbolic":
        return D
    try:
        d = int(value)
    except ValueError:
        parser.error(f"--d must be an integer or 'symbolic', got {value!r}")
    minimum = 1 if allow_one else 2
    if d < minimum:
        parser.error(f"--d must be >= {minimum} or 'symbolic', got {d}")
    return d


def _degree_echo(d) -> str:
    return "symbolic" if isinstance(d, PolyQ) and d == D else str(d)


def cmd_class(args, parser) -> int:
    d = _parse_degree(args.d, parser)
    closed = dr2_class(d)
    cert = solver.solve_parametric(solver.full_system())
    solved = cert.solution if isinstance(d, PolyQ) else cert.solution.eval_at(d)
    difference = closed - solved
    note = None
    if not isinstance(d, PolyQ) and d == 1:
        note = "class vanishes at d = 1: every slot carries the factor d^2 - 1"
    outputs = {
        "class": closed.to_json_dict(),
        "solver_class": solved.to_json_dict(),
        "difference": difference.to_json_dict(),
        "difference_is_zero": difference.is_zero(),
    }
    if note:
        outputs["note"] = note
    report = _make_report("class", {"d": _degree_echo(d)}, outputs)
    if args.emit == "json":
        sys.stdout.write(_dump(report))
    else:
        lines = [f"# degree-{_degree_echo(d)} class", "", class_to_markdown(closed), ""]
        lines.append(
            "solver recomputation difference is zero: "
            + ("yes" if difference.is_zero() else "NO")
        )
        if note:
            lines.append(f"note: {note}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if difference.is_zero() else 1


def cmd_solve(args, parser) -> int:
    sys_ = solver.full_system()
    try:
        cert = solver.solve_parametric(sys_)
    except solver.LinearSystemError as exc:
        sys.stderr.write(f"solve failed: {exc}\n")
        return 1
    deps = solver.redundancy_report(sys_)
    outputs = {
        "certificate": cert.to_json_dict(),
        "redundant_rows": [dr.to_json_dict(sys_) for dr in deps],
    }
    report = _make_report("solve", {}, outputs)
    if args.emit == "json":
        sys.stdout.write(_dump(report))
    else:
        lines = [
            "# parametric solve",
            "",
            f"rank: {cert.rank}",
            f"consistent: {cert.consistent}",
            f"sample points: {', '.join(str(x) for x in cert.sample_points)}",
            f"redundant rows: {', '.join(dr.label for dr in deps) or 'none'}",
            "",
            class_to_markdown(cert.solution),
        ]
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if cert.consistent and cert.rank == 14 else 1


def cmd_equations(args, parser) -> int:
    rows = surfaces.full_system_rows()
    outputs = {"rows": [r.to_json_dict() for r in rows], "count": len(rows)}
    report = _make_report("equations", {}, outputs)
    if args.emit == "json":
        sys.stdout.write(_dump(report))
    else:
        lines = ["# equation rows", ""]
        for r in rows:
            terms = " + ".join(
                f"({c})*A[{name}]"
                for name, c in zip(BASIS_NAMES, r.coefficients)
                if c
            )
            lines.append(f"## {r.label} ({r.kind})")
            lines.append(f"    {terms} = {r.rhs}")
            if r.provenance:
                lines.append(f"    note: {r.provenance}")
            lines.append("")
        sys.stdout.write("\n".join(lines))
    return 0


def cmd_pushforward(args, parser) -> int:
    d = _parse_degree(args.d, parser)
    cls = m21.pushforward_class_formula(d)
    recomputed = m21.pushforward(dr2_class(d), 1)
    outputs = {
        "class": cls.to_json_dict(),
        "matches_pushforward_of_class": recomputed == cls,
    }
    if isinstance(d, int):
        report_cone = m21.classify_effective_cone(cls)
        outputs["cone_coordinates"] = {
            "W": str(report_cone.effective_coords[0]),
            "d0": str(report_cone.effective_coords[1]),
            "d1": str(report_cone.effective_coords[2]),
        }
        outputs["classification"] = report_cone.classification
    report = _make_report("pushforward", {"d": _degree_echo(d)}, outputs)
    if args.emit == "json":
        sys.stdout.write(_dump(report))
    else:
        lines = [f"# push-forward at d = {_degree_echo(d)}", ""]
        for name, coeff in zip(m21.M21_NAMES, cls.coeffs):
            lines.append(f"- {name}: {coeff}")
        if "classification" in outputs:
            lines.append(f"- cone position: {outputs['classification']}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if outputs["matches_pushforward_of_class"] else 1


def cmd_cone_m21(args, parser) -> int:
    d = _parse_degree(args.d, parser)
    if isinstance(d, PolyQ):
        parser.error("cone-m21 needs a numeric --d")
    cls = m21.pushforward_class_formula(d)
    report_cone = m21.classify_effective_cone(cls)
    outputs = {
        "class": cls.to_json_dict(),
        "cone_coordinates": {
            "W": str(report_cone.effective_coords[0]),
            "d0": str(report_cone.effective_coords[1]),
            "d1": str(report_cone.effective_coords[2]),
        },
        "classification": report_cone.classification,
        "w_psi_coordinates": (
            None
            if report_cone.w_psi_coords is None
            else [str(x) for x in report_cone.w_psi_coords]
        ),
        "in_moving_d_psi_cone": report_cone.in_moving_d_psi_cone,
    }
    report = _make_report("cone-m21", {"d": str(d)}, outputs)
    if args.emit == "json":
        sys.stdout.write(_dump(report))
    else:
        lines = [
            f"# divisor cone position at d = {d}",
            "",
            f"coordinates in (W, d0, d1): {outputs['cone_coordinates']}",
            f"classification: {report_cone.classification}",
            f"coordinates in (W, psi): {outputs['w_psi_coordinates']}",
            f"inside the moving cone ray span (D, psi): {report_cone.in_moving_d_psi_cone}",
        ]
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_ct(args, parser) -> int:
    d = _parse_degree(args.d, parser)
    hac = ct.verify_hac(D if isinstance(d, PolyQ) else d)
    rows = hac.decorated
    outputs = {
        "dr_restricted": hac.restricted.to_json_dict(),
        "hain": hac.hain.to_json_dict(),
        "difference": hac.difference.to_json_dict(),
        "decorated_decomposition": {
            "d22": rows.d22.to_json_dict(),
            "d11|": rows.d11bar.to_json_dict(),
            "identity_holds": hac.decomposition_ok,
            "difference_formula_holds": hac.difference_formula_ok,
        },
    }
    report = _make_report("ct", {"d": _degree_echo(d)}, outputs)
    if args.emit == "json":
        sys.stdout.write(_dump(report))
    else:
        lines = [f"# compact-type comparison at d = {_degree_echo(d)}", ""]
        for title, cls in (
            ("restricted class", hac.restricted),
            ("Hain class", hac.hain),
            ("difference", hac.difference),
        ):
            lines.append(f"## {title}")
            for name, coeff in zip(ct.CT_BASIS_NAMES, cls.coeffs):
                lines.append(f"- {name}: {coeff}")
            lines.append("")
        lines.append(f"decomposition identity holds: {hac.decomposition_ok}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if hac.ok else 1


def cmd_cone(args, parser) -> int:
    d = _parse_degree(args.d, parser)
    table = cones.load_strata_table(args.strata_table) if args.strata_table else None
    coeff_base, coeff_limit = cones.cone_decomposition(
        D if isinstance(d, PolyQ) else d
    )
    nonext = cones.nonextremality_check(table)
    outputs = {
        "limit_class": cones.dr_infinity().to_json_dict(),
        "decomposition_coefficients": {
            "on_degree2_ray": coeff_base.to_strings(),
            "on_limit_ray": coeff_limit.to_strings(),
        },
        "nonextremality": {
            "status": nonext.status,
            "weights": {k: str(v) for k, v in nonext.weights.items()},
            "residual": None if nonext.residual is None else nonext.residual.to_json_dict(),
        },
    }
    report = _make_report(
        "cone",
        {"d": _degree_echo(d), "strata_table": args.strata_table or None},
        outputs,
    )
    if args.emit == "json":
        sys.stdout.write(_dump(report))
    else:
        lines = [
            f"# cone position at d = {_degree_echo(d)}",
            "",
            f"coefficient on the degree-2 ray: {coeff_base}",
            f"coefficient on the limit ray: {coeff_limit}",
            f"non-extremality check: {nonext.status}",
        ]
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if nonext.ok else 1


def cmd_verify(args, parser) -> int:
    table = cones.load_strata_table(args.strata_table) if args.strata_table else None
    only = [args.only] if args.only else None
    try:
        results = checks.run_checks(only=only, strata_table=table)
    except KeyError as exc:
        parser.error(str(exc))
    outputs = {
        "checks": [
            {"name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    report = _make_report(
        "verify",
        {"only": args.only or None, "strata_table": args.strata_table or None},
        outputs,
    )
    if args.emit == "json":
        sys.stdout.write(_dump(report))
    else:
        for r in results:
            sys.stdout.write(
                f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.details}\n"
            )
        sys.stdout.write(
            ("all checks passed" if outputs["all_passed"] else "FAILURES present")
            + "\n"
        )
    return 0 if outputs["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dr2calc",
        description=(
            "Exact calculator for the degree-d double-ramification cycle "
            "classes on the 2-pointed genus-2 moduli space"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, needs_d=False, strata=False, only=False):
        p = sub.add_parser(name)
        if needs_d:
            p.add_argument("--d", required=True, help="integer >= 1 or 'symbolic'")
        if strata:
            p.add_argument("--strata-table", default=None, help="path to a strata JSON table")
        if only:
            p.add_argument("--only", default=None, help="run a single named check")
        p.add_argument("--emit", choices=("json", "md"), default="json")
        p.set_defaults(func=func)
        return p

    add("class", cmd_class, needs_d=True)
    add("solve", cmd_solve)
    add("equations", cmd_equations)
    add("pushforward", cmd_pushforward, needs_d=True)
    add("cone-m21", cmd_cone_m21, needs_d=True)
    add("ct", cmd_ct, needs_d=True)
    add("cone", cmd_cone, needs_d=True, strata=True)
    add("verify", cmd_verify, strata=True, only=True)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
