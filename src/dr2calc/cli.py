"""Command-line interface.

Commands: class, solve, equations, pushforward, cone-m21, ct, cone, verify.
Every command emits either a deterministic JSON report (rationals as "p/q"
strings, keys sorted, byte-identical across runs for identical inputs) or a
markdown rendering for human reading.  Exit status is 0 exactly when every
computation and check performed by the command succeeded, 1 when one failed,
and 2 on a usage error, including a strata table that cannot be loaded.  A
computation that raises ``LinearSystemError`` or ``ArithmeticError`` (an
identity a command derives from fails), or ``ValueError`` (a shipped fixture
that cannot be loaded, named in the message), prints ``<command> failed:
<error>`` on stderr, writes no report, and exits 1.

Each ``cmd_*`` function returns ``(outputs, ok, lines)``: the report's
``outputs`` object, whether every computation and check succeeded, and the
markdown body.  ``main`` builds the rest of every report in one place: the
JSON envelope (command, inputs, outputs, version, fixture checksums), whose
``inputs`` echo the options the command declares (``d``, ``only``,
``strata_table``), and the markdown title line that ``_COMMANDS`` records
for each command but ``verify``.  A run builds two parsers: the top-level
one, whose ``command`` positional is typed like ``--only`` and ``--emit`` so
that argparse's own rule picks the command word and a wrong one is echoed
bounded, and the parser ``build_parser`` makes for that command alone, which
reads the arguments after it.  The module imports at the top only what every
command needs; each ``cmd_*`` imports the modules it reads, so that a cold
run loads no module its command does not use.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Dict, List, Optional, Tuple

from . import __version__, checks, surfaces
from .chow import BASIS_NAMES, TautClass2, dr2_class
from .linalg import LinearSystemError
from .polyq import D, PolyQ, PolyVector, _echo

Result = Tuple[Dict[str, object], bool, List[str]]


def _degree(value: str, symbolic: bool = True):
    """Parse --d: an integer >= 1 (ASCII digits), or if ``symbolic`` 'symbolic' for D.
    An integer of n significant digits gives degree-4 outputs of up to 4n + 1
    digits, so n is bounded by Python's int-conversion limit (0: none) and
    every accepted degree prints; leading zeros do not count toward the bound.
    A numeral is read by its digits, never by an ``int()`` that can fail."""
    if symbolic and value == "symbolic":
        return D
    # the greedy 0* leaves the significant digits, or "0" for a zero numeral
    numeral = re.fullmatch(r"(-?)0*([0-9]+)", value)
    if numeral:
        sign, digits = numeral.groups()
        if not sign and digits != "0":
            limit = sys.get_int_max_str_digits()
            most = (limit - 1) // 4
            if limit and len(digits) > most:
                raise argparse.ArgumentTypeError(
                    f"must have at most {most} digits, so that its degree-4 outputs print under"
                    f" the limit of {limit} digits for integer conversion, got {len(digits)}"
                )
            return int(digits)
    if not symbolic:
        expected = "an integer >= 1"
    else:
        expected = ">= 1 or 'symbolic'" if numeral else "an integer or 'symbolic'"
    # a numeral is echoed as str(int(value)) prints it, without calling int()
    got = _echo(digits if digits == "0" else sign + digits, show=str) if numeral else _echo(value)
    raise argparse.ArgumentTypeError(f"must be {expected}, got {got}")


def _one_of(names: Tuple[str, ...]):
    """The ``type=`` of an option with fixed values.  Argparse's own choice
    error echoes a wrong value whole; this one bounds it with ``_echo``, and
    the usage line, built from ``choices``, lists the names."""

    def parse(value: str) -> str:
        if value not in names:
            raise argparse.ArgumentTypeError(f"invalid choice: {_echo(value)}")
        return value

    return parse


def class_to_markdown(c: TautClass2) -> str:
    """Human-readable coefficient table, one basis monomial per line."""
    width = max(len(n) for n in BASIS_NAMES)
    lines = [f"| {'monomial':<{width}} | coefficient |", f"|{'-' * (width + 2)}|-------------|"]
    for name, coeff in zip(BASIS_NAMES, c.coeffs):
        lines.append(f"| {name:<{width}} | {coeff} |")
    return "\n".join(lines)


def _bullets(vector: PolyVector) -> List[str]:
    return [f"- {name}: {coeff}" for name, coeff in zip(vector.names, vector.coeffs)]


def _cone_coordinates(report) -> Dict[str, str]:
    """The (W, d0, d1) coordinates of an ``m21.ConeReport``, as strings."""
    return {name: str(c) for name, c in zip(("W", "d0", "d1"), report.effective_coords)}


def cmd_class(args) -> Result:
    from . import solver

    d = args.d
    closed = dr2_class(d)
    cert = solver.solve_parametric(solver.full_system())
    solved = cert.solution if isinstance(d, PolyQ) else cert.solution.eval_at(d)
    difference = closed - solved
    outputs = {
        "class": closed.to_json_dict(),
        "solver_class": solved.to_json_dict(),
        "difference": difference.to_json_dict(),
        "difference_is_zero": difference.is_zero(),
    }
    lines = [
        class_to_markdown(closed),
        "",
        "solver recomputation difference is zero: "
        + ("yes" if difference.is_zero() else "NO"),
    ]
    if d == 1:
        outputs["note"] = "class vanishes at d = 1: every slot carries the factor d^2 - 1"
        lines.append(f"note: {outputs['note']}")
    return outputs, difference.is_zero(), lines


def cmd_solve(args) -> Result:
    from . import solver

    sys_ = solver.full_system()
    cert = solver.solve_parametric(sys_)
    deps = solver.redundancy_report(sys_)
    outputs = {
        "certificate": cert.to_json_dict(),
        "redundant_rows": [dr.to_json_dict(sys_) for dr in deps],
    }
    lines = [
        f"rank: {cert.rank}",
        f"consistent: {cert.consistent}",
        f"sample points: {', '.join(str(x) for x in cert.sample_points)}",
        f"redundant rows: {', '.join(dr.label for dr in deps) or 'none'}",
        "",
        class_to_markdown(cert.solution),
    ]
    return outputs, cert.consistent, lines


def cmd_equations(args) -> Result:
    rows = surfaces.full_system_rows()
    lines = []
    for r in rows:
        terms = " + ".join(
            f"({c})*A[{name}]"
            for name, c in zip(BASIS_NAMES, r.coefficients)
            if c
        )
        lines += ["", f"## {r.label} ({r.kind})", f"    {terms} = {r.rhs}"]
        if r.provenance:
            lines.append(f"    note: {r.provenance}")
    outputs = {"rows": [r.to_json_dict() for r in rows], "count": len(rows)}
    return outputs, True, lines[1:]


def cmd_pushforward(args) -> Result:
    from . import m21

    d = args.d
    cls = m21.pushforward_class_formula(d)
    matches = m21.pushforward(dr2_class(d), 1) == cls
    outputs = {"class": cls.to_json_dict(), "matches_pushforward_of_class": matches}
    lines = _bullets(cls)
    if isinstance(d, int):
        report_cone = m21.classify_effective_cone(cls)
        outputs["cone_coordinates"] = _cone_coordinates(report_cone)
        outputs["classification"] = report_cone.classification
        lines.append(f"- cone position: {report_cone.classification}")
    return outputs, matches, lines


def cmd_cone_m21(args) -> Result:
    from . import m21

    cls = m21.pushforward_class_formula(args.d)
    report_cone = m21.classify_effective_cone(cls)
    w_psi = report_cone.w_psi_coords
    outputs = {
        "class": cls.to_json_dict(),
        "cone_coordinates": _cone_coordinates(report_cone),
        "classification": report_cone.classification,
        "w_psi_coordinates": None if w_psi is None else [str(x) for x in w_psi],
        "in_moving_d_psi_cone": report_cone.in_moving_d_psi_cone,
    }
    lines = [
        f"coordinates in (W, d0, d1): {outputs['cone_coordinates']}",
        f"classification: {report_cone.classification}",
        f"coordinates in (W, psi): {outputs['w_psi_coordinates']}",
        f"inside the moving cone ray span (D, psi): {report_cone.in_moving_d_psi_cone}",
    ]
    return outputs, True, lines


def cmd_ct(args) -> Result:
    from . import ct

    hac = ct.verify_hac(args.d)
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
    lines = []
    for title, cls in (
        ("restricted class", hac.restricted),
        ("Hain class", hac.hain),
        ("difference", hac.difference),
    ):
        lines += [f"## {title}", *_bullets(cls), ""]
    lines.append(f"decomposition identity holds: {hac.decomposition_ok}")
    return outputs, hac.ok, lines


def cmd_cone(args) -> Result:
    from . import cones

    coeff_base, coeff_limit = cones.cone_decomposition(args.d)
    nonext = cones.nonextremality_check(args.loaded_strata)
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
    lines = [
        f"coefficient on the degree-2 ray: {coeff_base}",
        f"coefficient on the limit ray: {coeff_limit}",
        f"non-extremality check: {nonext.status}",
    ]
    return outputs, nonext.ok, lines


def cmd_verify(args) -> Result:
    only = [args.only] if args.only else None
    results = checks.run_checks(only=only, strata_table=args.loaded_strata)
    all_passed = all(r.passed for r in results)
    outputs = {
        "checks": [
            {"name": r.name, "passed": r.passed, "details": r.details}
            for r in results
        ],
        "all_passed": all_passed,
    }
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.details}" for r in results]
    lines.append("all checks passed" if all_passed else "FAILURES present")
    return outputs, all_passed, lines


# Each command's function, its markdown title (None for ``verify``, whose
# lines carry no title) and the options ``build_parser`` gives it.
_COMMANDS = {
    "class": (cmd_class, "degree-{d} class", {"degree": True}),
    "solve": (cmd_solve, "parametric solve", {}),
    "equations": (cmd_equations, "equation rows", {}),
    "pushforward": (cmd_pushforward, "push-forward at d = {d}", {"degree": True}),
    "cone-m21": (cmd_cone_m21, "divisor cone position at d = {d}", {"degree": True, "symbolic": False}),
    "ct": (cmd_ct, "compact-type comparison at d = {d}", {"degree": True}),
    "cone": (cmd_cone, "cone position at d = {d}", {"degree": True, "strata": True}),
    "verify": (cmd_verify, None, {"strata": True, "only": True}),
}


def build_parser(name, degree=False, symbolic=True, strata=False, only=False) -> argparse.ArgumentParser:
    """The parser of command ``name``, with the options its ``_COMMANDS`` entry gives it."""
    p = argparse.ArgumentParser(prog=f"dr2calc {name}")
    if degree:
        words = " or 'symbolic'" if symbolic else ""
        p.add_argument(
            "--d", required=True, type=lambda value: _degree(value, symbolic),
            help="integer >= 1" + words,
        )
    if strata:
        p.add_argument("--strata-table", default=None, help="path to a strata JSON table")
    if only:
        names = tuple(checks.CHECKS)
        p.add_argument(
            "--only", default=None, type=_one_of(names), choices=names,
            help="run a single named check",
        )
    emits = ("json", "md")
    p.add_argument("--emit", type=_one_of(emits), choices=emits, default="json")
    p.set_defaults(loaded_strata=None)
    return p


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dr2calc",
        description=(
            "Exact calculator for the degree-d double-ramification cycle "
            "classes on the 2-pointed genus-2 moduli space"
        ),
    )
    names = tuple(_COMMANDS)
    parser.add_argument("command", type=_one_of(names), choices=names)
    parser.add_argument("arguments", nargs=argparse.REMAINDER)
    top, extra = parser.parse_known_args(argv)
    command = top.command
    func, title, options = _COMMANDS[command]
    args, more = build_parser(command, **options).parse_known_args(top.arguments)
    if extra + more:
        parser.error(f"unrecognized arguments: {_echo(' '.join(extra + more))}")
    if getattr(args, "strata_table", None) is not None:
        from .cones import load_strata_table

        try:
            args.loaded_strata = load_strata_table(args.strata_table)
        except (OSError, ValueError) as exc:
            # an OSError's text names the path again; its strerror does not
            reason = getattr(exc, "strerror", None) or exc
            parser.error(f"--strata-table {_echo(args.strata_table)}: {reason}")
    try:
        outputs, ok, lines = func(args)
    except (LinearSystemError, ArithmeticError, ValueError) as exc:
        sys.stderr.write(f"{command} failed: {exc}\n")
        return 1
    inputs = {key: value for key, value in vars(args).items() if key in ("d", "only", "strata_table")}
    if "d" in inputs:
        inputs["d"] = "symbolic" if isinstance(args.d, PolyQ) else str(args.d)
    if args.emit == "json":
        report = {
            "command": command,
            "inputs": inputs,
            "outputs": outputs,
            "version": __version__,
            "fixture_checksums": surfaces.fixture_checksums(),
        }
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        if title:
            lines = [f"# {title.format(**inputs)}", ""] + lines
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
