import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dr2calc.chow import BASIS_NAMES
from dr2calc.cli import main
from dr2calc.polyq import _echo


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_class_numeric(capsys):
    code, out = _run(capsys, ["class", "--d", "2", "--emit", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "class"
    assert report["inputs"]["d"] == "2"
    assert report["outputs"]["class"]["psi1psi2"] == ["6"]
    assert report["outputs"]["difference_is_zero"] is True
    assert len(report["fixture_checksums"]) == 10


def test_class_symbolic_matches_formula(capsys):
    code, out = _run(capsys, ["class", "--d", "symbolic"])
    assert code == 0
    report = json.loads(out)
    # psi1psi2 slot of the class: d^2(d^2-1)/2 = -d^2/2 + d^4/2 ascending
    assert report["outputs"]["class"]["psi1psi2"] == ["0", "0", "-1/2", "0", "1/2"]
    assert set(report["outputs"]["class"]) == set(BASIS_NAMES)


def test_class_at_one_notes_vanishing(capsys):
    code, out = _run(capsys, ["class", "--d", "1"])
    assert code == 0
    report = json.loads(out)
    assert all(v == [] for v in report["outputs"]["class"].values())
    assert "d^2 - 1" in report["outputs"]["note"]


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["class", "--d", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["class", "--d", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["cone-m21", "--d", "symbolic"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_json_output_is_deterministic_and_roundtrips(capsys):
    _, first = _run(capsys, ["solve", "--emit", "json"])
    _, second = _run(capsys, ["solve", "--emit", "json"])
    assert first == second
    parsed = json.loads(first)
    assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == first


@pytest.mark.parametrize(
    "argv, inputs, first_md_line",
    [
        (["class", "--d", "2"], {"d": "2"}, "# degree-2 class"),
        (["class", "--d", "symbolic"], {"d": "symbolic"}, "# degree-symbolic class"),
        (["solve"], {}, "# parametric solve"),
        (["equations"], {}, "# equation rows"),
        (["pushforward", "--d", "3"], {"d": "3"}, "# push-forward at d = 3"),
        (["cone-m21", "--d", "3"], {"d": "3"}, "# divisor cone position at d = 3"),
        (["ct", "--d", "3"], {"d": "3"}, "# compact-type comparison at d = 3"),
        (["cone", "--d", "3"], {"d": "3", "strata_table": None}, "# cone position at d = 3"),
        (["verify", "--only", "solver"], {"only": "solver", "strata_table": None}, "PASS solver: "),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else "",
)
def test_every_report_has_the_same_envelope(capsys, argv, inputs, first_md_line):
    _, out = _run(capsys, argv)
    report = json.loads(out)
    assert sorted(report) == ["command", "fixture_checksums", "inputs", "outputs", "version"]
    assert report["command"] == argv[0]
    assert report["inputs"] == inputs
    _, md = _run(capsys, argv + ["--emit", "md"])
    assert md.splitlines()[0].startswith(first_md_line)
    if not first_md_line.startswith("PASS"):
        assert md.splitlines()[0] == first_md_line and md.splitlines()[1] == ""


def test_solve_report(capsys):
    code, out = _run(capsys, ["solve"])
    assert code == 0
    report = json.loads(out)
    cert = report["outputs"]["certificate"]
    assert cert["rank"] == 14
    assert cert["consistent"] is True
    assert len(report["outputs"]["redundant_rows"]) == 2


def test_equations_lists_16_rows(capsys):
    code, out = _run(capsys, ["equations"])
    assert code == 0
    report = json.loads(out)
    rows = report["outputs"]["rows"]
    assert report["outputs"]["count"] == 16
    kinds = [r["kind"] for r in rows]
    assert kinds.count("surface") == 10
    assert kinds.count("symmetry") == 3
    assert kinds.count("pushforward") == 3
    labels = [r["label"] for r in rows]
    assert "surface-01" in labels and "surface-10" in labels
    # every surface row carries its provenance note
    assert all(r["provenance"] for r in rows if r["kind"] == "surface")


def test_equations_md_lists_rows(capsys):
    code, out = _run(capsys, ["equations", "--emit", "md"])
    assert code == 0
    assert out.count("## ") == 16


def test_pushforward_command(capsys):
    code, out = _run(capsys, ["pushforward", "--d", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["class"]["psi"] == ["15"]
    assert report["outputs"]["classification"] == "extremal_ray:W"


def test_cone_m21_command(capsys):
    code, out = _run(capsys, ["cone-m21", "--d", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["classification"] == "interior"
    assert report["outputs"]["w_psi_coordinates"] == ["20", "20"]
    assert report["outputs"]["in_moving_d_psi_cone"] is True


def test_ct_command(capsys):
    code, out = _run(capsys, ["ct", "--d", "symbolic"])
    assert code == 0
    report = json.loads(out)
    deco = report["outputs"]["decorated_decomposition"]
    assert deco["identity_holds"] is True
    assert deco["d22"]["d2sq"] == ["-1"]
    assert report["outputs"]["hain"]["d2sq"] == ["0", "0", "0", "0", "-1"]


def test_cone_command_gated(capsys):
    code, out = _run(capsys, ["cone", "--d", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["nonextremality"]["status"] == "skipped_missing_data"
    assert report["outputs"]["decomposition_coefficients"]["on_degree2_ray"] == ["8/3"]


def test_cone_command_with_strata_table(capsys, tmp_path):
    zero_row = ["0"] * 14
    doc = {"d11|": zero_row, "d01|": zero_row, "d0|": zero_row, "d00": zero_row}
    path = tmp_path / "strata.json"
    path.write_text(json.dumps(doc))
    code, out = _run(
        capsys, ["cone", "--d", "3", "--strata-table", str(path)]
    )
    assert code == 1  # zero table cannot close the identity
    report = json.loads(out)
    assert report["outputs"]["nonextremality"]["status"] == "failed"


def test_verify_all(capsys):
    code, out = _run(capsys, ["verify"])
    assert code == 0
    report = json.loads(out)
    assert report["outputs"]["all_passed"] is True
    names = [c["name"] for c in report["outputs"]["checks"]]
    assert names == [
        "surfaces",
        "solver",
        "pushforward",
        "chi-pipeline",
        "psi3",
        "m-count",
        "hac",
        "ci-obstruction",
        "cone-decomposition",
        "nonextremality",
        "nonpolynomiality",
    ]


def test_verify_only_single_check(capsys):
    code, out = _run(capsys, ["verify", "--only", "psi3"])
    assert code == 0
    report = json.loads(out)
    assert [c["name"] for c in report["outputs"]["checks"]] == ["psi3"]


def test_verify_md_prints_pass_lines(capsys):
    code, out = _run(capsys, ["verify", "--emit", "md"])
    assert code == 0
    assert out.count("PASS ") == 11
    assert "FAIL" not in out


def test_corrupted_fixture_fails_solver_check(capsys, monkeypatch):
    # inject a corrupted system into the solver check: named failure
    from dr2calc import checks, solver
    from dr2calc.surfaces import EquationRow, full_system_rows

    rows = list(full_system_rows())
    r0 = rows[0]
    rows[0] = EquationRow(
        r0.coefficients, r0.rhs + 1, r0.label, r0.kind, r0.provenance
    )
    corrupted = solver.ParamSystem(rows=tuple(rows))
    monkeypatch.setattr(solver, "full_system", lambda: corrupted)
    result = checks.check_solver()
    assert result.name == "solver"
    assert not result.passed
    assert "inconsistent" in result.details


@pytest.mark.parametrize("argv", [["solve"], ["class", "--d", "2"]])
def test_inconsistent_system_fails_with_message(capsys, monkeypatch, argv):
    from dr2calc import solver
    from dr2calc.surfaces import EquationRow

    system = solver.full_system()
    r0 = system.rows[0]
    rows = (EquationRow(r0.coefficients, r0.rhs + 1, r0.label, r0.kind, r0.provenance),)
    corrupted = solver.ParamSystem(rows=rows + tuple(system.rows[1:]))
    monkeypatch.setattr(solver, "full_system", lambda: corrupted)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{argv[0]} failed: ")


def _zero_limit_class(monkeypatch):
    from dr2calc import cones
    from dr2calc.chow import TautClass2

    monkeypatch.setattr(cones, "dr_infinity", TautClass2.zero)


def _hain_plus_d2_e0(monkeypatch):
    from dr2calc import ct
    from dr2calc.polyq import D

    hain = ct.hain_class
    monkeypatch.setattr(ct, "hain_class", lambda d: hain(d) + ct.CtClass.unit(0).scale(D * D))


@pytest.mark.parametrize(
    "argv, breakage, message",
    [
        (["cone", "--d", "3"], _zero_limit_class, "two-ray decomposition failed slot-wise"),
        (["ct", "--d", "symbolic"], _hain_plus_d2_e0, "re-substitution into the Hain expansion failed"),
    ],
    ids=["cone", "ct"],
)
@pytest.mark.parametrize("emit", ["json", "md"])
def test_failed_identity_fails_with_message(capsys, monkeypatch, argv, breakage, message, emit):
    breakage(monkeypatch)
    assert main(argv + ["--emit", emit]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{argv[0]} failed: {message}\n"


def test_unreadable_strata_table_is_a_usage_error(capsys, tmp_path):
    zero_row = ["0"] * 14
    doc = {"d11|": zero_row, "d01|": zero_row, "d0|": zero_row, "d00": zero_row}
    cases = {
        "absent.json": None,
        "invalid.json": "{not json",
        "short.json": json.dumps(dict(doc, d00=zero_row[:13])),
        "irrational.json": json.dumps(dict(doc, d00=zero_row[:13] + ["pi"])),
        "unknown.json": json.dumps(dict(doc, d11=zero_row)),
    }
    for name, text in cases.items():
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        for argv in (["cone", "--d", "3"], ["verify", "--only", "nonextremality"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--strata-table", str(path)])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            # the path is echoed once, bounded: a tmp path over 60 characters
            # shows its start and its length
            assert f"--strata-table {_echo(str(path))}: " in captured.err
            assert captured.err.count(str(path)[:40]) == 1


def test_degree_help_names_the_accepted_values(capsys):
    for command, text in (
        ("class", "integer >= 1 or 'symbolic'"),
        ("pushforward", "integer >= 1 or 'symbolic'"),
        ("ct", "integer >= 1 or 'symbolic'"),
        ("cone", "integer >= 1 or 'symbolic'"),
        ("cone-m21", "integer >= 1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        help_lines = [ln.split(None, 2)[2] for ln in out.splitlines() if ln.strip().startswith("--d D")]
        assert help_lines == [text]
    with pytest.raises(SystemExit) as exc:
        main(["cone-m21", "--d", "symbolic"])
    assert exc.value.code == 2
    capsys.readouterr()


def _src_env():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def test_module_entry_point_rejects_bad_arguments():
    env = _src_env()
    for argv in (["class", "--d", "x"], ["verify", "--only", "no-such-check"]):
        proc = subprocess.run(
            [sys.executable, "-m", "dr2calc.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def _family03_gram_entry(doc):
    doc["gram"][0][0] = "1.5"


def _family03_labelled_4(doc):
    doc["family"] = 4


@pytest.mark.parametrize("edit", [_family03_gram_entry, _family03_labelled_4], ids=["gram-entry", "family"])
@pytest.mark.parametrize(
    "argv", [["verify"], ["solve"], ["equations"], ["class", "--d", "2"]], ids=lambda argv: argv[0]
)
def test_malformed_fixture_fails_with_message(capsys, monkeypatch, argv, edit):
    from dr2calc import surfaces

    doc = json.loads(surfaces._fixture_bytes()["family03.json"])
    edit(doc)
    blobs = {**surfaces._fixture_bytes(), "family03.json": json.dumps(doc).encode()}
    monkeypatch.setattr(surfaces, "_fixture_bytes", lambda: blobs)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{argv[0]} failed: family03.json: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("value", ["1_000", " 7", "7 ", "+2", "\u0663", "2.0"])
def test_degree_takes_ascii_digits_only(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["class", "--d", value])
    assert exc.value.code == 2
    assert f"must be an integer or 'symbolic', got {value!r}" in capsys.readouterr().err


def test_negative_degree_keeps_its_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["class", "--d", "-3"])
    assert exc.value.code == 2
    assert "must be >= 1 or 'symbolic', got -3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value, shown", [("0", "0"), ("-3", "-3"), ("x", "'x'"), ("symbolic", "'symbolic'"), ("2.0", "'2.0'")]
)
def test_numeric_degree_has_its_own_message(capsys, value, shown):
    with pytest.raises(SystemExit) as exc:
        main(["cone-m21", "--d", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --d: must be an integer >= 1, got {shown}" in err
    assert "symbolic" not in err.replace(shown, "")


@pytest.mark.parametrize("command", ["class", "cone-m21"])
def test_degree_over_the_int_conversion_limit_names_the_limit(capsys, command):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(SystemExit) as exc:
        main([command, "--d", "1" * (limit + 700)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "1" * 100 not in err
    assert err.endswith(_bound_message(limit, limit + 700))


@pytest.mark.parametrize("command", ["class", "cone-m21"])
@pytest.mark.parametrize("emit", ["json", "md"])
def test_leading_zeros_do_not_count_toward_the_bound(capsys, command, emit):
    # more digits than the int-conversion limit, of which one is significant
    assert main([command, "--d", "0" * 5000 + "5", "--emit", emit]) == 0
    padded = capsys.readouterr()
    assert main([command, "--d", "5", "--emit", emit]) == 0
    assert padded == capsys.readouterr()


def test_a_negative_degree_over_the_int_conversion_limit_keeps_its_message(capsys):
    value = "-" + "1" * (sys.get_int_max_str_digits() + 700)
    with pytest.raises(SystemExit) as exc:
        main(["class", "--d", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err) < 400
    assert err.endswith(f"argument --d: must be >= 1 or 'symbolic', got {_echo(value, show=str)}\n")


def test_malformed_strata_json_is_a_usage_error(capsys, tmp_path):
    zero_row = json.dumps(["0"] * 14)
    rows = ", ".join(f'"{name}": {zero_row}' for name in ("d11|", "d01|", "d0|", "d00"))
    cases = {
        "deep.json": ("{" + rows + ', "d11|": ' + "[" * 100_000 + "]" * 100_000 + "}", "JSON nested too deeply to parse"),
        "twice.json": ("{" + rows + f', "d11|": {zero_row}' + "}", "duplicate key 'd11|'"),
    }
    for name, (text, message) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--only", "nonextremality", "--strata-table", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        [line] = [ln for ln in captured.err.splitlines() if "error:" in ln]
        assert line.endswith(f"--strata-table {_echo(str(path))}: {message}")


def _family03_family_twice(text):
    return text.replace('"rhs":', '"family": 3,\n  "rhs":', 1), "duplicate key 'family'"


def _family03_nested_deep(text):
    deep = "[" * 100_000 + "]" * 100_000
    return text.replace('"rhs":', f'"deep": {deep},\n  "rhs":', 1), "JSON nested too deeply to parse"


@pytest.mark.parametrize("edit", [_family03_family_twice, _family03_nested_deep], ids=["twice", "deep"])
@pytest.mark.parametrize("argv", [["verify"], ["class", "--d", "2"]], ids=lambda argv: argv[0])
def test_malformed_fixture_json_fails_with_message(capsys, monkeypatch, argv, edit):
    from dr2calc import surfaces

    text, message = edit(surfaces._fixture_bytes()["family03.json"].decode())
    blobs = {**surfaces._fixture_bytes(), "family03.json": text.encode()}
    monkeypatch.setattr(surfaces, "_fixture_bytes", lambda: blobs)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{argv[0]} failed: family03.json: {message}\n"


def test_unknown_fixture_field_fails_with_message(capsys, monkeypatch):
    from dr2calc import surfaces

    doc = json.loads(surfaces._fixture_bytes()["family03.json"])
    doc["restriction"] = doc["restrictions"]
    blobs = {**surfaces._fixture_bytes(), "family03.json": json.dumps(doc).encode()}
    monkeypatch.setattr(surfaces, "_fixture_bytes", lambda: blobs)
    assert main(["verify", "--only", "solver"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "verify failed: family03.json: two_elliptic_pencils_on_a_4_pointed_rational_curve: "
        "unknown field 'restriction'\n"
    )


def _the_long_value_line(err, prefix, value):
    # the one stderr line that carries the message: short, and it names the length
    [line] = [ln for ln in err.splitlines() if prefix in ln]
    assert len(line) < 200 and f"({len(repr(value))} characters)" in line
    return line


# a negative numeral under the int-conversion limit is echoed as the number it reads
@pytest.mark.parametrize("value", ["x" * 5000, "-" + "1" * 4000], ids=["word", "negative"])
def test_a_long_degree_is_not_echoed_whole(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["class", "--d", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    shown = int(value) if value[0] == "-" else value
    _the_long_value_line(err, "argument --d: must be", shown)
    assert len(err) < 400  # the usage line and the message


@pytest.mark.parametrize(
    "argv, option",
    [(["verify", "--only"], "--only"), (["class", "--d", "3", "--emit"], "--emit")],
    ids=["only", "emit"],
)
def test_a_long_choice_is_not_echoed_whole(capsys, argv, option):
    value = "c" * 5000
    with pytest.raises(SystemExit) as exc:
        main(argv + [value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    line = _the_long_value_line(captured.err, f"argument {option}: invalid choice: ", value)
    assert line.startswith(f"dr2calc {argv[0]}: error: ")


def test_a_short_wrong_choice_is_named_whole(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--only", "no-such-check"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("dr2calc verify: error: argument --only: invalid choice: 'no-such-check'\n")
    assert "{surfaces,solver," in err  # the usage line lists the names


@pytest.mark.parametrize(
    "argv, prefix",
    [([], "argument command: invalid choice: "), (["class", "--d", "3"], "unrecognized arguments: ")],
    ids=["command", "unrecognized"],
)
def test_argparse_own_echoes_are_bounded(capsys, argv, prefix):
    value = "c" * 5000
    with pytest.raises(SystemExit) as exc:
        main(argv + [value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    line = _the_long_value_line(captured.err, prefix, value)
    assert line.startswith("dr2calc: error: ")
    assert len(captured.err) < 400  # the usage lines and the message


@pytest.mark.parametrize(
    "argv, message",
    [
        (["no-such-command"], "argument command: invalid choice: 'no-such-command'"),
        (["class", "--d", "3", "extra", "--more"], "unrecognized arguments: 'extra --more'"),
    ],
    ids=["command", "unrecognized"],
)
def test_a_short_wrong_argument_is_named_whole(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"dr2calc: error: {message}\n")
    assert "{class,solve," in err  # the usage line lists the commands


def test_a_long_fixture_entry_is_not_echoed_whole(capsys, monkeypatch):
    from dr2calc import surfaces

    value = "1." + "1" * 4998
    doc = json.loads(surfaces._fixture_bytes()["family01.json"])
    doc["gram"][0][0] = value
    blobs = {**surfaces._fixture_bytes(), "family01.json": json.dumps(doc).encode()}
    monkeypatch.setattr(surfaces, "_fixture_bytes", lambda: blobs)
    assert main(["solve"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert _the_long_value_line(err, "solve failed: family01.json: ", value) == err.rstrip("\n")


def test_a_long_unknown_stratum_is_a_bounded_usage_error(capsys, monkeypatch, tmp_path):
    name = "s" * 5000
    doc = {stratum: ["0"] * 14 for stratum in ("d11|", "d01|", "d0|", "d00", name)}
    (tmp_path / "long.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)  # a short path, so the line's length is the message's
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--only", "nonextremality", "--strata-table", "long.json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    _the_long_value_line(captured.err, "strata table has unknown strata", [name])


def test_a_long_strata_table_path_is_echoed_once_and_bounded(capsys):
    path = "p" * 5000  # longer than a file name may be, so it cannot be opened
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--only", "nonextremality", "--strata-table", path])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    line = _the_long_value_line(captured.err, "--strata-table", path)
    assert line.endswith(": File name too long")
    assert len(captured.err) < 400  # the usage lines and the message


def _bound_message(limit, digits):
    most = (limit - 1) // 4
    return (
        f"argument --d: must have at most {most} digits, so that its degree-4 outputs print under"
        f" the limit of {limit} digits for integer conversion, got {digits}\n"
    )


@pytest.mark.parametrize("command", ["class", "pushforward", "cone-m21", "ct", "cone"])
def test_every_accepted_degree_prints(capsys, command):
    # an n-digit degree prints numbers of up to 4n + 1 digits
    limit = sys.get_int_max_str_digits()
    most = (limit - 1) // 4
    assert limit != 4300 or most == 1074
    for emit in ("json", "md"):
        assert main([command, "--d", "9" * most, "--emit", emit]) == 0
        assert capsys.readouterr().err == ""
    with pytest.raises(SystemExit) as exc:
        main([command, "--d", "1" + "0" * most])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(_bound_message(limit, most + 1))


def test_the_degree_bound_follows_the_int_conversion_limit():
    def run(digits):
        return subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=1000", "-m", "dr2calc.cli", "ct", "--d", "9" * digits],
            capture_output=True, text=True, env=_src_env(), timeout=120,
        )

    accepted, refused = run(249), run(250)
    assert accepted.returncode == 0 and accepted.stderr == ""
    assert json.loads(accepted.stdout)["inputs"] == {"d": "9" * 249}
    assert refused.returncode == 2 and refused.stdout == ""
    assert refused.stderr.endswith(_bound_message(1000, 250))


_LIMIT = sys.get_int_max_str_digits()
_ZERO_ROW = json.dumps(["0"] * 14)
_ROWS = ", ".join(f'"{name}": {_ZERO_ROW}' for name in ("d11|", "d01|", "d0|", "d00"))
_STRATA_FILES = {
    "invalid.json": "{not json",
    "twice.json": "{" + _ROWS + f', "d11|": {_ZERO_ROW}' + "}",
    "deep.json": "{" + _ROWS + ', "d11|": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "long.json": json.dumps({name: ["0"] * 14 for name in ("d11|", "d01|", "d0|", "d00", "s" * 5000)}),
}
_STRATA = ["verify", "--only", "nonextremality", "--strata-table"]

# (id, argv, what the error line names); "{tmp}" is a folder holding _STRATA_FILES
_MALFORMED = [
    ("command-unknown", ["no-such-command"], "argument command: invalid choice"),
    ("command-long", ["c" * 5000], "argument command: invalid choice"),
    ("command-negative", ["-" + "5" * 3000], "argument command: invalid choice"),
    ("command-space", ["-a " + "b" * 3000], "argument command: invalid choice"),
    ("command-after-dashes", ["--", "c" * 5000], "argument command: invalid choice"),
    ("d-zero", ["class", "--d", "0"], "argument --d: must be"),
    ("d-word", ["class", "--d", "x"], "argument --d: must be"),
    ("d-plus", ["class", "--d", "+3"], "argument --d: must be"),
    ("d-space", ["class", "--d", " 3"], "argument --d: must be"),
    ("d-fullwidth", ["class", "--d", "\uff13"], "argument --d: must be"),
    ("d-long", ["class", "--d", "x" * 5000], "argument --d: must be"),
    ("d-over-limit", ["class", "--d", "1" * (_LIMIT + 700)], "argument --d: must have at most"),
    ("d-over-bound", ["cone-m21", "--d", "1" * ((_LIMIT - 1) // 4 + 1)], "argument --d: must have at most"),
    ("only-unknown", ["verify", "--only", "no-such-check"], "argument --only: invalid choice"),
    ("only-long", ["verify", "--only", "c" * 5000], "argument --only: invalid choice"),
    ("only-missing", ["verify", "--only"], "argument --only: expected one argument"),
    ("emit-xml", ["class", "--d", "3", "--emit", "xml"], "argument --emit: invalid choice"),
    ("emit-long", ["solve", "--emit", "e" * 5000], "argument --emit: invalid choice"),
    ("unrecognized", ["class", "--d", "3", "extra"], "unrecognized arguments: 'extra'"),
    ("unrecognized-long", ["equations", "u" * 5000], "unrecognized arguments: "),
    ("strata-missing", ["cone", "--d", "3", "--strata-table", "{tmp}/absent.json"], "--strata-table "),
    ("strata-directory", _STRATA + ["{tmp}"], "--strata-table "),
    ("strata-invalid", _STRATA + ["{tmp}/invalid.json"], "--strata-table "),
    ("strata-twice", _STRATA + ["{tmp}/twice.json"], "--strata-table "),
    ("strata-deep", _STRATA + ["{tmp}/deep.json"], "--strata-table "),
    ("strata-long-path", _STRATA + ["p" * 5000], "--strata-table "),
    ("strata-long-stratum", _STRATA + ["{tmp}/long.json"], "--strata-table "),
]


@pytest.fixture(scope="module")
def strata_folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("strata")
    for name, text in _STRATA_FILES.items():
        (folder / name).write_text(text)
    return folder


@pytest.mark.parametrize(
    "argv, named", [row[1:] for row in _MALFORMED], ids=[row[0] for row in _MALFORMED]
)
def test_a_malformed_argument_is_one_bounded_usage_error(capsys, monkeypatch, strata_folder, argv, named):
    monkeypatch.setenv("COLUMNS", "80")  # the usage lines wrap at the terminal's width
    with pytest.raises(SystemExit) as exc:
        main([arg.replace("{tmp}", str(strata_folder)) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    [line] = [ln for ln in captured.err.splitlines() if "error:" in ln]
    assert f": error: {named}" in line
    assert len(captured.err.encode()) < 400


def test_a_run_builds_the_top_level_parser_and_its_command_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["equations", "--emit", "md"]) == 0
    assert built == ["dr2calc", "dr2calc equations"]


# argparse reads a "--" next to the command word as part of it, on either side
@pytest.mark.parametrize("argv", [["--", "class", "--d", "3"], ["class", "--", "--d", "3"]], ids=" ".join)
def test_a_double_dash_beside_the_command_word_is_read_past(capsys, argv):
    code, out = _run(capsys, argv)
    assert code == 0
    assert out == _run(capsys, ["class", "--d", "3"])[1]


_TOP_LEVEL_HELP = """\
usage: dr2calc [-h]
               {class,solve,equations,pushforward,cone-m21,ct,cone,verify} ...

Exact calculator for the degree-d double-ramification cycle classes on the
2-pointed genus-2 moduli space

positional arguments:
  {class,solve,equations,pushforward,cone-m21,ct,cone,verify}
  arguments

options:
  -h, --help            show this help message and exit
"""


def test_top_level_help_and_a_missing_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == _TOP_LEVEL_HELP
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage: dr2calc [-h]\n"
        "               {class,solve,equations,pushforward,cone-m21,ct,cone,verify} ...\n"
        "dr2calc: error: the following arguments are required: command, arguments\n"
    )
