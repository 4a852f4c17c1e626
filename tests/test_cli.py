"""Command-line surface: documents in, documents or reports out, exit codes."""

import argparse
import json
import sys

import pytest

from symchain import (
    GF,
    QQ,
    ZZ,
    FreeComplex,
    PresentedComplex,
    SparseMatrix,
    ZLoc,
    direct_sum,
    graded_poly,
    koszul,
    minimize,
    parse,
    serialize,
    shift,
    sym2,
    tensor,
    unit_complex,
    weak_sym2,
)
from symchain.cli import build_parser, main

POLY = graded_poly("x", "y")
X_VAR = POLY.variable("x")
Y_VAR = POLY.variable("y")


def write(tmp_path, name, value):
    path = tmp_path / name
    path.write_text(serialize(value), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def no_bound(out):
    """A verdict block with no bound line and no bound key in its json."""
    report = json.loads(out.split("json: ", 1)[1])
    return "bound:" not in out and not {"bound", "bounded"} & report.keys()


def test_koszul_and_sym2_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "koszul", "--ring", "GradedPoly(x,y)", "--elements", "x,y")
    assert code == 0
    assert parse(out) == koszul([X_VAR, Y_VAR])
    kfile = tmp_path / "k.json"
    kfile.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "sym2", str(kfile))
    assert code == 0
    assert out == serialize(sym2(koszul([X_VAR, Y_VAR])).complex)


def test_validate_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "good.json", koszul([ZZ.scalar(3)]))
    code, out, _ = run(capsys, "validate", good)
    assert code == 0 and "valid: true" in out
    # 0 -> R -(1)-> R -> 0 is a valid complex, so break d.d = 0 instead
    doc = json.loads(serialize(koszul([ZZ.scalar(3)])))
    doc["support"] = [0, 2]
    doc["ranks"] = [1, 1, 1]
    doc["differentials"] = [[["1"]], [["1"]]]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(bad_path))
    # rejected at parse time with a degree witness; validate exits only 0 or 2
    assert code == 2 and out == ""
    assert "fails validation at degree 2" in err and "entry (0,0)" in err


def test_gf_entry_with_denominator_p_is_an_input_error(tmp_path, capsys):
    doc = json.loads(serialize(koszul([GF(5).scalar(3)])))
    doc["differentials"] = [[["1/5"]]]
    path = tmp_path / "gf5.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "entry (0,0)" in err and "not invertible in GF(5)" in err


def test_shift_dsum_tensor_match_library(tmp_path, capsys):
    K = koszul([ZZ.scalar(3)])
    kfile = write(tmp_path, "k.json", K)
    code, out, _ = run(capsys, "shift", kfile, "-n", "2")
    assert code == 0 and out == serialize(shift(K, 2))
    code, out, _ = run(capsys, "dsum", kfile, kfile)
    assert code == 0 and out == serialize(direct_sum(K, K))
    code, out, _ = run(capsys, "tensor", kfile, kfile)
    assert code == 0 and out == serialize(tensor(K, K))


def test_weak_sym2_and_presented_homology(tmp_path, capsys):
    kfile = write(tmp_path, "k.json", koszul([ZZ.scalar(3)]))
    code, out, _ = run(capsys, "weak-sym2", kfile)
    assert code == 0
    assert out == serialize(weak_sym2(koszul([ZZ.scalar(3)])))
    pfile = tmp_path / "p.json"
    pfile.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "homology", str(pfile))
    assert code == 0
    assert "H[0]: Z/3" in out and "H[2]: Z/2" in out


def test_dependent_relations_are_an_input_error(tmp_path, capsys):
    doc = json.loads(serialize(weak_sym2(koszul([ZZ.scalar(3)]))))
    doc["relations"][2] = [["2", "3"]]  # two relations on one generator
    path = tmp_path / "dependent.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "homology", str(path))
    assert code == 2
    assert "relations at degree 2 are not independent" in err


def test_undecidable_graded_presentation_is_an_input_error(tmp_path, capsys):
    x = SparseMatrix.from_rows(POLY, [[X_VAR]])
    # the constructor cannot decide this one, so the document is written from parts
    P = PresentedComplex._of(POLY, {0: [0], 1: [0]}, {0: x, 1: x}, {1: x})
    code, out, err = run(capsys, "homology", write(tmp_path, "graded.json", P))
    assert code == 2 and out == ""
    assert "cannot decide whether the differential at degree 1" in err


@pytest.mark.parametrize("key", ["differentials", "relations"])
def test_presented_lists_of_the_wrong_length_are_input_errors(tmp_path, capsys, key):
    # dropping either list used to lose H[0] = Z/3 (differentials) or the
    # Z/2 of degree 2 (relations) and exit 0
    doc = json.loads(serialize(weak_sym2(koszul([ZZ.scalar(3)]))))
    doc[key] = []
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "homology", str(path))
    assert code == 2 and out == ""
    assert f"{key}: expected" in err


def test_presented_entries_at_empty_degrees_are_checked(tmp_path, capsys):
    doc = json.loads(serialize(weak_sym2(shift(unit_complex(ZZ), 1))))
    doc["support"] = [1, 2]
    doc["generators"] = [0, 1]
    doc["relations"] = [[["1"]], [["2"]]]  # one row at a degree without generators
    doc["differentials"] = [[]]
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "homology", str(path))
    assert code == 2
    assert "relations at degree 1: expected a 0x1 matrix" in err


def test_homology_graded_with_bound(tmp_path, capsys):
    sfile = write(tmp_path, "s.json", sym2(koszul([X_VAR, Y_VAR])).complex)
    code, out, _ = run(capsys, "homology", sfile, "--bound", "6")
    assert code == 0
    assert "bound: 6" in out
    assert "H[0]: 0:1" in out and "H[2]: 2:1" in out
    assert "inf: 0" in out


def test_homology_prints_the_exact_infimum_past_the_bound(tmp_path, capsys):
    # R(-5) (+) (R --1--> R): H_0 = R(-5) lies above the bound of the table
    R = graded_poly("x")
    X = FreeComplex(R, {0: 2, 1: 1}, {1: SparseMatrix.from_rows(R, [[0], [1]])}, {0: (5, 0), 1: (0,)})
    xfile = write(tmp_path, "x.json", X)
    code, out, _ = run(capsys, "homology", xfile, "--bound", "3")
    assert code == 0
    assert out.splitlines() == [f"backend: {R}", "kind: hilbert", "bound: 3", "inf: 0"]
    code, out, _ = run(capsys, "homology", xfile, "--bound", "5")
    assert out.splitlines() == [f"backend: {R}", "kind: hilbert", "bound: 5", "H[0]: 5:1", "inf: 0"]


def test_quasi_iso_command(tmp_path, capsys, monkeypatch):
    proj = sym2(koszul([X_VAR, Y_VAR])).proj
    mfile = write(tmp_path, "m.json", proj)
    code, out, _ = run(capsys, "quasi-iso", mfile)
    assert code == 1
    assert out.splitlines() == [
        "quasi-isomorphism: false",
        f"backend: {POLY}",
        "failures: [(2, 1)]",
    ]
    # graded verdicts are exact: a passing one is plain true, with no bound,
    # and the degree-bound variable does not reach it
    from symchain import identity_map

    ident = identity_map(koszul([X_VAR, Y_VAR]))
    ifile = write(tmp_path, "i.json", ident)
    monkeypatch.setenv("SYMCHAIN_DEGREE_BOUND", "-5")
    code, out, _ = run(capsys, "quasi-iso", ifile)
    assert code == 0
    assert out.splitlines() == ["quasi-isomorphism: true", f"backend: {POLY}"]
    # quasi-iso has no --bound option any more
    with pytest.raises(SystemExit) as exc:
        main(["quasi-iso", ifile, "--bound", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bound 5" in capsys.readouterr().err


def test_repeated_main_calls_agree(tmp_path, capsys):
    # one parser serves every call; nothing from one call leaks into the next
    kfile = write(tmp_path, "k.json", koszul([X_VAR, Y_VAR]))
    mfile = write(tmp_path, "m.json", sym2(koszul([X_VAR, Y_VAR])).proj)
    for argv in (
        ["check", "symm07pp", kfile],
        ["check", "symm09", kfile],
        ["homology", kfile, "--bound", "5"],
        ["quasi-iso", mfile],
        ["homology", kfile],
    ):
        first = run(capsys, *argv)
        for _ in range(3):
            assert run(capsys, *argv) == first
    assert "bound: 5" in run(capsys, "homology", kfile, "--bound", "5")[1]
    # the bound of an earlier call does not stick: the default is 2 + 4 + 2
    code, out, _ = run(capsys, "homology", kfile)
    assert code == 0 and "bound: 8" in out
    code, out, _ = run(capsys, "check", "symm09", kfile)
    assert code == 0 and no_bound(out)


def test_symm09_prints_no_bound_off_graded_rings(tmp_path, capsys, monkeypatch):
    zfile = write(tmp_path, "z.json", koszul([ZLoc(3).scalar(3)]))
    code, out, _ = run(capsys, "check", "symm09", zfile)
    assert code == 0 and "holds: true" in out and no_bound(out)
    monkeypatch.setenv("SYMCHAIN_DEGREE_BOUND", "5")
    assert run(capsys, "check", "symm09", zfile) == (code, out, "")


@pytest.mark.parametrize("theorem", ["symm07", "symm07pp", "s2fpd01", "s2fpd02", "symm09"])
def test_check_takes_no_bound(tmp_path, capsys, theorem):
    # no checker reads a degree bound, so `check` has no --bound option
    for value in (koszul([X_VAR, Y_VAR]), koszul([ZLoc(3).scalar(3)])):
        path = write(tmp_path, "x.json", value)
        with pytest.raises(SystemExit) as exc:
            main(["check", theorem, path, "--bound", "5"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --bound 5" in err


@pytest.mark.parametrize(
    "value",
    [
        koszul([ZZ.scalar(3)]),
        koszul([QQ.scalar(3)]),
        koszul([GF(5).scalar(2)]),
        koszul([ZLoc(3).scalar(3)]),
        weak_sym2(koszul([ZZ.scalar(3)])),
    ],
    ids=["ZZ", "QQ", "GF5", "ZLoc3", "presented"],
)
def test_homology_bound_off_graded_complexes_exits_2(tmp_path, capsys, monkeypatch, value):
    path = write(tmp_path, "x.json", value)
    for bound in ("-5", "0", "7"):
        code, out, err = run(capsys, "homology", path, "--bound", bound)
        assert code == 2 and out == ""
        assert "--bound applies only to graded complexes" in err and "Traceback" not in err
    code, out, _ = run(capsys, "homology", path)
    assert code == 0 and "bound:" not in out
    # the degree-bound variable is a graded default, not an error elsewhere
    monkeypatch.setenv("SYMCHAIN_DEGREE_BOUND", "5")
    assert run(capsys, "homology", path) == (code, out, "")


def test_series_verify(tmp_path, capsys):
    kfile = write(tmp_path, "k.json", koszul([X_VAR, Y_VAR]))
    code, out, _ = run(capsys, "series", kfile)
    assert code == 0 and out.strip() == "1 + 2*t + t^2"
    code, out, _ = run(capsys, "series", "--verify", kfile)
    assert code == 0
    assert "identity holds: 1 + 2*t + 2*t^2 + 2*t^3 + t^4" in out


def test_series_verify_builds_one_square(tmp_path, capsys, monkeypatch):
    """Every binding of sym2 in the symchain modules counts its calls."""
    real, squares = sym2, []
    for module in [m for name, m in sys.modules.items() if name.startswith("symchain")]:
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, lambda X: squares.append(X) or real(X))
    kfile = write(tmp_path, "k.json", koszul([X_VAR, Y_VAR]))
    code, out, _ = run(capsys, "series", "--verify", kfile)
    assert code == 0 and out == "identity holds: 1 + 2*t + 2*t^2 + 2*t^3 + t^4\n"
    assert len(squares) == 1


def test_minimize_command(tmp_path, capsys):
    # minimize needs a local backend
    K = koszul([graded_poly("x").variable("x")])
    kfile = write(tmp_path, "k.json", K)
    code, out, _ = run(capsys, "minimize", kfile)
    assert code == 0
    assert parse(out) == minimize(K)[0]


def test_poinc_command(capsys):
    code, out, _ = run(capsys, "poinc", "--coeffs", "1", "--sign", "-", "--order", "20")
    assert code == 0
    assert "case: b" in out and "tail-zero: true" in out
    code, out, _ = run(capsys, "poinc", "--coeffs", "1,1", "--sign", "-", "--order", "20")
    assert code == 0
    assert "constant: false" in out


def test_check_commands(tmp_path, capsys):
    even = write(tmp_path, "even.json", shift(unit_complex(graded_poly("x")), 2))
    code, out, _ = run(capsys, "check", "symm07", even)
    assert code == 0
    assert "conditions: i=T ii=T iii=T iv=T" in out
    assert "json: " in out
    payload = json.loads(out.split("json: ", 1)[1])
    assert payload["equivalent"] is True

    kfile = write(tmp_path, "k.json", koszul([X_VAR, Y_VAR]))
    code, out, _ = run(capsys, "check", "symm07pp", kfile)
    assert code == 0  # equivalent all-false is still a verified equivalence
    assert "equivalent: true" in out and "holds: false" in out

    code, out, _ = run(capsys, "check", "s2fpd01", kfile)
    assert code == 0
    payload = json.loads(out.split("json: ", 1)[1])
    assert payload["conditions"] == {"rank_inequality": True} and payload["holds"] is True
    assert payload["witnesses"] == {"minimal_length": "2", "square_minimal_length": "4"}
    for ring in (QQ, GF(2), GF(5), ZLoc(2)):
        code, out, _ = run(capsys, "check", "s2fpd01", write(tmp_path, "u.json", unit_complex(ring)))
        assert code == 0 and f"backend: {ring}" in out
    code, _, err = run(capsys, "check", "s2fpd01", write(tmp_path, "z.json", koszul([ZZ.scalar(3)])))
    assert code == 2 and "local backend" in err

    code, out, _ = run(capsys, "check", "symm09", kfile)
    assert code == 0

    code, out, _ = run(capsys, "check", "s2fpd02", even)
    assert code == 0


def _check_theorems():
    """The theorem choices of the `check` subparser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices["check"]._actions if a.dest == "theorem").choices


def test_check_choices_are_the_five_theorems():
    assert list(_check_theorems()) == ["symm07", "symm07pp", "s2fpd01", "s2fpd02", "symm09"]


@pytest.mark.parametrize("theorem", _check_theorems())
@pytest.mark.parametrize(
    "X",
    [koszul([X_VAR, Y_VAR]), koszul([ZLoc(3).scalar(3), ZLoc(3).scalar(1)])],
    ids=["koszul(x,y)", "koszul(3,1)/ZLoc(3)"],
)
def test_every_check_prints_one_verdict_block(tmp_path, capsys, theorem, X):
    """Each theorem goes through the one printer: theorem, backend and a
    json line whose verdict matches the exit code."""
    code, out, _ = run(capsys, "check", theorem, write(tmp_path, "x.json", X))
    lines = out.splitlines()
    assert lines[:2] == [f"theorem: {theorem}", f"backend: {X.ring}"]
    assert lines[-1].startswith("json: ")
    payload = json.loads(lines[-1][len("json: "):])
    assert payload["theorem"] == theorem and payload["backend"] == str(X.ring)
    verdict = payload["holds"] if payload["equivalent"] is None else payload["equivalent"]
    assert code == (0 if verdict else 1)


def test_corpus_run(capsys):
    code, out, _ = run(capsys, "corpus", "run")
    assert code == 0
    assert "FAIL" not in out
    assert "koszul_two_variable_matrices" in out


def test_alpha_command(tmp_path, capsys):
    kfile = write(tmp_path, "k.json", koszul([X_VAR, Y_VAR]))
    code, out, _ = run(capsys, "alpha", kfile)
    assert code == 0
    parsed = parse(out)
    assert parsed.component(2).entry(1, 1) == POLY.scalar(2)


def test_input_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    code, _, err = run(capsys, "validate", missing)
    assert code == 2
    assert "error:" in err


def _write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_non_integer_fields_exit_2(tmp_path, capsys):
    zz = json.loads(serialize(koszul([ZZ.scalar(3)])))
    graded = json.loads(serialize(koszul([X_VAR, Y_VAR])))
    cases = [
        (zz, "ranks", ["a", 1], "ranks[0]"),
        (zz, "ranks", [1, 1.0], "ranks[1]"),
        (zz, "support", ["0", 1], "support"),
        (zz, "support", 0, "support"),
        (zz, "ring", {"kind": "ZLoc", "p": 3.5}, "ring p"),
        (graded, "degrees", [[0], ["a", 1], [2]], "degrees[1]"),
        (graded, "degrees", [[0], [1, True], [2]], "degrees[1]"),
    ]
    for base, key, value, where in cases:
        doc = dict(base, **{key: value})
        code, _, err = run(capsys, "validate", _write_doc(tmp_path, doc))
        assert code == 2, (key, value)
        assert where in err and "Traceback" not in err
    code, _, err = run(capsys, "koszul", "--ring", "GF(x)", "--elements", "1")
    assert code == 2 and "GF(x)" in err


def _env_bound_commands(tmp_path):
    sfile = write(tmp_path, "s.json", sym2(koszul([X_VAR, Y_VAR])).complex)
    kfile = write(tmp_path, "k.json", koszul([X_VAR, Y_VAR]))
    mfile = write(tmp_path, "m.json", sym2(koszul([X_VAR, Y_VAR])).proj)
    return [
        ["homology", sfile],
        ["homology", kfile],
        ["check", "symm09", kfile],
        ["check", "symm07pp", kfile],
        ["quasi-iso", mfile],
    ]


def _run_unset(capsys, monkeypatch, commands):
    monkeypatch.delenv("SYMCHAIN_DEGREE_BOUND", raising=False)
    expected = [run(capsys, *argv) for argv in commands]
    assert expected[0][0] == 0 and "bound: 14" in expected[0][1]
    assert expected[2][0] == 0 and "holds: true" in expected[2][1]
    assert expected[4][0] == 1
    return expected


def test_degree_bound_env_override(tmp_path, capsys, monkeypatch):
    # only --bound sets a degree bound; SYMCHAIN_DEGREE_BOUND overrides nothing
    commands = _env_bound_commands(tmp_path)
    expected = _run_unset(capsys, monkeypatch, commands)
    monkeypatch.setenv("SYMCHAIN_DEGREE_BOUND", "4")
    assert [run(capsys, *argv) for argv in commands] == expected
    code, out, _ = run(capsys, "homology", commands[0][1], "--bound", "4")
    assert code == 0 and "bound: 4" in out


def test_degree_bound_env_not_an_integer_is_not_read(tmp_path, capsys, monkeypatch):
    # a value that is no integer, or is below every degree, is no error
    commands = _env_bound_commands(tmp_path)
    expected = _run_unset(capsys, monkeypatch, commands)
    for env in ("abc", "-1"):
        monkeypatch.setenv("SYMCHAIN_DEGREE_BOUND", env)
        assert [run(capsys, *argv) for argv in commands] == expected, env


def test_degree_bound_env_is_not_read_off_graded_complexes(tmp_path, capsys, monkeypatch):
    zfile = write(tmp_path, "z.json", koszul([ZZ.scalar(3)]))
    lfile = write(tmp_path, "l.json", koszul([ZLoc(3).scalar(3)]))
    expected = {
        ("homology", zfile): run(capsys, "homology", zfile),
        ("symm09", lfile): run(capsys, "check", "symm09", lfile),
    }
    monkeypatch.setenv("SYMCHAIN_DEGREE_BOUND", "abc")
    code, out, err = run(capsys, "homology", zfile)
    assert code == 0 and err == "" and (code, out, err) == expected[("homology", zfile)]
    code, out, err = run(capsys, "check", "symm09", lfile)
    assert code == 0 and err == "" and (code, out, err) == expected[("symm09", lfile)]


def test_bad_matrix_rows_exit_2_with_position(tmp_path, capsys):
    doc = json.loads(serialize(koszul([ZZ.scalar(3)])))
    # a row given as a string was once split into the row [1, 2]
    doc["differentials"] = [["12"]]
    code, _, err = run(capsys, "validate", _write_doc(tmp_path, doc))
    assert code == 2 and "degree 1: row 0" in err
    # JSON true was once read as 1
    doc["differentials"] = [[[True]]]
    code, _, err = run(capsys, "validate", _write_doc(tmp_path, doc))
    assert code == 2 and "entry (0,0)" in err and "true" in err
    doc["differentials"] = [[["1"]]]
    code, out, _ = run(capsys, "validate", _write_doc(tmp_path, doc))
    assert code == 0 and "valid: true" in out


def test_bound_below_lowest_generator_degree_exits_2(tmp_path, capsys, monkeypatch):
    kfile = write(tmp_path, "k.json", koszul([X_VAR, Y_VAR]))
    # every slice below degree 0 is empty, which once read as equivalent: false
    code, out, err = run(capsys, "homology", kfile, "--bound", "-1")
    assert code == 2 and out == "" and "lowest generator degree 0" in err
    # no checker takes a bound: any explicit one is an unrecognized argument
    for theorem in ("symm07pp", "symm09"):
        for bound in ("-1", "0", "12"):
            with pytest.raises(SystemExit) as exc:
                main(["check", theorem, kfile, "--bound", bound])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and f"unrecognized arguments: --bound {bound}" in err
    expected = {theorem: run(capsys, "check", theorem, kfile) for theorem in ("symm07pp", "symm09")}
    assert expected["symm07pp"][0] == 0 and "equivalent: true" in expected["symm07pp"][1]
    assert expected["symm09"][0] == 0 and "holds: true" in expected["symm09"][1]
    assert all(no_bound(out) for _, out, _ in expected.values())
    # the degree-bound variable is read by no command
    expected["homology"] = run(capsys, "homology", kfile)
    monkeypatch.setenv("SYMCHAIN_DEGREE_BOUND", "-1")
    for theorem in ("symm07pp", "symm09"):
        assert run(capsys, "check", theorem, kfile) == expected[theorem]
    assert run(capsys, "homology", kfile) == expected["homology"]


def test_inhomogeneous_map_document_exits_2_naming_the_map(tmp_path, capsys):
    from symchain import identity_map

    # (1 + x) id on koszul([x]) commutes with d but is not homogeneous; the
    # error names the document's map, not a position in its mapping cone
    doc = json.loads(serialize(identity_map(koszul([X_VAR]))))
    doc["maps"] = {"0": [["1 + x"]], "1": [["1 + x"]]}
    code, out, err = run(capsys, "quasi-iso", _write_doc(tmp_path, doc))
    assert code == 2 and out == ""
    assert "map at degree 0: entry (0,0) is not homogeneous of degree 0" in err


def test_presented_homology_over_zloc(tmp_path, capsys):
    from symchain import ZLoc

    R = ZLoc(2)
    P = weak_sym2(koszul([R.scalar(4), R.scalar(6)]))
    pfile = write(tmp_path, "p.json", P)
    code, out, _ = run(capsys, "homology", pfile)
    assert code == 0
    # the ideal (4, 6) is (2) there; the lattice oracle agrees on each group
    assert out.splitlines()[:6] == [
        "backend: ZLoc(2)",
        "kind: invariant_factors",
        "H[0]: Z/2",
        "H[1]: Z/2",
        "H[2]: Z/2 + Z/2 + Z/2",
        "H[3]: Z/4",
    ]


def test_presented_homology_over_gf2(tmp_path, capsys):
    from symchain import GF

    R = GF(2)
    # over GF(2) the weak square of this exact complex is not exact; its
    # relations in degree 2 are zero columns
    P = weak_sym2(koszul([R.scalar(1), R.scalar(1)]))
    code, out, _ = run(capsys, "homology", write(tmp_path, "p.json", P))
    assert code == 0
    assert out.splitlines() == ["backend: GF(2)", "kind: dimensions", "H[2]: 1", "H[4]: 1", "inf: 2"]


def test_non_chain_map_document_exits_2_naming_degree_and_entry(tmp_path, capsys):
    from symchain import identity_map

    # the identity in degree 0 alone does not commute with d1 = (3)
    doc = json.loads(serialize(identity_map(koszul([ZZ.scalar(3)]))))
    doc["maps"] = {"0": [["1"]]}
    code, out, err = run(capsys, "quasi-iso", _write_doc(tmp_path, doc))
    assert code == 2 and out == ""
    assert "map at degree 1 does not commute with the differentials at entry (0,0)" in err
    assert "Traceback" not in err

