import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equibundle.action_model import (
    LineIsotropy,
    Su2Isotropy,
    action_to_dict,
    line_isotropy_to_dict,
    linear_cp2,
    linear_cp2_bar,
    linear_s4,
    su2_isotropy_to_dict,
    triple_cp2_bar_action,
)
from equibundle import cli, congruence, series
from equibundle.congruence import CongruenceReport, RelationRecord
from equibundle.exact_arith import Residue
from equibundle.cli import (
    EXIT_PIPE,
    MAX_EXPAND_BITS,
    MAX_EXPAND_WORK,
    MAX_ORDER,
    MAX_SEARCH_P,
    main,
)
from oracles import (
    ROOT,
    SMALL_PRIMES,
    _build_parser_eagerly,
    _forbidden,
    _reference_report_line,
    src_env,
)



def _doc(tmp_path, name, action=None, line=None, su2=None, raw=None):
    path = tmp_path / name
    if raw is not None:
        path.write_text(raw)
        return str(path)
    doc = {}
    if action is not None:
        doc["action"] = action_to_dict(action)
    if line is not None:
        doc["line_isotropy"] = line_isotropy_to_dict(line)
    if su2 is not None:
        doc["su2_isotropy"] = su2_isotropy_to_dict(su2)
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def triple_doc(tmp_path):
    return _doc(tmp_path, "triple.json", action=triple_cp2_bar_action())


def test_check_rotation_passes(triple_doc, capsys):
    assert main(["check", triple_doc]) == 0
    out = capsys.readouterr().out
    assert "relation_1" in out


def test_check_rotation_machine(triple_doc, capsys):
    assert main(["check", triple_doc, "--machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["mode"] == "rotation"
    names = [r["name"] for r in payload["records"]]
    assert "relation_1" in names and "series_order_2" in names


def test_check_rotation_fails_on_bad_data(tmp_path, capsys):
    act = linear_cp2(5, 1, 2)
    doc = action_to_dict(act)
    doc["points"][0][0] += 1  # perturb one rotation number
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"action": doc}))
    code = main(["check", str(path), "--machine"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False


def test_check_gsign_and_subcommand(triple_doc, capsys):
    assert main(["check", triple_doc, "--mode", "gsign"]) == 0
    assert main(["gsign", triple_doc, "--machine"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["ok"] is True
    assert any(r["name"] == "signature_power_1" for r in payload["records"])


def test_check_line_mode(tmp_path):
    act = linear_cp2(7, 1, 3)
    iso = LineIsotropy((2, 3, 5), (), (), c1_squared=1)
    good = _doc(tmp_path, "line.json", action=act, line=iso)
    assert main(["check", good, "--mode", "line"]) == 0
    bad = _doc(
        tmp_path,
        "line_bad.json",
        action=act,
        line=LineIsotropy((2, 3, 6), (), (), c1_squared=1),
    )
    assert main(["check", bad, "--mode", "line"]) == 1


def test_check_su2_mode(tmp_path):
    act = linear_s4(7, 1, 3)
    good = _doc(tmp_path, "su2.json", action=act, su2=Su2Isotropy((1, 2), (), (), c2=1))
    assert main(["check", good, "--mode", "su2"]) == 0
    bad = _doc(tmp_path, "su2_bad.json", action=act, su2=Su2Isotropy((1, 2), (), (), c2=2))
    assert main(["check", bad, "--mode", "su2"]) == 1


# -- the --machine report line -----------------------------------------------


# quotes, backslashes, control characters, DEL, a line separator, non-ASCII,
# astral characters and lone surrogates, among any other character
_AWKWARD = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x08\x1f\x7f é€'),
        st.characters(min_codepoint=0x10000),
        st.characters(categories=["Cs"]),
        st.characters(),
    ),
    max_size=8,
)
_VALUE = st.one_of(
    st.integers(),
    st.fractions(),
    st.builds(Residue, st.integers(), st.integers(2, 10**6)),
    _AWKWARD,  # a str is its own str()
)
_RECORD = st.builds(
    RelationRecord,
    _AWKWARD,
    _VALUE,
    _VALUE,
    st.one_of(st.booleans(), st.integers(-1, 2), st.none(), st.floats(), _AWKWARD),
)


@given(
    mode=st.one_of(st.sampled_from(["rotation", "line", "su2", "gsign"]), _AWKWARD),
    records=st.lists(_RECORD, max_size=6),
)
@example(mode="rotation", records=[])
@settings(max_examples=300, deadline=None)
def test_report_line_equals_json_dumps(mode, records):
    report = CongruenceReport(tuple(records))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli._finish_report(argparse.Namespace(machine=True), report, mode)
    assert out.getvalue() == _reference_report_line(mode, report.ok, report.records) + "\n"
    assert code == (0 if report.ok else 1)


# objects that compare equal but print apart, next to any other value
_TWINS = st.one_of(
    st.sampled_from([0, 0.0, -0.0, False, 1, True, 1.0]),
    st.builds(Fraction, st.integers(-1, 1)),  # a new object each time
    _VALUE,
)
_VERDICTS = st.one_of(
    st.sampled_from([True, False, 0, 1, 0.0, -0.0, None]), st.floats(), _AWKWARD
)


@st.composite
def _column_report(draw):
    """A report built from name blocks and columns whose records pick their
    values from small pools, so that runs of shared objects form and break,
    with the records it stands for."""
    values = draw(st.lists(_TWINS, min_size=1, max_size=4))
    verdicts = draw(st.lists(_VERDICTS, min_size=1, max_size=3))
    names, records = [], []
    for _ in range(draw(st.integers(0, 4))):
        prefix = draw(_AWKWARD)
        if draw(st.booleans()):
            indices = ("",)  # a record named outright
        else:
            start = draw(st.integers(-2, 12))
            indices = range(start, start + draw(st.integers(0, 9)))
        names.append((prefix, indices))
        for name in [prefix + str(k) for k in indices]:
            lhs, required = draw(st.sampled_from(values)), draw(st.sampled_from(values))
            records.append(RelationRecord(name, lhs, required, draw(st.sampled_from(verdicts))))
    columns = [[r[i] for r in records] for i in (1, 2, 3)]
    return CongruenceReport._columns(tuple(names), *columns), records


@given(
    mode=st.one_of(st.sampled_from(["rotation", "line", "su2", "gsign"]), _AWKWARD),
    drawn=_column_report(),
    chunk=st.integers(1, 5),
)
@settings(max_examples=300, deadline=None)
def test_a_report_held_as_columns_writes_and_reads_as_its_records(mode, drawn, chunk):
    report, records = drawn
    same = CongruenceReport(tuple(records))
    assert report.records == same.records == tuple(records)
    assert report.ok == same.ok == all(r.passed for r in records)
    assert report.failures() == same.failures() == [r for r in records if not r.passed]
    assert report == same
    text = "\n".join(r.display() for r in records)
    verdict = "all relations hold" if report.ok else f"{len(report.failures())} relation(s) failed"
    with mock.patch.object(congruence, "_CHUNK", chunk):  # many pieces
        assert report.display() == text
        # one "x" per record: no piece holds 2 * chunk records or more
        pieces = list(report._pieces(lambda *run: ("x", "y"), ","))
        assert sum(piece.count("x") for piece in pieces) == len(records)
        assert all(piece.count("x") < 2 * chunk for piece in pieces)
        for machine, want in (
            (True, _reference_report_line(mode, report.ok, records) + "\n"),
            (False, text + "\n" + verdict + "\n"),
        ):
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli._finish_report(argparse.Namespace(machine=machine), report, mode)
            assert out.getvalue() == want
            assert code == (0 if report.ok else 1)


DEMO_DOCUMENTS = sorted((ROOT / "demos" / "documents").glob("*.json"))


@pytest.mark.parametrize("mode", ["rotation", "gsign", "line", "su2"])
def test_demo_documents_write_the_reference_report_line(mode, monkeypatch, capsys):
    reports = 0
    for path in DEMO_DOCUMENTS:
        argv = ["check", str(path), "--mode", mode, "--machine"]
        code = main(argv)
        got = capsys.readouterr()
        with monkeypatch.context() as m:
            # the oracle's line in one piece, from the report's records
            m.setattr(
                cli,
                "_report_line",
                lambda mode, ok, report: [_reference_report_line(mode, ok, report.records)],
            )
            assert main(argv) == code
        assert capsys.readouterr() == got, path.name
        reports += '"records": [{' in got.out
    assert reports >= 2  # every mode has documents that reach the writer


def test_missing_section_is_validation_error(triple_doc):
    assert main(["check", triple_doc, "--mode", "line"]) == 3
    assert main(["dimension", triple_doc]) == 3


def test_corrupt_document_is_parse_error(tmp_path):
    path = _doc(tmp_path, "corrupt.json", raw="{ not json")
    assert main(["check", str(path)]) == 2
    lst = _doc(tmp_path, "list.json", raw="[1, 2]")
    assert main(["check", lst]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2


def test_non_utf8_document_is_parse_error(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["check", str(path)]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on int string conversion",
)
def test_int_literal_over_the_digit_limit_is_parse_error(tmp_path, capsys):
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    path = _doc(tmp_path, "huge.json", raw='{"action": {"p": ' + digits + "}}")
    assert main(["check", path]) == 2
    assert "not a valid document" in capsys.readouterr().err


def test_misspelt_section_key_is_parse_error(tmp_path, capsys):
    # read as a missing field, it used to exit 3 with "0 point weights for 3 points"
    line = {"lambda_point": [0, 0, 0]}
    doc = {"action": action_to_dict(linear_cp2(5, 1, 2)), "line_isotropy": line}
    path = _doc(tmp_path, "misspelt.json", raw=json.dumps(doc))
    assert main(["check", path, "--mode", "line"]) == 2
    assert "'lambda_point'" in capsys.readouterr().err


def test_invalid_action_document(tmp_path, capsys):
    # counts that cannot close up to a four-manifold: every failing entry is named
    doc = action_to_dict(linear_cp2(5, 1, 0))
    doc["b2"] = 7
    path = tmp_path / "badcounts.json"
    path.write_text(json.dumps({"action": doc}))
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err == (
        "error: action fails validation: fixed_set_count: |points| + 2|spheres| = 3, b2 + 2 = 9; "
        "euler_betti: chi = 3, b2 + 2 = 9\n"
    )


@pytest.mark.parametrize(
    "points, spheres, message",
    [
        ([[0, 1], [1, 2]], [], "rotation numbers (0, 1) must be nonzero mod 5"),
        ([[1, 2]], [{"c": 10, "alpha": 1}], "normal rotation 10 must be nonzero mod 5"),
    ],
    ids=["point", "sphere"],
)
def test_zero_rotation_document_is_validation_error(tmp_path, capsys, points, spheres, message):
    # refused where the point or sphere is built, in the constructor's words
    action = {"p": 5, "points": points, "spheres": spheres, "signature": 0, "euler": 2, "b2": 0}
    path = _doc(tmp_path, "zero.json", raw=json.dumps({"action": action}))
    assert main(["check", path]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "action",
    [
        {"p": 9, "points": [[1, 2], [1, 7]], "spheres": [], "signature": 0, "euler": 2, "b2": 0},
        {"p": 4, "points": [], "spheres": [], "signature": 0, "euler": 2, "b2": 0},
    ],
    ids=["p9-points", "p4-no-fixed-set"],
)
def test_composite_p_document_is_validation_error(tmp_path, capsys, action):
    # refused where the action is built, even with no fixed component
    path = _doc(tmp_path, "composite.json", raw=json.dumps({"action": action}))
    message = f"p must be prime, got {action['p']}"
    assert main(["check", path]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["gsign", path, "--machine"]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out) == {"ok": False, "error": message}
    assert err == f"error: {message}\n"


def test_p_2_document_prints_the_involution_warning(tmp_path, capsys):
    # a p = 2 action passes validation; the CLI warns that only the
    # dimension formulas apply, and the congruence checks refuse it
    action = {"p": 2, "points": [[1, 1], [1, 1]], "spheres": [], "signature": 0, "euler": 2, "b2": 0}
    su2 = {"ell_points": [1, 1], "ell_spheres": [], "m_spheres": [], "c2": 1}
    path = _doc(tmp_path, "p2.json", raw=json.dumps({"action": action, "su2_isotropy": su2}))
    warning = "warning: p = 2: dimension formulas only, congruence checks need odd p\n"
    assert main(["dimension", path, "--machine"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["dimension"] == 3 and err == warning
    assert main(["check", path]) == 3
    assert capsys.readouterr().err == warning + "error: congruence checks need an odd prime, got p = 2\n"


def test_solve_null_slot(tmp_path, capsys):
    act = linear_cp2(5, 1, 0)
    iso = LineIsotropy((2,), (1,), (None,))
    path = _doc(tmp_path, "solve.json", action=act, line=iso)
    assert main(["solve", path, "--machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["document"]["line_isotropy"]["m_spheres"] == [-1]


def test_solve_free_flag(tmp_path, capsys):
    act = linear_cp2(5, 1, 0)
    iso = LineIsotropy((2,), (1,), (0,))  # complete record, blank m[0] via flag
    path = _doc(tmp_path, "solve2.json", action=act, line=iso)
    assert main(["solve", path, "--free", "m[0]", "--machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["document"]["line_isotropy"]["m_spheres"] == [-1]
    assert payload["document"]["action"]["p"] == 5
    # a slot of each kind, blanked in a consistent record, solves back to its value
    whole = {"lambda_points": [2], "lambda_spheres": [1], "m_spheres": [-1]}
    path = _doc(tmp_path, "solve3.json", action=act, line=LineIsotropy((2,), (1,), (-1,)))
    for slot in ("lambda[0]", "lambda_sphere[0]", "m[0]"):
        assert main(["solve", path, "--free", slot, "--machine"]) == 0, slot
        assert json.loads(capsys.readouterr().out)["document"]["line_isotropy"] == whole


def test_solve_error_paths(tmp_path):
    act = linear_cp2(5, 1, 0)
    path = _doc(tmp_path, "s3.json", action=act, line=LineIsotropy((2,), (1,), (0,)))
    assert main(["solve", path, "--free", "nonsense"]) == 2
    assert main(["solve", path, "--free", "m[4]"]) == 2
    # two unknowns: underdetermined record
    path2 = _doc(tmp_path, "s4.json", action=act, line=LineIsotropy((None,), (None,), (0,)))
    assert main(["solve", path2]) == 3
    # no unknowns at all: overdetermined
    assert main(["solve", path]) == 3


@pytest.mark.parametrize("slot", ["m[0]\n", "m[٠]"])  # a trailing newline; Arabic-Indic 0
def test_solve_free_takes_only_a_whole_ascii_slot_name(slot, capsys):
    assert main(["solve", _demo("cp2_solve_m.json"), "--free", slot, "--machine"]) == 2
    message = f"--free must look like lambda[i], lambda_sphere[j] or m[j], got {slot!r}"
    assert message in capsys.readouterr().err


def test_solve_not_solvable(tmp_path):
    from equibundle.action_model import FixedSphere, GroupAction, IsolatedPoint

    act = GroupAction(5, (IsolatedPoint(5, 1, 1),), (FixedSphere(5, 1, 5),), 1, 3, 1)
    iso = LineIsotropy((1,), (None,), (0,))
    path = _doc(tmp_path, "ns.json", action=act, line=iso)
    assert main(["solve", path]) == 1


def test_dimension_lifts(tmp_path, capsys):
    act = triple_cp2_bar_action()
    p1 = _doc(tmp_path, "d1.json", action=act, su2=Su2Isotropy((1, -3, 1), (1,), (0,), c2=1))
    p2 = _doc(tmp_path, "d2.json", action=act, su2=Su2Isotropy((1, 1, 1), (1,), (-1,), c2=1))
    assert main(["dimension", p1]) == 0
    out1 = capsys.readouterr().out
    assert "dimension: 1" in out1
    assert main(["dimension", p2]) == 0
    out2 = capsys.readouterr().out
    assert "dimension: 3" in out2


def test_dimension_machine_payload(tmp_path, capsys):
    act = triple_cp2_bar_action()
    p1 = _doc(tmp_path, "dm.json", action=act, su2=Su2Isotropy((1, -3, 1), (1,), (0,), c2=1))
    assert main(["dimension", p1, "--machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 1
    assert payload["k"] == 1
    assert payload["chi_quotient"] == "5"
    assert payload["sign_quotient"] == "-3"


def test_dimension_non_integer_exit(tmp_path, capsys):
    act = linear_s4(5, 1, 2)
    path = _doc(tmp_path, "dni.json", action=act, su2=Su2Isotropy((1, 1), (), (), c2=1))
    assert main(["dimension", path, "--machine"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["total"] == "3/5"


def test_expand_point(capsys):
    code = main(["expand", "--kind", "point", "--a", "1", "--b", "2", "--order", "2", "--machine"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coefficients"] == ["2", "2", "1"]


def test_expand_mod_column(capsys):
    code = main(
        ["expand", "--kind", "sphere", "--c", "1", "--alpha", "-2", "--order", "2", "--p", "5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "s^0: 8" in out and "(mod 5: 3)" in out


@pytest.mark.parametrize(
    "params, message",
    [
        (["--kind", "point", "--a", "0", "--b", "1"], "rotation numbers (0, 1) must be nonzero"),
        (["--kind", "sphere", "--c", "0", "--alpha", "1"], "normal rotation 0 must be nonzero"),
    ],
)
def test_expand_zero_rotation_is_a_validation_failure(params, message, capsys):
    assert main(["expand", *params, "--machine"]) == 3
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {"ok": False, "error": message}
    assert err == f"error: {message}\n"


def test_expand_zero_rotation_with_a_cancelled_numerator_exits_3():
    assert main(["expand", "--kind", "sphere", "--c", "0", "--alpha", "0"]) == 3


def test_expand_missing_parameter():
    assert main(["expand", "--kind", "point", "--a", "1"]) == 2


def test_expand_defaults_twist_to_zero(capsys):
    assert main(["expand", "--kind", "su2-point", "--a", "1", "--b", "1", "--machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coefficients"][0] == "8"


def test_expand_zero_modulus_is_parse_error(capsys):
    argv = ["expand", "--kind", "point", "--a", "1", "--b", "2", "--order", "3", "--p", "0"]
    assert main(argv) == 2
    assert "--p" in capsys.readouterr().err


def test_expand_modulus_one_is_parse_error(capsys):
    for modulus in ("1", "9"):  # a composite modulus is a bad parameter too
        argv = ["expand", "--kind", "point", "--a", "1", "--b", "3", "--order", "3", "--p", modulus]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--p" in err


def test_expand_negative_order_is_parse_error(capsys):
    for order in ("-1", "1001"):  # 1001 is just above MAX_ORDER
        assert main(["expand", "--kind", "point", "--a", "1", "--b", "2", "--order", order]) == 2
        assert "--order" in capsys.readouterr().err


def test_expand_non_integer_modulus_names_the_type_int(capsys):
    argv = ["expand", "--kind", "point", "--a", "1", "--b", "2", "--p", "x"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == "equibundle expand: error: argument --p: invalid int value: 'x'"


def _expand_bound_argv(kind, order, **params):
    argv = ["expand", "--kind", kind, "--order", str(order), "--machine"]
    for name, value in params.items():
        argv += [f"--{name}", str(value)]
    return argv


@pytest.mark.parametrize(
    "argv, bound",
    [
        # ten-digit rotation numbers: once a minute, then the digit limit
        (_expand_bound_argv("point", 600, a=1000000007, b=999999937), MAX_EXPAND_BITS),
        # 2 * 6000 + 2 bits for c twice and alpha, at order 0
        (_expand_bound_argv("sphere", 0, c=2**5999, alpha=3), MAX_EXPAND_BITS),
        # 317 * min(317, 317)
        (_expand_bound_argv("boundary", 316, c=317, m=1), MAX_EXPAND_WORK),
    ],
)
def test_expand_over_a_bound_exits_before_expanding(argv, bound, monkeypatch, capsys):
    # `expand` looks its expansion up in `series` by name, on each call
    refuse = _forbidden("expanded a request over the bound")
    monkeypatch.setattr(series, cli._EXPAND[argv[2]][0], refuse)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert f"<= {bound}, got" in err
    assert json.loads(out) == {"ok": False, "error": err.strip().removeprefix("error: ")}


@pytest.mark.parametrize(
    "argv",
    [
        # 2 * 5999 + 2 = 12000 bits: an integer of about 3,612 digits
        _expand_bound_argv("sphere", 0, c=2**5998 + 1, alpha=3),
        # 316 * min(317, 316) = 99,856
        _expand_bound_argv("boundary", 315, c=317, m=1),
        # the largest order at small arguments
        _expand_bound_argv("su2-point", MAX_ORDER, a=-7, b=11, ell=5),
    ],
)
def test_expand_at_a_bound_prints_every_coefficient(argv, capsys):
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["coefficients"]) == int(argv[4]) + 1


def test_search_negative_limit_is_parse_error(capsys):
    argv = [
        "search", "--p", "5", "--points", "1", "--spheres", "1", "--alphas", "1",
        "--sign", "1", "--euler", "3", "--b2", "1", "--limit", "-1",
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--limit" in err and "islice" not in err


def test_search_negative_points_is_parse_error(capsys):
    argv = [
        "search", "--p", "5", "--points", "-1", "--spheres", "1", "--alphas", "1",
        "--sign", "1", "--euler", "1", "--b2", "-1",
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--points" in err and "non-negative" not in err


def test_search_negative_b2_is_parse_error(capsys):
    argv = ["search", "--p", "5", "--points", "0", "--sign", "0", "--euler", "0", "--b2", "-2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--b2" in captured.err


def test_unknown_arguments_are_parse_errors(triple_doc):
    assert main(["frobnicate"]) == 2
    assert main(["check", triple_doc, "--mode", "bogus"]) == 2
    assert main(["expand", "--kind", "nonsense", "--a", "1"]) == 2


def test_sum_spheres(tmp_path, capsys):
    from equibundle.action_model import linear_cp2_bar

    a = _doc(tmp_path, "a.json", action=linear_cp2_bar(5, 1))
    b = _doc(tmp_path, "b.json", action=linear_cp2_bar(5, 1))
    assert main(["sum", a, b, "--spheres", "0", "0", "--machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    merged = payload["document"]["action"]
    assert merged["signature"] == -2
    assert len(merged["spheres"]) == 1
    assert merged["spheres"][0]["alpha"] == -2  # self-intersections add


def test_sum_points(tmp_path, capsys):
    from equibundle.action_model import reverse_orientation

    act = linear_s4(5, 1, 2)
    rev = reverse_orientation(act)
    a = _doc(tmp_path, "pa.json", action=act)
    b = _doc(tmp_path, "pb.json", action=rev)
    assert main(["sum", a, b, "--points", "0", "0", "--machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["document"]["action"]["euler"] == 2


def test_sum_error_paths(tmp_path):
    from equibundle.action_model import linear_cp2_bar

    a = _doc(tmp_path, "e1.json", action=linear_cp2_bar(5, 1))
    b = _doc(tmp_path, "e2.json", action=linear_cp2_bar(5, 2))
    assert main(["sum", a, b]) == 2  # neither flag
    assert main(["sum", a, b, "--points", "0", "0", "--spheres", "0", "0"]) == 2
    assert main(["sum", a, b, "--spheres", "0", "5"]) == 2  # out of range
    assert main(["sum", a, b, "--spheres", "-1", "-1"]) == 2
    assert main(["sum", a, b, "--points", "-1", "0"]) == 2
    assert main(["sum", a, b, "--spheres", "0", "0"]) == 3  # incompatible weights


def test_search_cli(capsys):
    args = [
        "search",
        "--p", "5", "--points", "1", "--spheres", "1", "--alphas", "1",
        "--sign", "1", "--euler", "3", "--b2", "1", "--machine",
    ]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] >= 1
    assert all(r["p"] == 5 for r in payload["results"])


def test_search_limit_and_determinism(capsys):
    base = [
        "search", "--p", "7", "--points", "2", "--sign", "0",
        "--euler", "2", "--b2", "0", "--machine",
    ]
    assert main(base) == 0
    full = json.loads(capsys.readouterr().out)
    assert main(base + ["--limit", "1"]) == 0
    limited = json.loads(capsys.readouterr().out)
    assert limited["count"] == min(1, full["count"])
    if full["count"]:
        assert limited["results"][0] == full["results"][0]
    assert main(base) == 0
    again = json.loads(capsys.readouterr().out)
    assert again == full


@pytest.mark.parametrize("extra", [[], ["--machine"]])
def test_closed_stdout_exits_quietly(extra):
    """A reader that goes away before the output is written (as `| head`
    does) gets exit 141 and no traceback.  The pipe's read end is closed
    before the command starts, so its first write always fails."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    argv = [
        "search", "--p", "13", "--points", "3", "--sign", "1", "--euler", "3", "--b2", "1",
    ]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "equibundle", *argv, *extra],
            stdout=write_end, stderr=subprocess.PIPE, env=src_env(), text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_PIPE == 141
    assert proc.stderr == ""


def test_search_composite_p_is_validation_error(capsys):
    # 1000000007 * 998244353 is too large to factor by trial division and
    # fails the bound; 7 * 11 * 13 is below it and reaches the prime
    # check of search_realizable
    for p in ("998244359987710471", "1001"):
        argv = [
            "search", "--p", p, "--points", "3", "--sign", "1",
            "--euler", "3", "--b2", "1", "--limit", "1",
        ]
        assert main(argv) == 3
        assert "odd prime" in capsys.readouterr().err


def test_search_p_above_the_bound_is_validation_error(monkeypatch, capsys):
    # the class table is built before the first result, so the bound is
    # checked before the search starts; 1013 is the next prime
    monkeypatch.setattr(cli, "search_realizable", _forbidden("search started above the bound"))
    argv = [
        "search", "--p", "1013", "--points", "1", "--spheres", "1",
        "--alphas", "1", "--sign", "1", "--euler", "3", "--b2", "1", "--limit", "1",
    ]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "odd prime" in err and str(MAX_SEARCH_P) in err


def test_search_sphere_walk_over_the_bound_is_validation_error(monkeypatch, capsys):
    # three spheres at p = 1009 walk 504^3 weight tuples; the bound is 504^2
    monkeypatch.setattr(congruence, "_search", _forbidden("sphere walk started"))
    argv = [
        "search", "--p", "1009", "--points", "0", "--spheres", "3", "--alphas", "1,1,1",
        "--sign", "0", "--euler", "6", "--b2", "4",
    ]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "504^3" in err and "254016" in err


def test_search_inconsistent_profile():
    args = [
        "search", "--p", "5", "--points", "1", "--sign", "0",
        "--euler", "4", "--b2", "0",
    ]
    assert main(args) == 3


@pytest.mark.parametrize("p, euler", [("7", "9"), ("4", "3")])
def test_search_refuses_a_bad_profile_even_when_nothing_is_read(p, euler, capsys):
    argv = [
        "search", "--p", p, "--points", "2", "--sign", "1",
        "--euler", euler, "--b2", "1", "--limit", "0", "--machine",
    ]
    assert main(argv) == 3
    assert json.loads(capsys.readouterr().out)["ok"] is False


NESTED = "[" * 200_000


def test_deeply_nested_document_is_parse_error(tmp_path, capsys):
    path = _doc(tmp_path, "nested.json", raw=NESTED)
    assert main(["check", path]) == 2
    assert "not a valid document" in capsys.readouterr().err


def test_deeply_nested_stdin_is_parse_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(NESTED))
    assert main(["check", "-", "--machine"]) == 2
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_stdin_document(tmp_path, capsys, monkeypatch):
    import io

    doc = json.dumps({"action": action_to_dict(triple_cp2_bar_action())})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert main(["check", "-", "--machine"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_shipped_documents_round_trip():
    # serialize(parse(doc)) must parse back to an equal action
    from equibundle.action_model import (
        action_from_dict,
        line_isotropy_from_dict,
        su2_isotropy_from_dict,
    )

    assert len(DEMO_DOCUMENTS) >= 10
    for path in DEMO_DOCUMENTS:
        doc = json.loads(path.read_text())
        act = action_from_dict(doc["action"])
        again = action_from_dict(json.loads(json.dumps(action_to_dict(act))))
        assert again == act
        if "line_isotropy" in doc:
            iso = line_isotropy_from_dict(doc["line_isotropy"])
            assert line_isotropy_from_dict(line_isotropy_to_dict(iso)) == iso
        if "su2_isotropy" in doc:
            su2 = su2_isotropy_from_dict(doc["su2_isotropy"])
            assert su2_isotropy_from_dict(su2_isotropy_to_dict(su2)) == su2


# -- the exit-code contract on fuzzed documents ------------------------------

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=3),
)


def _or_junk(strategy):
    """Mostly well-typed values, sometimes a value of the wrong type."""
    return st.one_of(strategy, strategy, strategy, _JUNK)


_WEIGHT = _or_junk(st.integers(-20, 20))
_COUNT = _or_junk(st.integers(-3, 8))
_PAIR = _or_junk(st.lists(_WEIGHT, min_size=1, max_size=3))
_UNKNOWN = {"note": _WEIGHT}  # a key no reader knows: exit 2
_SPHERE = _or_junk(st.fixed_dictionaries({"c": _WEIGHT, "alpha": _or_junk(st.integers(-4, 4))}))
_ACTION = st.fixed_dictionaries(
    {
        "p": _or_junk(st.sampled_from([-3, 0, 1, 2, 3, 4, 5, 7, 9, 11, 13, 10**25 + 1])),
        "points": _or_junk(st.lists(_PAIR, max_size=4)),
        "spheres": _or_junk(st.lists(_SPHERE, max_size=2)),
        "signature": _COUNT,
        "euler": _COUNT,
        "b2": _COUNT,
    },
    optional=_UNKNOWN,
)
_SLOTS = _or_junk(st.lists(_or_junk(st.integers(-20, 20)), max_size=4))
_LINE = _or_junk(
    st.fixed_dictionaries(
        {"lambda_points": _SLOTS, "lambda_spheres": _SLOTS, "m_spheres": _SLOTS},
        optional={"c1_squared": _WEIGHT, **_UNKNOWN},
    )
)
_SU2 = _or_junk(
    st.fixed_dictionaries(
        {"ell_points": _SLOTS, "ell_spheres": _SLOTS, "m_spheres": _SLOTS, "c2": _WEIGHT},
        optional=_UNKNOWN,
    )
)


@st.composite
def _model_documents(draw):
    """A linear model with isotropy sections of its shape: these pass
    validation, so the relations, the solver and the dimension formula
    are reached."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    a, b = draw(st.integers(1, p - 1)), draw(st.integers(1, p - 1))
    build = draw(
        st.sampled_from(
            [
                lambda: linear_cp2(p, a, (a + b) % p),  # the second weight differs from a
                lambda: linear_cp2_bar(p, a),
                lambda: linear_s4(p, a, b),
            ]
        )
    )
    act = build()
    weight = st.integers(-20, 20)
    slot = st.one_of(weight, weight, weight, st.none())

    def points(entry):
        return draw(st.lists(entry, min_size=len(act.points), max_size=len(act.points)))

    def spheres(entry):
        return draw(st.lists(entry, min_size=len(act.spheres), max_size=len(act.spheres)))

    line = {
        "lambda_points": points(slot),
        "lambda_spheres": spheres(slot),
        "m_spheres": spheres(slot),
        "c1_squared": draw(st.one_of(st.none(), weight)),
    }
    su2 = {
        "ell_points": points(weight),
        "ell_spheres": spheres(weight),
        "m_spheres": spheres(weight),
        "c2": draw(st.integers(-2, 5)),
    }
    return json.dumps({"action": action_to_dict(act), "line_isotropy": line, "su2_isotropy": su2})


_DOCUMENTS = st.one_of(
    st.fixed_dictionaries(
        {}, optional={"action": _ACTION, "line_isotropy": _LINE, "su2_isotropy": _SU2}
    ).map(json.dumps),
    st.text(max_size=8),
    _model_documents(),
)
_COMMANDS = [
    *(["check", "-", "--mode", mode] for mode in ("rotation", "line", "su2", "gsign")),
    ["solve", "-"],
    ["dimension", "-"],
    ["gsign", "-"],
]


def _run_on_stdin(argv, text):
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


@settings(max_examples=50, deadline=None)
@given(_DOCUMENTS)
def test_every_document_command_keeps_the_exit_code_contract(text):
    for argv in _COMMANDS:
        code, _ = _run_on_stdin(argv, text)
        assert code in (0, 1, 2, 3), (argv, text)
        code, out = _run_on_stdin([*argv, "--machine"], text)
        assert code in (0, 1, 2, 3), (argv, text)
        lines = out.splitlines()
        assert len(lines) == 1, (argv, text, out)
        assert isinstance(json.loads(lines[0]), dict)


# -- the exit-code contract on fuzzed expand and search argv -----------------

def _maybe(rng, valid, junk):
    """Mostly the valid value, now and then one from `junk`."""
    return rng.choice(junk) if rng.random() < 0.08 else valid


def _command_argv(rng, command, values, required):
    """`command` with its flags in random order; a required flag is
    rarely left out, an optional one more often."""
    argv = [command]
    names = sorted(values)
    rng.shuffle(names)
    for name in names:
        if rng.random() >= (0.03 if name in required else 0.25):
            argv += [f"--{name}", str(values[name])]
    return argv


@st.composite
def _expand_argv(draw):
    rng = draw(st.randoms())
    kinds = ["point", "sphere", "boundary", "su2-point", "su2-sphere"]
    values = {
        "kind": _maybe(rng, rng.choice(kinds), ["x", ""]),
        "order": _maybe(rng, rng.randint(0, 12), [-1, MAX_ORDER + 1, 10**9, "x"]),
        "p": _maybe(rng, rng.choice([3, 5, 7, 13, 31]), [-3, 0, 1, 2, 9, 10**25 + 1, "x"]),
    }
    for flag in ("a", "b", "c", "alpha", "m", "ell", "lam"):
        values[flag] = _maybe(rng, rng.randint(-30, 30), [10**12, "x", ""])
    return _command_argv(rng, "expand", values, {"kind", "a", "b", "c", "alpha"})


@st.composite
def _search_argv(draw):
    """Mostly a consistent profile: |points| + 2|spheres| = b2 + 2 = chi."""
    rng = draw(st.randoms())
    points, spheres = rng.randint(0, 3), rng.randint(0, 2)
    b2 = points + 2 * spheres - 2
    alphas = ",".join(str(rng.randint(-3, 3)) for _ in range(spheres))
    values = {
        "p": _maybe(rng, rng.choice(SMALL_PRIMES), [-3, 0, 1, 2, 9, 998244359987710471, "x"]),
        "points": _maybe(rng, points, [-1, 4, "x"]),
        "spheres": _maybe(rng, spheres, [-1, 3, "x"]),
        "alphas": _maybe(rng, alphas, ["1", "1,x", ",", "0,3,1"]),
        "sign": _maybe(rng, rng.randint(-3, 3), [10**12, "x"]),
        "euler": _maybe(rng, b2 + 2, [-1, 1, 7, "x"]),
        "b2": _maybe(rng, b2, [-1, 5, "x"]),
        "limit": _maybe(rng, rng.randint(0, 3), [-1, "x"]),
    }
    return _command_argv(rng, "search", values, {"p", "points", "sign", "euler", "b2"})


@settings(max_examples=100, deadline=None)
@given(st.one_of(_expand_argv(), _search_argv()))
def test_expand_and_search_keep_the_exit_code_contract(argv):
    code, _ = _run_on_stdin(argv, "")
    assert code in (0, 1, 2, 3), argv
    code, out = _run_on_stdin([*argv, "--machine"], "")
    assert code in (0, 1, 2, 3), argv
    if not out:  # argparse rejected the argv
        assert code == 2, argv
    else:
        lines = out.splitlines()
        assert len(lines) == 1, (argv, out)
        assert isinstance(json.loads(lines[0]), dict)


# -- the parser: each subcommand's arguments added when it parses -------------


def _demo(name):
    return f"demos/documents/{name}"  # from the checkout's root


TRIPLE = _demo("triple_cp2bar.json")
M0 = _demo("cp2bar_su2_m0.json")
EXPAND = ["expand", "--kind", "point", "--a", "1", "--b", "2"]
SEARCH = ["search", "--p", "5", "--points", "3", "--sign", "1", "--euler", "3"]

# per subcommand: a valid call on a demo document, one missing a required
# argument, and one with a bad choice or type
_CALLS = {
    "check": (["check", TRIPLE], ["check"], ["check", TRIPLE, "--mode", "nope"]),
    "solve": (["solve", _demo("cp2_solve_m.json")], ["solve"], ["solve", TRIPLE, "--free"]),
    "dimension": (
        ["dimension", _demo("triple_cp2bar_lift1.json")],
        ["dimension"],
        ["dimension", TRIPLE, "--machine=yes"],
    ),
    "expand": (EXPAND, ["expand", "--a", "1"], [*EXPAND, "--order", "x"]),
    "gsign": (["gsign", TRIPLE, "--machine"], ["gsign"], ["gsign", TRIPLE, "--machine=yes"]),
    "sum": (
        ["sum", M0, M0, "--spheres", "0", "0"],
        ["sum", M0],
        ["sum", M0, M0, "--points", "0", "x"],
    ),
    "search": ([*SEARCH, "--b2", "1"], SEARCH, [*SEARCH, "--b2", "-1"]),
}
# one per integer option, last: a value `int()` takes (surrounding whitespace,
# underscores, other scripts' digits) that `[+-]?[0-9]+` does not; each exits 2
_SPHERE_SEARCH = ["search", "--p", "5", "--points", "1", "--spheres", "1", "--alphas", "1"]
_SPHERE_SEARCH += ["--sign", "1", "--euler", "3", "--b2", "1"]
_NOT_INTEGERS = [
    [*SEARCH, "--b2", "1", "--p", " 1_3"],  # the last --p given counts
    [*SEARCH, "--b2", "1", "--points", "٣"],
    [*_SPHERE_SEARCH, "--spheres", "0_1"],
    [*_SPHERE_SEARCH, "--alphas", "١"],
    [*SEARCH, "--b2", "1", "--sign", "1 "],
    [*SEARCH, "--b2", "1", "--euler", "３"],
    [*SEARCH, "--b2", "\t1"],
    [*SEARCH, "--b2", "1", "--limit", "1_0"],
    [*EXPAND, "--a", "٣"],
    [*EXPAND, "--b", "2_0"],
    ["expand", "--kind", "sphere", "--alpha", "1", "--c", "1 "],
    ["expand", "--kind", "sphere", "--c", "1", "--alpha", "٢"],
    ["expand", "--kind", "boundary", "--c", "1", "--m", " 2"],
    ["expand", "--kind", "su2-point", "--a", "1", "--b", "2", "--ell", "1\n"],
    [*EXPAND, "--lam", "+1_0"],
    [*EXPAND, "--order", "٤"],
    [*EXPAND, "--p", " 5"],
    ["sum", _demo("cp2_fixed_line.json"), M0, "--points", "0", "0_0"],
    ["sum", M0, M0, "--spheres", "0", "٠"],
]
_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["che", TRIPLE],  # a prefix of a subcommand names none
    ["--", "check", TRIPLE],
    ["check", TRIPLE, "--mo", "gsign"],  # a prefix of an option
    ["check", TRIPLE, "--machine", "extra"],
] + [
    argv
    for name, (valid, missing, bad) in _CALLS.items()
    for argv in (
        [name, "-h"],
        [name, "--help"],
        [name, "--hel"],  # a prefix of --help
        [*valid, "-h"],
        valid,
        missing,
        bad,
        [*valid, "--bogus"],
    )
] + _NOT_INTEGERS


@pytest.mark.parametrize("argv", _CORPUS, ids=" ".join)
def test_the_parser_answers_as_the_eager_one(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    lazy = main(argv), *capsys.readouterr()
    monkeypatch.setattr(cli, "_build_parser", _build_parser_eagerly)
    assert (main(argv), *capsys.readouterr()) == lazy


@pytest.mark.parametrize("argv", _NOT_INTEGERS, ids=repr)
def test_an_integer_option_takes_only_ascii_digits(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code, out, err = main(argv), *capsys.readouterr()
    value = argv[-1]
    assert (code, out) == (2, "")
    if argv[-2] == "--alphas":
        assert err == f"error: --alphas must be comma-separated integers: {value!r}\n"
    else:
        assert err.endswith(f": invalid int value: {value!r}\n")


def test_a_call_adds_only_its_own_subcommands_arguments(monkeypatch):
    built = []

    class Recording(cli._SubcommandParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(cli, "_SubcommandParser", Recording)
    # gsign is check in gsign mode: its handler comes from the fill, its mode
    # from its own arguments
    for argv, mode, own in (
        (["check", TRIPLE], "rotation", "--mode"),
        (["gsign", TRIPLE], "gsign", "file"),
    ):
        built.clear()
        args = cli._build_parser().parse_args(argv)
        assert (args.handler, args.mode, args.machine) == (cli._cmd_check, mode, False)
        usages = {parser.prog: parser.format_usage() for parser in built}
        assert sorted(usages) == sorted(f"equibundle {name}" for name in _CALLS)
        parsed = usages.pop(f"equibundle {argv[0]}")
        assert parsed.startswith(f"usage: equibundle {argv[0]} [-h]")
        assert own in parsed and "--machine" in parsed
        # an unparsed subcommand holds no argument, not even -h
        assert usages == {prog: f"usage: {prog}\n" for prog in usages}


def test_each_parse_copies_the_template_and_answers_as_the_eager_one(monkeypatch, capsys):
    # from an empty template dict, the first answer builds each template and
    # the second copies it; both answer as the eager parser does
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(cli, "_TEMPLATES", {})
    answers = [[(main(argv), *capsys.readouterr()) for argv in _CORPUS] for _ in range(2)]
    assert sorted(cli._TEMPLATES) == sorted(f"equibundle {name}" for name in _CALLS)
    monkeypatch.setattr(cli, "_build_parser", _build_parser_eagerly)
    eager = [(main(argv), *capsys.readouterr()) for argv in _CORPUS]
    assert answers == [eager, eager]


def test_each_subcommand_adds_its_arguments_once_per_process(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(cli, "_TEMPLATES", {})
    added = {name: 0 for name in _CALLS}

    def counted(name, add_arguments):
        def add(parser):
            added[name] += 1
            add_arguments(parser)

        return add

    monkeypatch.setattr(
        cli,
        "_SUBCOMMANDS",
        tuple((name, h, counted(name, add), handler) for name, h, add, handler in cli._SUBCOMMANDS),
    )
    # the top-level help and an unknown subcommand parse no subcommand
    assert [main(argv) for argv in (["-h"], ["bogus"], ["che", TRIPLE])] == [0, 2, 2]
    assert cli._TEMPLATES == {} and set(added.values()) == {0}
    for _ in range(3):
        for valid, missing, bad in _CALLS.values():
            for argv in (valid, missing, bad, [valid[0], "-h"]):
                main(argv)
    capsys.readouterr()
    assert added == {name: 1 for name in _CALLS}


@pytest.mark.parametrize(
    "first, then, dest, default",
    [
        (["check", TRIPLE, "--mode", "gsign"], ["check", TRIPLE], "mode", "rotation"),
        ([*EXPAND, "--order", "80"], EXPAND, "order", 4),
        ([*EXPAND, "--machine"], EXPAND, "machine", False),
    ],
)
def test_a_parse_leaves_the_shared_actions_as_they_were(first, then, dest, default, monkeypatch):
    # every call's subparser holds the template's actions, not copies of them
    monkeypatch.setattr(cli, "_TEMPLATES", {})

    def parsed(argv):
        return getattr(cli._build_parser().parse_args(argv), dest)

    for _ in range(2):
        assert parsed(first) != default
        assert parsed(then) == default
