import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from entry_cases import INT_ONLY, OVERLONG, digit_limit, needs_digit_limit
import liederiv
from liederiv import cli, derivations, lie, parabolic
from liederiv.cli import _build_parser, _json, main
from liederiv.lie import ad_matrix
from liederiv.linalg import Q, integer
from liederiv.parabolic import build_standard_parabolic, compositions

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_describe_golden_json(capsys):
    code, out, err = run(capsys, "describe", "--n", "6", "--blocks", "3,2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 25
    assert payload["delta_prime"] == [1, 2, 4]
    assert payload["c_dim"] == 2
    assert payload["t_dim"] == 3
    assert payload["levi_dim"] == 13
    assert payload["nilradical_dim"] == 11
    assert set(payload["subspaces"]) >= {"g_z", "c", "t", "derived", "levi", "nilradical"}
    assert payload["basis"][0] == "I"
    # rationals on the wire are strings like "1" or "-1"
    assert payload["subspaces"]["c"][0][payload["basis"].index("H[3]")] == "1"


def test_describe_whole_gl2(capsys):
    code, out, _ = run(capsys, "describe", "--n", "2", "--blocks", "2")
    assert code == 0
    assert json.loads(out)["dim"] == 4


def test_describe_bad_composition(capsys):
    code, _, err = run(capsys, "describe", "--n", "6", "--blocks", "4,3")
    assert code == 2
    assert "sum" in err


def test_describe_text(capsys):
    code, out, _ = run(capsys, "describe", "--n", "3", "--blocks", "2,1", "--format", "text")
    assert code == 0
    assert "delta_prime" in out


def test_der_golden(capsys):
    code, out, _ = run(capsys, "der", "--n", "6", "--blocks", "3,2,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["der_dim"] == 27
    assert payload["l_dim"] == 3
    assert payload["inner_dim"] == 24
    assert payload["h1_dim"] == 3
    assert payload["formula_dim"] == 27
    assert payload["formula_ok"] is True


def test_der_borel_gl3(capsys):
    code, out, _ = run(capsys, "der", "--n", "3", "--blocks", "1,1,1")
    assert code == 0
    assert json.loads(out)["der_dim"] == 8


def test_der_whole_gl2(capsys):
    code, out, _ = run(capsys, "der", "--n", "2", "--blocks", "2")
    assert code == 0
    assert json.loads(out)["der_dim"] == 4


@pytest.mark.parametrize("blocks", ["8", "1,1,1,1,1,1,1,1"])
def test_der_n8_closed_forms(capsys, blocks):
    # whole gl_8 and its Borel, the two ends of n = 8: r blocks of sizes b
    # give dim q = n + n(n-1)/2 + sum b(b-1)/2, and Der q = (r center-valued
    # maps) + ad q, with ad q of dimension dim q - 1
    sizes = [int(b) for b in blocks.split(",")]
    r = len(sizes)
    q_dim = 8 + 8 * 7 // 2 + sum(b * (b - 1) // 2 for b in sizes)
    code, out, _ = run(capsys, "der", "--n", "8", "--blocks", blocks)
    assert code == 0
    payload = json.loads(out)
    assert payload["der_dim"] == payload["formula_dim"] == q_dim - 1 + r
    assert payload["l_dim"] == payload["h1_dim"] == r
    assert payload["inner_dim"] == q_dim - 1
    assert payload["formula_ok"] is True


def test_der_text_has_block_grid(capsys):
    code, out, _ = run(capsys, "der", "--n", "3", "--blocks", "1,1,1", "--format", "text")
    assert code == 0
    assert "block form" in out
    assert "derived(3)" in out


def test_decompose_inner(tmp_path, capsys, borel3_q):
    q = borel3_q
    pos = q.root_index[(1, 2)]
    D = ad_matrix(q.algebra, {pos: 1})
    payload = {
        "dim": q.dim,
        "matrix": [[str(e) for e in row] for row in D.dense_rows()],
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "decompose", "--n", "3", "--blocks", "1,1,1",
                       "--input", str(path))
    assert code == 0
    result = json.loads(out)
    assert all(all(e == "0" for e in row) for row in result["l_part"])
    p = result["p"]
    assert p[pos] == "1" and all(e == "0" for i, e in enumerate(p) if i != pos)


def test_decompose_center_valued_map(tmp_path, capsys):
    # on the gl_2 Borel {I, h1, e12}: I -> I, h1 -> 0, e12 -> 0
    matrix = [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
    path = tmp_path / "l.json"
    path.write_text(json.dumps({"dim": 3, "matrix": matrix}))
    code, out, _ = run(capsys, "decompose", "--n", "2", "--blocks", "1,1",
                       "--input", str(path))
    assert code == 0
    result = json.loads(out)
    assert result["l_part"] == matrix
    assert result["p"] == ["0", "0", "0"]


def test_decompose_rejects_non_derivation(tmp_path, capsys):
    matrix = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 3, "matrix": matrix}))
    code, _, err = run(capsys, "decompose", "--n", "2", "--blocks", "1,1",
                       "--input", str(path))
    assert code == 4
    assert "(1, 2)" in err


def test_decompose_dimension_mismatch(tmp_path, capsys):
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps({"dim": 2, "matrix": [["0", "0"], ["0", "0"]]}))
    code, _, err = run(capsys, "decompose", "--n", "2", "--blocks", "1,1",
                       "--input", str(path))
    assert code == 2


# Malformed decompose inputs for the gl_2 Borel {I, h1, e12} (dim 3); the
# entry cases replace the entry at row 1, column 2 of a valid matrix.
_TOP_LEVEL_LIST = '[[1, 0, 0], [0, 0, 0], [0, 0, 0]]'
_ENTRY_TEXT = '{"dim": 3, "matrix": [[1, 0, 0], [0, 0, %s], [0, 0, 0]]}'


@pytest.mark.parametrize(
    "text, where",
    [
        (_TOP_LEVEL_LIST, None),
        (_ENTRY_TEXT % '"1/0"', "at row 1, column 2"),
        (_ENTRY_TEXT % "null", "at row 1, column 2"),
        (_ENTRY_TEXT % "[1]", "at row 1, column 2"),
        (_ENTRY_TEXT % "1e400", "at row 1, column 2"),
        (_ENTRY_TEXT % "0.5", "at row 1, column 2"),
        (_ENTRY_TEXT % "true", "at row 1, column 2"),
        ('{"dim": 3, "matrix": 5}', None),
        ('{"dim": 3, "matrix": [[1, 0, 0], "000", [0, 0, 0]]}', "at row 1"),
        ("[" * 100000 + "]" * 100000, None),
        (_ENTRY_TEXT % '"0.5"', "at row 1, column 2"),
        (_ENTRY_TEXT % '"1e5"', "at row 1, column 2"),
        (_ENTRY_TEXT % '" 7 "', "at row 1, column 2"),
        (_ENTRY_TEXT % '"1_0"', "at row 1, column 2"),
        (_ENTRY_TEXT % '"\\u0663"', "at row 1, column 2"),  # an Arabic-Indic digit
        # each distinct string is parsed once: a bad one is named at its
        # first place, and strings seen before do not hide a new bad one
        ('{"dim": 3, "matrix": [[0, "1/0", 0], [0, 0, "1/0"], [0, 0, 0]]}',
         "at row 0, column 1"),
        ('{"dim": 3, "matrix": [["0", "0", "0"], ["0", "0", "0.5"], ["0", "0", "0"]]}',
         "at row 1, column 2"),
        # zero-valued entries that are not exact zeros
        (_ENTRY_TEXT % "0.0", "at row 1, column 2"),
        (_ENTRY_TEXT % "-0.0", "at row 1, column 2"),
        (_ENTRY_TEXT % "false", "at row 1, column 2"),
        (_ENTRY_TEXT % '"0.0"', "at row 1, column 2"),
    ],
    ids=["list", "zero-denominator", "null", "nested-list", "overflow", "float",
         "bool", "matrix-not-list", "row-string", "deep-nesting", "decimal-string",
         "exponent-string", "padded-string", "underscore-string", "non-ascii-digit",
         "repeated-zero-denominator", "decimal-after-zeros", "float-zero",
         "negative-float-zero", "false", "decimal-zero-string"],
)
def test_decompose_rejects_malformed_input(tmp_path, capsys, text, where):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "decompose", "--n", "2", "--blocks", "1,1",
                         "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    if where is not None:
        assert err.rstrip().endswith(where)


def test_decompose_mixed_int_and_string_entries(tmp_path, capsys):
    # JSON integers and integral strings read alike: turning the integral
    # strings at odd i + j of a golden input into JSON integers keeps the payload
    data = Path(__file__).parent / "data"
    payload = json.loads((data / "decompose-0.in.json").read_text())
    payload["matrix"] = [[int(e) if (i + j) % 2 and "/" not in e else e
                          for j, e in enumerate(row)] for i, row in enumerate(payload["matrix"])]
    assert any(type(e) is int for row in payload["matrix"] for e in row)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "decompose", "--n", "6", "--blocks", "3,2,1",
                         "--input", str(path))
    assert (code, err) == (0, "")
    assert out == (data / "decompose-0.out.json").read_text()


@pytest.mark.parametrize("zero", ['0', '"-0"', '"00"', '"0/5"'])
def test_decompose_zero_spellings_read_alike(tmp_path, capsys, zero):
    # every exact spelling of zero gives the payload of "0"
    payloads = []
    for entry in ('"0"', zero):
        path = tmp_path / "z.json"
        path.write_text(_ENTRY_TEXT.replace("[1, 0, 0]", "[1, %s, 0]" % entry) % entry)
        code, out, err = run(capsys, "decompose", "--n", "2", "--blocks", "1,1",
                             "--input", str(path))
        assert (code, err) == (0, "")
        payloads.append(out)
    assert payloads[0] == payloads[1]
    assert json.loads(payloads[0])["l_part"] == [["1", "0", "0"], ["0", "0", "0"],
                                                 ["0", "0", "0"]]


def _respelled(e: str, how: str):
    """An integer entry string written another way: as a JSON int, or
    with leading zeros ("7" as "007", "-7" as "-007", "0" as "-0"); a
    rational string as it is."""
    if "/" in e:
        return e
    if how == "json-int":
        return int(e)
    return "-0" if e == "0" else "-00" + e[1:] if e[0] == "-" else "00" + e


@pytest.mark.parametrize("how", ["json-int", "leading-zeros"])
def test_decompose_integer_spellings_read_alike(tmp_path, capsys, how):
    # each integer string of golden input 0, written as a JSON int or with
    # leading zeros, reads as it did, so the payload is the same
    payload = json.loads((DATA / "decompose-0.in.json").read_text())
    payload["matrix"] = [[_respelled(e, how) for e in row] for row in payload["matrix"]]
    path = tmp_path / "respelled.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "decompose", "--n", "6", "--blocks", "3,2,1",
                         "--input", str(path))
    assert (code, err) == (0, "")
    assert out == (DATA / "decompose-0.out.json").read_text()


@pytest.mark.parametrize("entry", INT_ONLY)
def test_decompose_refuses_integer_strings_that_only_int_reads(tmp_path, capsys, entry):
    # int() reads each of these (a non-ASCII digit, an underscore, a sign or
    # blank), so the reader's int path must not: each is refused as a string
    # that is no rational, at its place
    assert int(entry) in (3, 7, 10)
    path = tmp_path / "bad.json"
    path.write_text(_ENTRY_TEXT % json.dumps(entry))
    code, out, err = run(capsys, "decompose", "--n", "2", "--blocks", "1,1",
                         "--input", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: entry {json.dumps(entry)} is not an integer or a rational string "
                   "at row 1, column 2\n")


@needs_digit_limit
@pytest.mark.parametrize("sign", ["", "-"])
def test_decompose_refuses_an_integer_string_over_the_digit_limit(tmp_path, capsys, sign):
    # int() refuses a string of more digits than the interpreter's limit,
    # so rational refuses it with the message and exit code of any other
    # entry it cannot read
    entry = sign + OVERLONG
    path = tmp_path / "long.json"
    path.write_text(_ENTRY_TEXT % json.dumps(entry))
    with digit_limit():
        code, out, err = run(capsys, "decompose", "--n", "2", "--blocks", "1,1",
                             "--input", str(path))
    assert (code, out) == (2, "")
    assert err == (f'error: entry "{entry}" is not an integer or a rational string '
                   "at row 1, column 2\n")


def test_decompose_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO((DATA / "decompose-0.in.json").read_text()))
    code, out, err = run(capsys, "decompose", "--n", "6", "--blocks", "3,2,1", "--input", "-")
    assert (code, err) == (0, "")
    assert out == (DATA / "decompose-0.out.json").read_text()


def test_verify_rejects_negative_rounds(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "2", "--rounds", "-3")
    assert code == 2
    assert out == "" and "--rounds" in err


def test_verify_small(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4", "--seed", "1", "--rounds", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"cases": 15, "all_ok": True}
    assert all(c["ok"] for c in payload["cases"])


def test_verify_single_case(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "1", "--rounds", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["cases"] == 1
    assert payload["cases"][0]["der_dim"] == 1


def test_verify_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--max-n", "3", "--seed", "42", "--rounds", "4")
    _, second, _ = run(capsys, "verify", "--max-n", "3", "--seed", "42", "--rounds", "4")
    assert first == second


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "2", "--rounds", "1",
                       "--format", "text")
    assert code == 0
    assert "all_ok: True" in out


def test_h1_golden(capsys):
    code, out, _ = run(capsys, "h1", "--n", "6", "--blocks", "3,2,1")
    assert code == 0
    assert json.loads(out)["h1_dim"] == 3


def test_der_with_extra_center(capsys):
    code, out, _ = run(capsys, "der", "--n", "2", "--blocks", "2", "--extra-center", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["der_dim"] == 7
    assert payload["formula_ok"] is True


def test_usage_error_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_usage_errors_exit_2_around_other_calls(capsys):
    # the parser is built once per process; a usage error before or after a
    # good call still exits 2, and the good call is unaffected
    assert _build_parser() is _build_parser()
    for argv in (["describe", "--n", "3"], ["frobnicate"], ["verify", "--rounds", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert run(capsys, "der", "--n", "2", "--blocks", "2")[0] == 0


@pytest.mark.parametrize("argv", [
    ["h1", "--n", "12", "--blocks", "1_2"],
    ["h1", "--n", "3", "--blocks", " 2, +1"],
    ["h1", "--n", "3", "--blocks", "\u0663"],
    ["h1", "--n", "\u0663", "--blocks", "3"],
    ["h1", "--n", "1_2", "--blocks", "12"],
    ["der", "--n", " 3", "--blocks", "3"],
    ["der", "--n", "3", "--blocks", "3", "--extra-center", "+1"],
    ["verify", "--max-n", "\u0662", "--rounds", "0"],
    ["verify", "--max-n", "1", "--seed", "1_0"],
    ["verify", "--max-n", "1", "--rounds", "1\n"],
], ids=["underscore-block", "padded-signed-blocks", "arabic-indic-block", "arabic-indic-n",
        "underscore-n", "padded-n", "plus-extra-center", "arabic-indic-max-n",
        "underscore-seed", "newline-rounds"])
def test_command_line_integers_are_ascii(capsys, argv):
    # every integer on the command line is read as -?[0-9]+, the rule of
    # the matrix reader; Python's int() would take each of these
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "cannot parse composition" in err or "invalid integer value" in err


def test_command_line_negative_integers_keep_their_meaning(capsys):
    assert run(capsys, "verify", "--max-n", "1", "--seed", "-5", "--rounds", "1")[0] == 0
    code, out, err = run(capsys, "der", "--n", "2", "--blocks", "2", "--extra-center", "-1")
    assert (code, out) == (2, "")
    assert "nonnegative" in err


def test_parser_shares_no_state_between_calls(capsys):
    first = vars(_build_parser().parse_args(
        ["der", "--n", "3", "--blocks", "2,1", "--extra-center", "2", "--format", "text"]))
    second = vars(_build_parser().parse_args(["verify"]))
    assert first == {"command": "der", "n": 3, "blocks": "2,1", "extra_center": 2,
                     "format": "text"}
    assert second == {"command": "verify", "max_n": 5, "seed": 0, "rounds": 20,
                      "format": "json"}
    # a subcommand's defaults hold after another call set the same options
    _, seeded, _ = run(capsys, "verify", "--max-n", "3", "--seed", "0", "--rounds", "2")
    run(capsys, "verify", "--max-n", "2", "--seed", "9", "--rounds", "1", "--format", "text")
    _, default, _ = run(capsys, "verify", "--max-n", "3", "--rounds", "2")
    assert default == seeded
    run(capsys, "describe", "--n", "2", "--blocks", "1,1", "--extra-center", "1")
    code, out, _ = run(capsys, "describe", "--n", "2", "--blocks", "1,1")
    assert code == 0 and json.loads(out)["extra_center"] == 0


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.json")))
def test_writer_matches_json_dumps_on_goldens(name):
    obj = json.loads((DATA / name).read_text())
    assert _json(obj) == json.dumps(obj, indent=2)


def _repeat_by_reference(x, others, picks):
    """A list holding x itself wherever picks is True, else the next of others."""
    rest = iter(others)
    return [x if p else next(rest, x) for p in picks]


ROW = ["0", "0", "0"]
DEEP = {"k": [1, None]}


@pytest.mark.parametrize("obj", [
    [ROW, ROW, ROW],
    [None, None, 1],
    [1, True, 1, True, int("1"), True],
    [0, False, 0, False, None],
    [ROW, ["0", "1", "0"], ROW, ROW],
    [[DEEP, DEEP], [DEEP], {"a": DEEP, "b": [DEEP, DEEP]}],
    _repeat_by_reference(None, [0, False], [True, True, False, True, False, True]),
], ids=["repeated-list", "leading-none", "one-and-true", "zero-and-false",
        "repeat-after-other", "nested-dict", "none-between-falsy"])
def test_writer_reuses_text_only_for_the_same_object(obj):
    assert _json(obj) == json.dumps(obj, indent=2)


def test_property_writer_matches_json_dumps():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    text = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
        ['"', "\\", "\x00\x1f\x7f", "\u2028", "\U0001f600", "caf\u00e9", ""])
    # 0 and 1 are drawn often, so that they sit beside False and True
    scalar = (st.none() | st.booleans() | st.integers(0, 1) | st.integers()
              | st.integers(-10 ** 40, -10 ** 30) | text)
    # some lists hold one drawn element several times, by reference, between others
    tree = st.recursive(scalar, lambda kids: st.lists(kids, max_size=4)
                        | st.builds(_repeat_by_reference, kids, st.lists(kids, max_size=3),
                                    st.lists(st.booleans(), min_size=1, max_size=5))
                        | st.dictionaries(text, kids, max_size=4), max_leaves=20)

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(tree)
    def check(obj):
        assert _json(obj) == json.dumps(obj, indent=2)

    check()
    assert _json({"a": [], "b": {}, "c": [[]]}) == json.dumps({"a": [], "b": {}, "c": [[]]},
                                                               indent=2)


@pytest.mark.parametrize("value", [0.5, Q(1, 2), 1.0, (1,)], ids=["float", "fraction",
                                                                  "integral-float", "tuple"])
def test_writer_rejects_other_values(value):
    for obj in (value, [value], ["0", value], {"k": value}, [[value]], {1: "0"}):
        with pytest.raises(TypeError):
            _json(obj)


LEVI_CENTER_ERROR = "Levi center does not complement the derived algebra"


def test_describe_invariant_failure_exits_3(monkeypatch, capsys):
    # a failed invariant check of adapted_subspaces is a RuntimeError, which
    # main reports as one line with exit code 3, as a DecompositionError is
    def broken(q):
        raise RuntimeError(LEVI_CENTER_ERROR)

    monkeypatch.setattr(cli, "adapted_subspaces", broken)
    assert run(capsys, "describe", "--n", "3", "--blocks", "2,1") == (
        3, "", f"error: {LEVI_CENTER_ERROR}\n")


def test_der_build_invariant_failure_exits_3(monkeypatch, capsys):
    # the build checks that q splits as center + c + derived
    monkeypatch.setattr(parabolic, "_partition", lambda parts, whole: False)
    assert run(capsys, "der", "--n", "3", "--blocks", "2,1") == (
        3, "", "error: algebra does not split as center + c + derived\n")


def _without_e13(args):
    # the fault of test_l_closure_witness_names_the_place_in_the_derived_set:
    # only the l_closure check fails, the formula and the direct sum hold
    q = parabolic.build_standard_parabolic((2, 1))
    q.derived_indices = tuple(p for p in q.derived_indices if p != q.root_index[(1, 3)])
    return q


@pytest.mark.parametrize("fmt, fault", [("json", "formula"), ("text", "formula"),
                                        ("json", "l_closure"), ("text", "l_closure")],
                         ids=["json", "text", "json-l_closure", "text-l_closure"])
def test_h1_exits_with_der_code_on_a_formula_mismatch(monkeypatch, capsys, fmt, fault):
    # h1 prints a part of der's payload, and exits with der's code: 3 when
    # any check of verify_main_theorem fails, the dimension formula or a
    # closure, with the payload still printed
    argv = ["--n", "3", "--blocks", "2,1", "--format", fmt]
    expected = run(capsys, "h1", *argv)[1]
    if fault == "formula":
        monkeypatch.setattr(derivations, "formula_dim", lambda q: -1)
    else:
        monkeypatch.setattr(cli, "_parabolic", _without_e13)
    code, out, err = run(capsys, "der", *argv)
    assert code == 3
    assert err == "" and "h1_dim" in out
    assert run(capsys, "h1", *argv) == (3, expected, "")


def _decompose_failing_every_second_round(monkeypatch):
    # round 0 of each case splits, round 1 raises
    calls = []
    real = cli.constructive_decompose

    def decompose(q, D):
        calls.append(q)
        if len(calls) % 2 == 0:
            raise derivations.DecompositionError("residual map is wrong", {})
        return real(q, D)

    monkeypatch.setattr(cli, "constructive_decompose", decompose)


def test_verify_reports_a_round_that_raises(monkeypatch, capsys):
    _decompose_failing_every_second_round(monkeypatch)
    code, out, err = run(capsys, "verify", "--max-n", "2", "--rounds", "3")
    assert (code, err) == (3, "")
    payload = json.loads(out)
    assert payload["summary"] == {"cases": 3, "all_ok": False}
    for case in payload["cases"]:
        assert case["decompose_ok"] is False and case["ok"] is False
        assert case["direct_sum_ok"] and case["formula_ok"]
        assert case["witness"] == {"kind": "decompose", "round": 1,
                                   "error": "residual map is wrong"}


def test_verify_witness_is_the_theorem_counterexample_first(monkeypatch, capsys):
    # a case that fails both the theorem check and a round names the
    # theorem check's counterexample
    _decompose_failing_every_second_round(monkeypatch)
    monkeypatch.setattr(derivations, "formula_dim", lambda q: -1)
    code, out, err = run(capsys, "verify", "--max-n", "1", "--rounds", "2")
    assert (code, err) == (3, "")
    [case] = json.loads(out)["cases"]
    assert case["decompose_ok"] is False and case["formula_ok"] is False
    assert case["witness"] == {"kind": "formula", "expected": -1, "oracle": 1}


@pytest.mark.parametrize("max_n", ["21", "9" * 20])
def test_verify_refuses_an_oversized_sweep_before_it_starts(capsys, monkeypatch, max_n):
    # the sweep's largest q is gl_max_n, of dim max_n^2; the build's size
    # check refuses it before the first case runs
    def no_case(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "_verify_case", no_case)
    assert run(capsys, "verify", "--max-n", max_n) == (
        2, "", f"error: dim q = {int(max_n) ** 2} is above the limit of 400\n")


def test_verify_rejects_max_n_0(capsys):
    assert run(capsys, "verify", "--max-n", "0") == (
        2, "", "error: --max-n must be at least 1\n")


def test_decompose_checks_its_map_once(monkeypatch, capsys):
    # the reader's flat map enters the integers through one door call,
    # EndoMatrix.from_flat's require_vector, and the split makes no other
    real = lie.require_vector
    calls = []

    def counted(v, bound, name):
        calls.append(name)
        return real(v, bound, name)

    monkeypatch.setattr(lie, "require_vector", counted)
    code, out, _ = run(capsys, "decompose", "--n", "6", "--blocks", "3,2,1",
                       "--input", str(DATA / "decompose-0.in.json"))
    assert code == 0 and out == (DATA / "decompose-0.out.json").read_text()
    assert calls == ["flat"]


def test_decompose_rejects_a_float_dim(tmp_path, capsys):
    path = tmp_path / "float-dim.json"
    path.write_text('{"dim": 3.0, "matrix": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}')
    assert run(capsys, "decompose", "--n", "2", "--blocks", "1,1", "--input", str(path)) == (
        2, "", "error: input dim must be an integer\n")


_HUGE = "99999999999999999999"


@pytest.mark.parametrize("argv", [
    ["der", "--n", "2", "--blocks", "2", "--extra-center", _HUGE],
    ["der", "--n", _HUGE, "--blocks", _HUGE],
], ids=["extra-center", "n"])
def test_over_limit_exits_2_in_bounded_time(argv):
    # out of process with a timeout, so a build that is not bounded before
    # it allocates fails here instead of hanging the suite
    env = {**os.environ, "PYTHONPATH": str(Path(liederiv.__file__).resolve().parent.parent)}
    r = subprocess.run([sys.executable, "-m", "liederiv.cli", *argv], capture_output=True,
                       env=env, timeout=20)
    assert (r.returncode, r.stdout) == (2, b"")
    assert re.fullmatch(rb"error: dim q = [0-9]+ is above the limit of [0-9]+\n", r.stderr)


# bad command-line values: malformed strings and, where the cost does not
# grow with the value, the over-limit size
_MALFORMED = ["", "x", "1.5", "+1", "1_0", "\u0663", "1e3"]
_BAD = {
    "--n": [_HUGE, "0", *_MALFORMED],
    "--blocks": [_HUGE, "0", "5", "1,", ",", *_MALFORMED],
    "--extra-center": [_HUGE, "-1", *_MALFORMED],
    "--format": ["xml"],
    "--input": ["missing.json"],
    "--max-n": ["0", "-1", *_MALFORMED],
    "--seed": _MALFORMED,
    "--rounds": ["-1", *_MALFORMED],
}
_COMMON = ("--n", "--blocks", "--extra-center", "--format")
_OPTIONS = {"describe": _COMMON, "der": _COMMON, "h1": _COMMON,
            "decompose": (*_COMMON, "--input"),
            "verify": ("--max-n", "--seed", "--rounds", "--format")}


def _often(st, usual, other):
    """A draw from usual nine times in ten, else one from other (one_of
    would weigh each value of a sampled other alike with usual)."""
    return st.sampled_from([True] * 9 + [False]).flatmap(lambda keep: usual if keep else other)


def _argv(st, data) -> list[str]:
    """A command with each of its options given a small valid value, a bad
    one or left out, and at times one option another command takes."""
    command = data.draw(st.sampled_from(sorted(_OPTIONS)))
    n = data.draw(st.sampled_from([1, 2, 3, 4]))
    valid = {
        "--n": str(n),
        "--blocks": ",".join(map(str, data.draw(st.sampled_from(list(compositions(n)))))),
        "--extra-center": str(data.draw(st.integers(0, 2))),
        "--format": data.draw(st.sampled_from(["json", "text"])),
        "--input": "-",
        "--max-n": str(data.draw(st.integers(1, 3))),
        "--seed": data.draw(st.sampled_from(["-3", "0", "5", _HUGE])),
        "--rounds": str(data.draw(st.integers(0, 2))),
    }
    argv = [command]
    for option in _OPTIONS[command]:
        value = data.draw(_often(st, st.just(valid[option]),
                                 st.sampled_from([*_BAD[option], None])))
        if option == "--blocks" and argv[-1] == _HUGE:
            value = _HUGE  # the one composition of the over-limit n
        if value is not None:
            argv += [option, value]
    others = sorted(_BAD.keys() - _OPTIONS[command])
    if stray := data.draw(_often(st, st.none(), st.sampled_from(others))):
        argv += [stray, valid[stray]]
    return argv


def _decompose_text(st, data, argv) -> str:
    """A decompose input for the parabolic argv names: a matrix of its dim
    (3 if argv names none) with a few entries set to a drawn value, then
    perhaps a wrong dim, a ragged row or a document that is no such object."""
    values = dict(zip(argv[1::2], argv[2::2]))
    try:
        n = integer(values["--n"])
        blocks = [integer(b) for b in values["--blocks"].split(",")]
        if sum(blocks) != n:
            raise ValueError(f"blocks {blocks} do not sum to n={n}")
        d = build_standard_parabolic(blocks, extra_center=integer(values.get("--extra-center",
                                                                             "0"))).dim
    except (KeyError, ValueError):
        d = 3
    entry = _often(st, st.sampled_from([1, -2, 3, 0, "1/2", "-3/4", "0", "-0"]),
                   st.sampled_from(["1/0", "0.5", "1e2", " 7 ", "x", 0.5, 0.0, 1.0,
                                    float("nan"), True, False, None, [1], {}]))
    matrix = [[0] * d for _ in range(d)]
    # I -> x_(d - 1), no derivation unless x_(d - 1) is central (n = 1)
    matrix[d - 1][0] = data.draw(st.sampled_from([1, 0]))
    place = st.sampled_from(range(d))
    for i, j, e in data.draw(st.lists(st.tuples(place, place, entry), max_size=3)):
        matrix[i][j] = e
    if data.draw(_often(st, st.just(False), st.just(True))):
        row = matrix[data.draw(place)]  # made ragged
        if data.draw(st.booleans()):
            row.pop()
        else:
            row.append(0)
    dim = data.draw(_often(st, st.just(d), st.sampled_from([d + 1, 3.0, True, None, "3"])))
    return data.draw(_often(st, st.just(json.dumps({"dim": dim, "matrix": matrix})),
                            st.sampled_from(["", "{", "[]", "null", '{"dim": 3}'])))


def test_an_internal_key_error_is_not_a_usage_error(monkeypatch, capsys):
    # exit 2 is for input the caller can fix; a KeyError raised inside the
    # library is a fault, and main lets it propagate
    def fail(L):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "derivation_algebra", fail)
    with pytest.raises(KeyError, match="internal"):
        main(["der", "--n", "3", "--blocks", "2,1"])
    assert capsys.readouterr().err == ""


def test_property_every_input_ends_with_a_documented_exit_code(monkeypatch, capsys):
    # each command with generated options and decompose input ends with
    # exit 0, 2, 3 or 4 (argparse's usage error is SystemExit(2)), raises
    # nothing else, and prints nothing on stdout after an error
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    monkeypatch.chdir(DATA)
    seen = set()

    @hyp.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hyp.given(st.data())
    def check(data):
        argv = _argv(st, data)
        stdin = _decompose_text(st, data, argv) if argv[0] == "decompose" else ""
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, _ = capsys.readouterr()
        assert code in (0, 2, 3, 4), argv
        if code in (2, 4):
            assert out == "", argv
        seen.add(code)

    check()
    assert seen >= {0, 2, 4}  # the inputs reach success, usage error and non-derivation
