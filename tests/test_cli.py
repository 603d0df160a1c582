import json

import pytest

from liederiv.cli import main
from liederiv.lie import ad_matrix


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
    ],
    ids=["list", "zero-denominator", "null", "nested-list", "overflow", "float",
         "bool", "matrix-not-list", "row-string", "deep-nesting", "decimal-string",
         "exponent-string", "padded-string", "underscore-string", "non-ascii-digit"],
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
