"""Byte-for-byte CLI output pinned by golden files in tests/data.

``tests/data/golden.json`` lists the golden commands, one object each: the
argv (run in tests/data), an optional file fed to stdin, the exit code, the
file holding stdout and an optional file holding stderr, which must be
empty where none is named. A named test below finds its one entry by the
entry's stderr file if it names one, else by its stdout file (``_entry``).
CI diffs the same list through the installed console script. The files
hold the output of earlier runs of the commands:
``verify --max-n 4 --seed 1 --rounds 3`` as JSON and text, and
``verify --max-n 6 --rounds 0`` and ``verify --max-n 7 --rounds 0``, which
take all 63 and all 127 compositions through the theorem check and no
decomposition round, as JSON, and ``verify --max-n 8 --rounds 0``, the same
for all 255 compositions of n <= 8, as text; ``verify --max-n 5
--rounds 20``, which also splits 20 random derivations of each of the 31
compositions constructively, as JSON, and ``verify --max-n 6 --rounds 20``,
the same for all 63 compositions of n <= 6, as JSON; ``decompose``
on gl_6 with blocks 3,2,1 for six seeded derivations (random integer
combinations of the oracle basis, seed 2026; input 1 writes integral entries
as JSON integers, input 5 is divided by 7), for input 0 read from stdin,
and for one derivation perturbed by the map I -> x_10, which must exit 4,
for input 0 with the entry "1/0" at row 1, column 2, which must exit 2
with one error line naming the entry and its place, and for input 0 with
``--format text``, which prints the same JSON;
``decompose`` on gl_5 with blocks 2,3 and one extra central generator for
a seeded derivation divided by 6, whose entries are rational strings (odd
n, so the split's common denominator lcm(2, n) den is 2n den);
``der`` for gl_2 with 99999999999999999999 extra central generators, a q
above the size limit, which must exit 2 with one error line before it
builds anything;
five requests whose composition the CLI refuses, each with exit 2 and
one error line, which pin the order of its checks: ``der --n 0 --blocks
1`` (n below 1), ``der --n 4 --blocks 0,3`` (a block below 1, refused
before the sum), ``der --n 2 --blocks 99999999`` (the sum, refused before
the size limit), ``der --n 3 --blocks 1,,2`` (a block that is no integer)
and ``decompose --n 4 --blocks 2,1 --input decompose-0.in.json`` (the
sum, refused before the input is read);
and ``describe`` as JSON for gl_6
with blocks 3,2,1 and one extra central generator, for the Borel of gl_5,
for gl_4 with blocks 1,2,1 and two extra central generators, whose
Levi center differs from c, and for gl_5 with blocks 2,3, whose Levi center
row holds entries that are not integers (4/3 and 2/3), all four with the
"sc" list and the subspace bases (the Levi center among them) that come
from the structure-constant table and ``adapted_subspaces``, and as text
for gl_6 with blocks 3,2,1;
and ``der`` and ``h1`` as JSON and
text for gl_6 with blocks 3,2,1, and ``der`` as JSON for the whole gl_10
(blocks 10), where the oracle
eliminates only the weight-0 block, for the whole gl_20 (blocks 20), where
the oracle's cut to the pairs that meet the build's generators saves the
most rows (1,426 fed against 18,240), for the Borel of gl_8 (blocks
1,1,1,1,1,1,1,1), the finest grading, for the Borel of gl_16, where that cut
feeds 436 Leibniz rows, for gl_6 with blocks 3,2,1 and two
extra central generators, where the grading element is not unique (any
central element can be added to it), and for gl_1 with 399 extra central
generators, the largest q the size limit lets in, where every map is a
derivation of weight 0: the oracle writes all 160,000 rows of Der q
directly, and the theorem check compares them with the 160,000 units of
the center-valued maps.
Any change to these bytes is a change to the output contract.
"""

import io
import json
from pathlib import Path

import pytest

from liederiv import cli, parabolic
from liederiv.cli import main

DATA = Path(__file__).parent / "data"
DECOMPOSE = ["decompose", "--n", "6", "--blocks", "3,2,1", "--input"]
GOLDEN = json.loads((DATA / "golden.json").read_text())
_named: set[int] = set()  # positions in GOLDEN of the entries a named test runs


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


def _check(capsys, monkeypatch, entry):
    monkeypatch.chdir(DATA)
    if "stdin" in entry:
        monkeypatch.setattr("sys.stdin", io.StringIO((DATA / entry["stdin"]).read_text()))
    err = (DATA / entry["stderr"]).read_bytes() if "stderr" in entry else b""
    assert run(capsys, entry["argv"]) == (entry["exit"], (DATA / entry["stdout"]).read_bytes(), err)


def _entry(golden):
    """The manifest entry, reading no stdin, whose stderr file is golden or,
    naming no stderr file, whose stdout file is; it asks for ``--format
    text`` only if golden is a text file (decompose prints JSON either way)."""
    [t] = [t for t, e in enumerate(GOLDEN) if e.get("stderr", e["stdout"]) == golden
           and "stdin" not in e and ("text" not in e["argv"] or golden.endswith(".txt"))]
    _named.add(t)
    return GOLDEN[t]


def _named_test(golden):
    entry = _entry(golden)
    return lambda capsys, monkeypatch: _check(capsys, monkeypatch, entry)


def _named_tests(by_id):
    """One test over the entries of the golden files of by_id, pytest id ->
    file."""
    entries = [_entry(golden) for golden in by_id.values()]

    @pytest.mark.parametrize("entry", entries, ids=list(by_id))
    def test(capsys, monkeypatch, entry):
        _check(capsys, monkeypatch, entry)
    return test


# the goldens that have a named test keep its id; test_golden_command runs
# every other entry of the manifest
test_verify_stdout_matches_golden = _named_tests(
    {"json-json": "verify-n4-s1-r3.json", "text-txt": "verify-n4-s1-r3.txt"})
test_verify_theorem_checks_to_n6_match_golden = _named_test("verify-n6-s0-r0.json")
test_verify_constructive_rounds_to_n5_match_golden = _named_test("verify-n5-s0-r20.json")
test_describe_stdout_matches_golden = _named_tests({
    f"argv{t}-{name}": name for t, name in enumerate([
        "describe-n6-b321-z1.json", "describe-n5-borel.json", "describe-n6-b321.txt",
        "describe-n4-b121-z2.json"])})
test_der_h1_stdout_matches_golden = _named_tests({
    f"{fmt}-{ext}-{command}": f"{command}-n6-b321.{ext}"
    for fmt, ext in [("json", "json"), ("text", "txt")] for command in ("der", "h1")})
test_der_gl10_stdout_matches_golden = _named_test("der-n10-b10.json")
test_der_two_extra_center_stdout_matches_golden = _named_test("der-n6-b321-z2.json")
test_decompose_stdout_matches_golden = _named_tests(
    {str(k): f"decompose-{k}.out.json" for k in range(6)})
test_decompose_perturbed_matches_golden = _named_test("decompose-perturbed.err.txt")
test_der_over_limit_matches_golden = _named_test("der-over-limit.err.txt")


@pytest.mark.parametrize(
    "entry", [e for t, e in enumerate(GOLDEN) if t not in _named],
    ids=lambda e: " ".join(e["argv"]) + (f" < {e['stdin']}" if "stdin" in e else ""))
def test_golden_command(capsys, monkeypatch, entry):
    _check(capsys, monkeypatch, entry)


def test_request_paths_build_no_adapted_subspaces(capsys, monkeypatch):
    # only describe reads the Levi decomposition: with adapted_subspaces
    # made to raise wherever it is bound, the other commands print the same
    # bytes, and describe calls it once
    verify = ["verify", "--max-n", "3", "--rounds", "2"]
    verify_expected = run(capsys, verify)
    assert verify_expected[0] == 0

    def refuse(q):
        raise AssertionError("adapted_subspaces called")

    for module in (parabolic, cli):
        monkeypatch.setattr(module, "adapted_subspaces", refuse)
    assert run(capsys, DECOMPOSE + [str(DATA / "decompose-0.in.json")]) == (
        0, (DATA / "decompose-0.out.json").read_bytes(), b"")
    assert run(capsys, DECOMPOSE + [str(DATA / "decompose-perturbed.in.json")]) == (
        4, b"", (DATA / "decompose-perturbed.err.txt").read_bytes())
    for command in ("der", "h1"):
        argv = [command, "--n", "6", "--blocks", "3,2,1"]
        assert run(capsys, argv) == (0, (DATA / f"{command}-n6-b321.json").read_bytes(), b"")
    assert run(capsys, verify) == verify_expected

    monkeypatch.undo()
    calls = []
    real = parabolic.adapted_subspaces
    for module in (parabolic, cli):
        monkeypatch.setattr(module, "adapted_subspaces", lambda q: calls.append(q) or real(q))
    argv = ["describe", "--n", "6", "--blocks", "3,2,1", "--format", "text"]
    assert run(capsys, argv) == (0, (DATA / "describe-n6-b321.txt").read_bytes(), b"")
    assert len(calls) == 1
