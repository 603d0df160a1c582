"""Byte-for-byte CLI output pinned by golden files in tests/data.

The files hold stdout (or stderr) of earlier runs of the same commands:
``verify --max-n 4 --seed 1 --rounds 3`` as JSON and text, and
``verify --max-n 6 --rounds 0``, which takes all 63 compositions through the
theorem check and no decomposition round, as JSON; ``verify --max-n 5
--rounds 20``, which also splits 20 random derivations of each of the 31
compositions constructively, as JSON; ``decompose``
on gl_6 with blocks 3,2,1 for six seeded derivations (random integer
combinations of the oracle basis, seed 2026; input 1 writes integral entries
as JSON integers, input 5 is divided by 7) and for one derivation perturbed
by the map I -> x_10, which must exit 4; and ``describe`` as JSON for gl_6
with blocks 3,2,1 and one extra central generator, for the Borel of gl_5,
and for gl_4 with blocks 1,2,1 and two extra central generators, whose
Levi center differs from c, all three with the "sc" list and the subspace
bases (the Levi center among them) that come from the structure-constant
table and ``adapted_subspaces``, and as text for gl_6 with blocks 3,2,1;
and ``der`` and ``h1`` as JSON and
text for gl_6 with blocks 3,2,1, and ``der`` as JSON for the whole gl_10
(blocks 10), where the oracle
eliminates only the weight-0 block, and for gl_6 with blocks 3,2,1 and two
extra central generators, where the grading element is not unique (any
central element can be added to it).
Any change to these bytes is a change to the output contract.
"""

from pathlib import Path

import pytest

from liederiv import cli, parabolic
from liederiv.cli import main

DATA = Path(__file__).parent / "data"
DECOMPOSE = ["decompose", "--n", "6", "--blocks", "3,2,1", "--input"]


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


@pytest.mark.parametrize("fmt,ext", [("json", "json"), ("text", "txt")])
def test_verify_stdout_matches_golden(capsys, fmt, ext):
    argv = ["verify", "--max-n", "4", "--seed", "1", "--rounds", "3", "--format", fmt]
    assert run(capsys, argv) == (0, (DATA / f"verify-n4-s1-r3.{ext}").read_bytes(), b"")


def test_verify_theorem_checks_to_n6_match_golden(capsys):
    argv = ["verify", "--max-n", "6", "--rounds", "0"]
    assert run(capsys, argv) == (0, (DATA / "verify-n6-s0-r0.json").read_bytes(), b"")


def test_verify_constructive_rounds_to_n5_match_golden(capsys):
    argv = ["verify", "--max-n", "5", "--rounds", "20"]
    assert run(capsys, argv) == (0, (DATA / "verify-n5-s0-r20.json").read_bytes(), b"")


@pytest.mark.parametrize(
    "argv,name",
    [
        (["--n", "6", "--blocks", "3,2,1", "--extra-center", "1"], "describe-n6-b321-z1.json"),
        (["--n", "5", "--blocks", "1,1,1,1,1"], "describe-n5-borel.json"),
        (["--n", "6", "--blocks", "3,2,1", "--format", "text"], "describe-n6-b321.txt"),
        (["--n", "4", "--blocks", "1,2,1", "--extra-center", "2"], "describe-n4-b121-z2.json"),
    ],
)
def test_describe_stdout_matches_golden(capsys, argv, name):
    assert run(capsys, ["describe"] + argv) == (0, (DATA / name).read_bytes(), b"")


@pytest.mark.parametrize("command", ["der", "h1"])
@pytest.mark.parametrize("fmt,ext", [("json", "json"), ("text", "txt")])
def test_der_h1_stdout_matches_golden(capsys, command, fmt, ext):
    argv = [command, "--n", "6", "--blocks", "3,2,1", "--format", fmt]
    expected = (DATA / f"{command}-n6-b321.{ext}").read_bytes()
    assert run(capsys, argv) == (0, expected, b"")


def test_der_gl10_stdout_matches_golden(capsys):
    argv = ["der", "--n", "10", "--blocks", "10"]
    assert run(capsys, argv) == (0, (DATA / "der-n10-b10.json").read_bytes(), b"")


def test_der_two_extra_center_stdout_matches_golden(capsys):
    argv = ["der", "--n", "6", "--blocks", "3,2,1", "--extra-center", "2"]
    assert run(capsys, argv) == (0, (DATA / "der-n6-b321-z2.json").read_bytes(), b"")


@pytest.mark.parametrize("k", range(6))
def test_decompose_stdout_matches_golden(capsys, k):
    code, out, err = run(capsys, DECOMPOSE + [str(DATA / f"decompose-{k}.in.json")])
    assert (code, err) == (0, b"")
    assert out == (DATA / f"decompose-{k}.out.json").read_bytes()


def test_decompose_perturbed_matches_golden(capsys):
    code, out, err = run(capsys, DECOMPOSE + [str(DATA / "decompose-perturbed.in.json")])
    assert (code, out) == (4, b"")
    assert err == (DATA / "decompose-perturbed.err.txt").read_bytes()


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
