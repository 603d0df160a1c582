"""Byte-for-byte CLI output pinned by golden files in tests/data.

The files hold stdout (or stderr) of earlier runs of the same commands:
``verify --max-n 4 --seed 1 --rounds 3`` as JSON and text, and ``decompose``
on gl_6 with blocks 3,2,1 for six seeded derivations (random integer
combinations of the oracle basis, seed 2026; input 1 writes integral entries
as JSON integers, input 5 is divided by 7) and for one derivation perturbed
by the map I -> x_10, which must exit 4; and ``describe`` as JSON for gl_6
with blocks 3,2,1 and one extra central generator, and for the Borel of
gl_5, whose "sc" list and subspace bases (the Levi center among them) come
from the structure-constant table and the restriction to the Levi factor;
and ``der`` and ``h1`` as JSON and text for gl_6 with blocks 3,2,1.
Any change to these bytes is a change to the output contract.
"""

from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "argv,name",
    [
        (["--n", "6", "--blocks", "3,2,1", "--extra-center", "1"], "describe-n6-b321-z1.json"),
        (["--n", "5", "--blocks", "1,1,1,1,1"], "describe-n5-borel.json"),
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


@pytest.mark.parametrize("k", range(6))
def test_decompose_stdout_matches_golden(capsys, k):
    code, out, err = run(capsys, DECOMPOSE + [str(DATA / f"decompose-{k}.in.json")])
    assert (code, err) == (0, b"")
    assert out == (DATA / f"decompose-{k}.out.json").read_bytes()


def test_decompose_perturbed_matches_golden(capsys):
    code, out, err = run(capsys, DECOMPOSE + [str(DATA / "decompose-perturbed.in.json")])
    assert (code, out) == (4, b"")
    assert err == (DATA / "decompose-perturbed.err.txt").read_bytes()
