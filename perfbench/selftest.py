"""Self-tests of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py            # about ten seconds
    python3 perfbench/selftest.py --traced   # also checks the layer predictions

They check that tampered responses are counted as failures, that a seed
reproduces byte-identical request lists and another seed changes them, and
that the benchmark refuses to run without the library source. With
``--traced`` they also run one traced pass per workload and check the layer
predictions recorded in README.md.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok   {what}")


def failed_frac(workload, responses) -> float:
    return run.count_failures(workload, responses) / len(responses)


def tampered_payloads_fail(lib, tmp: Path) -> None:
    der = WORKLOADS["der-n8"](lib, 1, tmp)
    borel = der.requests.index(("der", "--n", "8", "--blocks", "1,1,1,1,1,1,1,1"))
    code, out = der.send(der.requests[borel])
    expect(failed_frac(der, [(borel, (code, out))]) == 0, "der-n8: genuine Borel payload passes")
    payload = json.loads(out)
    payload["der_dim"] += 1
    bad = (code, json.dumps(payload, indent=2))
    expect(failed_frac(der, [(borel, (code, out)), (borel, bad)]) > 0,
           "der-n8: a wrong der_dim pushes failed_frac above 0")
    expect(failed_frac(der, [(borel, (3, out))]) > 0, "der-n8: a wrong exit code fails")

    sweep = WORKLOADS["theorem-sweep"](lib, 1, tmp)
    idx = sweep.requests.index((2, 1))
    resp = sweep.send((2, 1))
    expect(failed_frac(sweep, [(idx, resp)]) == 0, "theorem-sweep: genuine report passes")
    wrong = (resp[0], resp[1] + 1) + resp[2:]
    expect(failed_frac(sweep, [(idx, wrong)]) > 0, "theorem-sweep: a wrong der_dim fails")
    expect(failed_frac(sweep, [(idx, resp[:-1] + (False,))]) > 0,
           "theorem-sweep: report.ok false fails")

    dec = WORKLOADS["decompose-stream"](lib, 1, tmp)
    valid = next(i for i, r in enumerate(dec.requests) if r[1])
    invalid = next(i for i, r in enumerate(dec.requests) if not r[1])
    code, out = dec.send(dec.requests[valid])
    expect(failed_frac(dec, [(valid, (code, out))]) == 0, "decompose-stream: genuine split passes")
    payload = json.loads(out)
    z = min(dec.center_rows)
    col = min(set(range(dec.dim)) - dec.derived_cols)
    payload["l_part"][z][col] = str(Fraction(payload["l_part"][z][col]) + 1)
    bad = (code, json.dumps(payload, indent=2))
    expect(failed_frac(dec, [(valid, bad)]) > 0,
           "decompose-stream: one changed entry of l_part pushes failed_frac above 0")
    resp = dec.send(dec.requests[invalid])
    expect(failed_frac(dec, [(invalid, resp)]) == 0, "decompose-stream: perturbed input exits 4")
    expect(failed_frac(dec, [(invalid, (0, out))]) > 0,
           "decompose-stream: a perturbed input that is accepted fails")


def seeds_reproduce(lib, tmp: Path) -> None:
    for name, cls in WORKLOADS.items():
        lists = [cls(lib, seed, Path(tempfile.mkdtemp(dir=tmp))).listing() for seed in (7, 7, 8)]
        expect(lists[0] == lists[1], f"{name}: the same seed gives byte-identical requests")
        expect(lists[0] != lists[2], f"{name}: another seed changes the requests")
    a = WORKLOADS["der-n8"](lib, 7, tmp).requests
    b = WORKLOADS["der-n8"](lib, 8, tmp).requests
    expect(a[:2] == b[:2] and a[2:] != b[2:], "der-n8: gl_8 and Borel fixed, sample seeded")
    a, b = (WORKLOADS["decompose-stream"](lib, seed, Path(tempfile.mkdtemp(dir=tmp)))
            for seed in (7, 8))
    expect(a.matrices != b.matrices, "decompose-stream: another seed changes the matrices")
    invalid = sum(not r[1] for r in a.requests) / len(a.requests)
    expect(invalid == 1 / 8, "decompose-stream: one input in eight is perturbed")


def refuses_without_library(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "der-n8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without src/liederiv the benchmark exits non-zero and prints no result")


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    expect(result["correct"], f"{workload}: traced run is correct")
    return {k: v["value"] for k, v in result["metrics"].items()} | {"_detail": detail}


def layer_predictions() -> None:
    m = {w: traced(w) for w in WORKLOADS}
    others = ("der-n8", "decompose-stream")
    expect(all(m[w]["derivations.verify_main_theorem.calls"] == 0 for w in others),
           "verify_main_theorem: 0 calls outside theorem-sweep")
    ts = m["theorem-sweep"]
    expect(ts["derivations.verify_main_theorem.s"] > 0.5 * ts["_detail"]["traced_wall_s"],
           "verify_main_theorem: more than half of theorem-sweep")
    for fn in ("derivations.root_line_reduction", "lie.first_leibniz_violation"):
        expect(all(m[w][f"{fn}.calls"] == 0 for w in ("der-n8", "theorem-sweep"))
               and m["decompose-stream"][f"{fn}.calls"] > 0,
               f"{fn}: runs on decompose-stream only")
    expect(m["decompose-stream"]["derivations.derivation_algebra.calls"] == 0,
           "derivation_algebra: on decompose-stream only in set-up")
    expect(m["theorem-sweep"]["cli.main.calls"] == 0, "cli.main: 0 calls on theorem-sweep")


def main(argv) -> int:
    lib = run.import_library()
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        tmp = Path(tmp)
        tampered_payloads_fail(lib, tmp)
        seeds_reproduce(lib, tmp)
        refuses_without_library(tmp)
    if "--traced" in argv:
        layer_predictions()
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
