"""liederiv benchmark: one workload, closed loop, exact output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload theorem-sweep --seed 1 --seconds 30 --trace 0

One client in one single-threaded process sends the workload's fixed,
seeded list of requests in-process, each after the previous one returns, and
repeats the list (a pass). Each request's times are scaled to the
reference CPU speed by a fixed probe timed just before and just after it
(see ``probe``). The pass count is ``--seconds`` over the
workload's nominal pass time on the reference host, so a run lasts about
``--seconds`` there and two commits are timed on identical work.
Every response is checked outside the timed region. With ``--trace 0`` the
last stdout line holds the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics from one untraced and one traced
pass, and the spans are written to ``.perfbench_out/``. The line before the
last one gives details (pass count, tail percentile, failed share, layer
shares).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from layers import Tracer, src_line_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 15
# The probe's time on the reference host while its CPU runs fast. Every time
# is reported as it would read on a CPU that runs the probe in this time.
PROBE_REF_S = 0.0065
_rng = random.Random(0)
PROBE_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(14)]
                for _ in range(12)]
TAIL_BEYOND = 10  # the tail percentile keeps at least this many requests beyond it


def import_library():
    """Import the library from this checkout's source tree, and only from there."""
    if not (SRC / "liederiv" / "__init__.py").is_file():
        raise SystemExit("perfbench: no library source at src/liederiv")
    sys.path.insert(0, str(SRC))
    import liederiv
    import liederiv.cli
    import liederiv.derivations
    import liederiv.parabolic

    if Path(liederiv.__file__).resolve().parent != SRC / "liederiv":
        raise SystemExit(f"perfbench: imported liederiv from {liederiv.__file__}")
    return liederiv


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit("perfbench: BENCHMARK.json not found")
    return json.loads(path.read_text(encoding="utf-8"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def send_safely(workload, req):
    """A request that raises is a failed request, not a crashed benchmark."""
    try:
        return workload.send(req)
    except (Exception, SystemExit) as exc:
        return ("raised", type(exc).__name__, str(exc))


def count_failures(workload, responses) -> int:
    """Check every (request index, response); identical responses to the same
    request are checked once."""
    verdicts: dict = {}
    failed = 0
    for idx, resp in responses:
        key = (idx, resp)
        if key not in verdicts:
            try:
                verdicts[key] = resp[0] != "raised" and workload.check(workload.requests[idx], resp)
            except Exception:
                verdicts[key] = False
        failed += not verdicts[key]
    return failed


def probe() -> float:
    """Time one fixed exact Gauss-Jordan elimination, with the collector off.

    The reference host's vCPUs change speed, independently and up to twofold,
    from under a second to minutes at a time. The probe calls no library
    code, so its time tracks only the speed of the CPU it runs on.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    m = [row[:] for row in PROBE_MATRIX]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def one_pass(workload, responses, tracer=None) -> list[tuple[float, float, float]]:
    """Send the list once; returns each request's wall time, CPU time and
    speed scale. The scale is PROBE_REF_S over the mean of the probes just
    before and just after the request, both outside its timing."""
    times = []
    before = probe()
    for idx, req in enumerate(workload.requests):
        if tracer is not None:
            tracer.request = len(responses)
        t0, c0 = time.perf_counter(), time.process_time()
        resp = send_safely(workload, req)
        t1, c1 = time.perf_counter(), time.process_time()
        after = probe()
        times.append((t1 - t0, c1 - c0, 2 * PROBE_REF_S / (before + after)))
        before = after
        responses.append((idx, resp))
    return times


def scaled_wall(times) -> float:
    return sum(w * k for w, _, k in times)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND requests beyond it,
    and that percentile."""
    rank = len(latencies) - TAIL_BEYOND  # 1-based; passes guarantee rank >= 1
    return sorted(latencies)[rank - 1], 100.0 * rank / len(latencies)


def time_setup(args) -> tuple[float, float, float]:
    """Process start until the first request is ready, in a fresh process.

    Returns that time and the probe times the process reports: one timed
    first thing in its main, and the median of three timed once it is ready.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait(timeout=120)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    first, ready = map(float, rest.split())
    return elapsed, first, ready


def scaled_setup(sample) -> float:
    """The set-up time without the first probe, scaled by the mean of the
    probes on either side of it."""
    elapsed, first, ready = sample
    return (elapsed - first) * 2 * PROBE_REF_S / (first + ready)


def measure(workload, args) -> tuple[dict, dict, int, int]:
    """Time the passes, with the set-up probes spread evenly between them."""
    responses: list = []
    setup: list[tuple[float, float, float]] = []
    count = max(math.ceil((TAIL_BEYOND + 1) / len(workload.requests)),
                round(args.seconds / workload.nominal_pass_s))
    passes = []
    for done in range(1, count + 1):
        passes.append(one_pass(workload, responses))
        while len(setup) < SETUP_PROBES * done // count:
            setup.append(time_setup(args))
    failed = count_failures(workload, responses)
    latencies = [w * k for p in passes for w, _, k in p]
    p_tail, pct = tail(latencies)
    values = {
        "setup_s": statistics.median(scaled_setup(x) for x in setup),
        "wall_s": statistics.median(scaled_wall(p) for p in passes),
        "cpu_s": statistics.median(sum(c * k for _, c, k in p) for p in passes),
        "req_p50_ms": 1000.0 * statistics.median(latencies),
        "req_tail_ms": 1000.0 * p_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "passes": len(passes),
        "requests_per_pass": len(workload.requests),
        "req_tail_percentile": round(pct, 2),
        "req_samples": len(latencies),
        "failed_frac": failed / len(responses),
        "setup_samples_s": setup,
        "scaled_setup_s": [scaled_setup(x) for x in setup],
        "raw_pass_wall_s": [sum(w for w, _, _ in p) for p in passes],
        "pass_times_s": passes,
    }
    return values, detail, len(responses), failed


def measure_traced(workload, args) -> tuple[dict, dict, int, int]:
    """One untraced and one traced pass. The overhead compares their scaled
    walls; layer shares are of the traced pass's unscaled wall, like the spans."""
    responses: list = []
    untraced = one_pass(workload, responses)
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass(workload, responses, tracer)
    finally:
        tracer.uninstall()
    failed = count_failures(workload, responses)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    values = tracer.metrics()
    values.update(src_line_metrics(SRC / "liederiv"))
    values["trace.overhead_frac"] = scaled_wall(traced) / scaled_wall(untraced) - 1.0
    traced_wall = sum(w for w, _, _ in traced)
    detail = {
        "untraced_scaled_wall_s": scaled_wall(untraced),
        "traced_scaled_wall_s": scaled_wall(traced),
        "traced_wall_s": traced_wall,
        "spans": len(tracer.spans),
        "failed_frac": failed / len(responses),
        "layer_shares": tracer.layer_shares(traced_wall),
        "inclusive_shares": {k: v / traced_wall for k, v in sorted(tracer.inclusive.items())},
    }
    return values, detail, len(responses), failed


def main(argv=None) -> int:
    args = parse_args(argv)
    first = probe() if args.setup_only else 0.0
    spec = load_spec()
    lib = import_library()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workload = WORKLOADS[args.workload](lib, args.seed, Path(tmp))
        if args.setup_only:
            print("ready", flush=True)
            print(first, statistics.median(probe() for _ in range(3)))
            return 0
        run = measure_traced if args.trace else measure
        values, detail, attempted, failed = run(workload, args)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
