#!/usr/bin/env python3
"""The srclab benchmark: closed-loop workloads, checked outputs, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 20 --trace 0

Workloads (one process, one call at a time; README.md says why each exists):

* ``catalog-sweep``      parse + run_suite(P=200) + jsonio.dumps per catalog pair
* ``expr-heavy-sweep``   the same on four seeded expression-heavy specs
* ``single-point-eval``  in-process ``srclab eval`` requests, checked against
                         the sympy oracle table in perfbench/reference.json

Whole rounds (every pair, spec or request kind once) repeat until
``--seconds`` have passed.  ``--trace 0`` prints the end-to-end metrics and
``--trace 1`` the per-layer metrics of a traced run on the same inputs.  The
last stdout line is the JSON result; a failed operation makes the exit code 1,
and a tree without ``src/srclab`` makes it 2 with no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("catalog-sweep", "expr-heavy-sweep", "single-point-eval")
SETUP_REPEATS = 5
SETUP_SAMPLES = 10
MAX_REPORTED_FAILURES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up and exit (times setup_s)")
    return ap.parse_args(argv)


def measure_setup(args, cal) -> list[tuple[float, float]]:
    """Spans of fresh processes that only set the workload up (interpreter
    start, import srclab, inputs, input files, oracle table), with host-speed
    samples taken between them, while no child competes for the CPU."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    spans = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_SAMPLES):
            cal.sample()
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        spans.append((start, time.perf_counter()))
    for _ in range(SETUP_SAMPLES):
        cal.sample()
    return spans


def environment() -> dict:
    commit = "unknown"           # a checkout without .git has no commit to name
    try:
        res = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        if res.returncode == 0:
            commit = res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "numpy": np.__version__,
            "python": platform.python_version(), "commit": commit,
            "src.lines": src_lines()}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "srclab").glob("*.py")))


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


class Tally:
    """Attempted and failed operations; the first failures go to stderr."""

    def __init__(self, label):
        self.label = label
        self.attempted = self.failed = 0

    def record(self, item, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"FAILED {self.label(item)}: {error}", file=sys.stderr)

    def guarded(self, item, fn, *args):
        """(True, fn(item, *args)), or (False, None) with the raise counted as
        a failure: one bad operation must not stop the run."""
        try:
            return True, fn(item, *args)
        except Exception:
            self.record(item, "raised " + traceback.format_exc(limit=-3).strip())
            return False, None


class Run:
    """The timed loop of one workload: whole rounds until ``seconds`` pass."""

    def __init__(self, workload, rec, tally):
        self.workload, self.rec, self.tally = workload, rec, tally
        self.ran, self.calls, self.traced, self.work = [], [], [], []
        self.rounds = 0

    def verify(self, item, out) -> None:
        ok, error = self.tally.guarded(item, self.workload.check, out)
        if ok:
            self.tally.record(item, error)

    def traced_call(self, item):
        with self.rec.count_einsum():
            start = time.perf_counter()
            ok, out = self.tally.guarded(item, self.workload.call, self.rec)
            self.traced.append((start, time.perf_counter()))
        return ok, out

    def step(self, item) -> None:
        rec = self.rec
        if rec is not None:
            rec.op += 1
        # A traced run makes every call twice; alternating which goes first
        # keeps second-call warmth out of the tracing overhead.
        traced_first = rec is not None and rec.op % 2 == 1
        if traced_first:
            traced = self.traced_call(item)
        start = time.perf_counter()
        ok, out = self.tally.guarded(item, self.workload.call)
        end = time.perf_counter()
        self.ran.append(item)
        if ok:
            self.calls.append((start, end))
            self.work.append(self.workload.work(item))
            self.verify(item, out)
        if rec is None:
            return
        if not traced_first:
            traced = self.traced_call(item)
        if traced[0]:
            self.verify(item, traced[1])
            ok, error = self.tally.guarded(item, self.workload.probe, traced[1], rec)
            if ok:
                self.tally.record(item, error)

    def loop(self, seconds: float) -> None:
        batch = self.workload.round(0)
        began = time.perf_counter()
        while True:
            for item in batch:
                self.step(item)
            self.rounds += 1
            if time.perf_counter() - began >= seconds:
                return
            batch = self.workload.round(self.rounds)


def end_to_end(times, work, setup_s) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "points_per_s": (sum(work) / sum(times), "points/s"),
        "call_ms_p50": (percentile(times, 50) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(rec, duration, times, traced, work) -> dict:
    from layers import LAYER_SPANS
    out = {name: (rec.per_unit_us(span, duration), unit)
           for name, (span, unit) in LAYER_SPANS.items()}
    frame, jets = out["manifold.frame_us_per_point"][0], out["jets.us_per_point"][0]
    out["manifold.self_us_per_point"] = (frame - jets, "us/point")
    out["parser.expr_nodes_per_spec"] = (statistics.mean(rec.samples["nodes"]), "count")
    overhead = [duration(*request) - duration(*parts)
                for request, parts in rec.samples["cli.overhead"]]
    out["cli.overhead_us_per_request"] = (statistics.median(overhead) * 1e6, "us/request")
    out["numpy.einsum_calls_per_point"] = (rec.counts["numpy.einsum"] / sum(work), "count")
    out["src.lines"] = (src_lines(), "lines")
    out["trace.overhead_share"] = (sum(traced) / sum(times) - 1.0, "ratio")
    return out


def run(args, workdir: Path) -> int:
    import workloads
    from calibration import NOMINAL_S, Calibration
    from layers import Recorder
    workload = workloads.build(args.workload, args.seed, workdir)
    if args.setup_only:
        return 0
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in environment().items()))

    tally = Tally(workload.label)
    rec = Recorder() if args.trace else None
    first = workload.round(0)[0]
    ok, out = tally.guarded(first, workload.call)            # untimed warm-up
    if ok:
        tally.record(first, workload.check(first, out))
    cal = Calibration()
    setup = measure_setup(args, cal) if rec is None else []
    loop = Run(workload, rec, tally)
    with cal:
        loop.loop(args.seconds)
    calls = loop.calls
    if not calls:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1

    spec_hash, point_hash = workload.digest(loop.ran)
    print(f"inputs sha256 specs {spec_hash}  points {point_hash}  "
          f"rounds {loop.rounds}  calls {len(calls)}")
    print(f"host calibration kernel median {statistics.median(cal.kernel_s) * 1e6:.4g} us "
          f"over {len(cal.kernel_s)} samples (nominal {NOMINAL_S * 1e6:.4g} us); "
          f"times are calibrated, raw in brackets")

    def figures(duration):
        times = [duration(*span) for span in calls]
        if rec is not None:
            traced = [duration(*span) for span in loop.traced]
            return per_layer(rec, duration, times, traced, loop.work)
        return end_to_end(times, loop.work, statistics.median(duration(*s) for s in setup))

    metrics, raw = figures(cal.scaled), figures(cal.raw)
    count = f"{len(calls)} {'requests' if args.workload == 'single-point-eval' else 'calls'}"
    notes = {"setup_s": f"median of {SETUP_REPEATS} set-ups", "call_ms_p50": count,
             "points_per_s": f"{sum(loop.work)} points in {count}"}
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:12.6g} {unit:10s} [{raw[name][0]:.6g}]  "
              f"{notes.get(name, '')}")
    if rec is None:
        # Printed, not gated: a sweep run has too few calls for a stable tail,
        # and on single-point-eval the gated points_per_s and call_ms_p50 are
        # the request rate and median under their workload-neutral names.
        times = [cal.scaled(*span) for span in calls]
        extra = [("call_ms_p90", percentile(times, 90) * 1e3, "ms", "not gated")]
        if args.workload == "single-point-eval":
            extra = [("requests_per_s", len(times) / sum(times), "req/s", "= points_per_s"),
                     ("request_ms_p50", percentile(times, 50) * 1e3, "ms", "= call_ms_p50"),
                     ("request_ms_p99", percentile(times, 99) * 1e3, "ms", "not gated")]
        for name, value, unit, note in extra:
            print(f"{name:34s} {value:12.6g} {unit:10s} ({note})  {count}")
    print(f"{'failed_share':34s} {tally.failed / tally.attempted:12.6g} {'ratio':10s} "
          f"{tally.failed} of {tally.attempted} operations")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if tally.failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "srclab" / "__init__.py").is_file():
        print(f"perfbench: no srclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
