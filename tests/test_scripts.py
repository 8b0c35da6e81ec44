"""The scripts under scripts/ run end to end and exit 0, and the benchmark
under perfbench/ sets up and runs its probes against this tree."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["scripts/verify_catalog.py", "--points", "3"],
    ["scripts/fd_step_sweep.py"],
])
def test_script_exits_zero(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


WORKLOADS = ("catalog-sweep", "expr-heavy-sweep", "single-point-eval")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_sets_up(workload):
    """perfbench imports and sets up each workload against this tree."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--setup-only"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_probes_read_the_evaluation(monkeypatch):
    """The benchmark's layer probes run, and its eval_tensor gives row 0 of
    an Evaluation for every tensor its oracle table holds."""
    import numpy as np

    from srclab.catalog import builtin
    from srclab.curvature import Evaluation
    from srclab.manifold import sample_points

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import layers

    entry = builtin("heisenberg2")
    spec, variant = entry.spec, entry.variant("trig")
    pi = entry.oneform("trig")
    points = sample_points(spec, 2, 3)
    rec = layers.Recorder()
    layers.probe_layers(rec, entry.source, variant.expressions, points)
    assert {name for _, name, *_ in rec.spans} == {
        "jets", "manifold.frame", "connections.koszul", "connections.semi",
        "curvature.schouten", "curvature.derived"}
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    names = {t for pair in reference["pairs"] for pt in pair["points"] for t in pt["tensors"]}
    assert len(names) == 19
    for p in points:
        ev = Evaluation(spec, pi, p[None])
        for name in sorted(names):
            got, want = layers.eval_tensor(spec, pi, name, p), ev[name][0]
            assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max()), name


def test_eval_digest_builds_its_request_set(monkeypatch, tmp_path):
    """scripts/eval_digest.py writes its one-form files and lists 4,140 requests;
    its digest of a few is stable and counts their nonzero exits."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import eval_digest

    argvs = eval_digest.requests(tmp_path)
    assert len(argvs) == 4140
    few = argvs[:6] + [argv for argv in argvs if "file:" in " ".join(argv)][-6:]
    monkeypatch.chdir(tmp_path)
    sha, nonzero = eval_digest.digest(few)
    assert (sha, nonzero) == eval_digest.digest(few)
    # g exits 2 at every coordinate 1e154 and at one coordinate too many;
    # alpha with log(<x1> - 5) exits 2 at every point
    assert re.fullmatch("[0-9a-f]{64}", sha) and nonzero == 8


def test_report_digest_lists_its_reports(monkeypatch):
    """scripts/report_digest.py lists 168 suite reports; its digest of two
    of them is the same on two calls."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import report_digest

    items = report_digest.cases()
    assert len(items) == 168
    two = [items[0], items[-1]]
    sha = report_digest.digest(two)
    assert re.fullmatch("[0-9a-f]{64}", sha) and sha == report_digest.digest(two)


def test_ingest_timing_prints_a_row_per_spec():
    """scripts/ingest_timing.py times parse, validation and compile of the six
    catalog specs and the four expression-heavy specs, one repeat here."""
    from srclab.catalog import catalog_names

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "scripts/ingest_timing.py", "--repeats", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == [*catalog_names(), "expr-r3-a", "expr-r3-b",
                                        "expr-r4-a", "expr-r4-b"]
    assert [int(row[1]) for row in rows[-4:]] == [684, 684, 1604, 1604]
    assert all(len(row) == 6 and min(map(float, row[2:])) >= 0.0 for row in rows)


def test_eval_timing_prints_a_row_per_stage():
    """scripts/eval_timing.py splits one round of the single-point-eval requests
    into its stages; the stage medians are non-negative and each is at most
    the median request."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "scripts/eval_timing.py", "--rounds", "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"\d+ single-point-eval requests, seed 1: median us per request",
                        lines[0])
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["argv", "spec", "oneform", "frame", "tensor",
                                        "print", "other", "total"]
    total = float(rows[-1][1])
    assert total > 0 and all(0.0 <= float(row[1]) <= total for row in rows[:-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_ab_suite_times_a_tree_against_itself(workload):
    """scripts/ab_suite.py, one round of a workload with this tree as both
    sides: one timed row, and every output byte-identical (exit 0)."""
    proc = subprocess.run([sys.executable, "scripts/ab_suite.py", workload, ".", ".",
                           "--rounds", "1", "--seed", "2"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"\s+1\s+\d+(\s+\d+\.\d{3}){3}", lines[2]), lines
    assert re.fullmatch(r"outputs byte-identical: yes \(0 of \d+ calls differ\)", lines[-1])
