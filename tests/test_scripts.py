"""The scripts under scripts/ run end to end against this tree, scripts/digest.py
printing the pinned digests of every suite report and srclab eval output it
covers, and the benchmark under perfbench/ sets up and runs its probes."""
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv) -> subprocess.CompletedProcess:
    """A script run from the repository root with this tree's src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ["scripts/verify_catalog.py", "--points", "3"],
    ["scripts/fd_step_sweep.py"],
])
def test_script_exits_zero(argv):
    proc = run_script(*argv)
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


# scripts/digest.py's two lines, taken on numpy 2.4.6 and CPython 3.11.7: a change that
# moves a byte of any report or srclab eval output it covers changes a line.
DIGESTS = ["8e1629adc7681d29ed33049e94ef7f3b62d1224655705169ca202cba1294292f  168 reports",
           "03ce2ea05f77f28f010652b3ef3c1209ac31527844aa1aa336d0232b3da1d792  4140 requests, "
           "1658 nonzero exits"]
DIGEST_VERSIONS = {"numpy": "2.4.6", "CPython": "3.11.7"}


def test_digest_prints_the_pinned_report_and_eval_digests():
    """scripts/digest.py hashes 168 suite reports and 4,140 srclab eval
    requests; both lines are pinned, on the versions they were taken on (the
    last digits of a float can move with numpy's or the C library's version)."""
    import numpy as np

    versions = {"numpy": np.__version__, "CPython": platform.python_version()}
    if versions != DIGEST_VERSIONS:
        pytest.skip(f"digests pinned on {DIGEST_VERSIONS}, running on {versions}")
    proc = run_script("scripts/digest.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == DIGESTS


def test_eval_digest_builds_its_request_set(monkeypatch, tmp_path):
    """scripts/digest.py writes its one-form files and lists 4,140 requests;
    a few of them run the same twice and count their nonzero exits."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import digest

    argvs = digest.requests(tmp_path)
    assert len(argvs) == 4140
    few = argvs[:6] + [argv for argv in argvs if "file:" in " ".join(argv)][-6:]
    monkeypatch.chdir(tmp_path)
    runs = [digest.request(argv) for argv in few]
    assert runs == [digest.request(argv) for argv in few]
    sha = digest.sha256(text for argv, (code, out, err) in zip(few, runs)
                        for text in (" ".join(argv), str(code), out, err))
    # g exits 2 at every coordinate 1e154 and at one coordinate too many;
    # alpha with log(<x1> - 5) exits 2 at every point
    assert re.fullmatch("[0-9a-f]{64}", sha) and sum(code != 0 for code, _, _ in runs) == 8


def test_report_digest_lists_its_reports(monkeypatch):
    """scripts/digest.py lists 168 suite reports; its digest of two of them
    is the same on two calls."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import digest

    items = digest.cases()
    assert len(items) == 168
    two = [items[0], items[-1]]
    sha = digest.sha256(digest.report(*item) for item in two)
    assert re.fullmatch("[0-9a-f]{64}", sha)
    assert sha == digest.sha256(digest.report(*item) for item in two)


def test_stage_timing_eval_prints_a_row_per_stage():
    """scripts/stage_timing.py eval splits one round of the single-point-eval
    requests into its stages; the stage medians are non-negative and each is at
    most the median request."""
    proc = run_script("scripts/stage_timing.py", "eval", "--rounds", "1")
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


def test_line_reach_lists_the_lines_a_selection_never_runs():
    """scripts/line_reach.py runs two parser tests in process and lists, as
    module.py:N: text, the package lines they never ran, then the count: the
    parser's missing-name error and every def line (run at import) ran, the
    body of run_suite did not."""
    proc = run_script("scripts/line_reach.py", "-q", "-p", "no:cacheprovider",
                      *(f"tests/test_parser.py::test_error_messages_and_locations_pinned[{case}]"
                        for case in (0, 20)))
    assert proc.returncode == 0, proc.stderr
    *lines, total = proc.stdout.splitlines()
    assert "2 passed" in proc.stderr and total == f"{len(lines)} lines never ran"
    assert all(re.match(r"\w+\.py:\d+: \S", line) for line in lines)
    listed = {line.split(": ", 1)[1] for line in lines}
    assert "def run_suite(spec: ManifoldSpec, pi: OneFormData | None = None," not in listed
    assert 'raise ParseError("manifold needs a name", line_no, len("manifold") + 1)' \
        not in listed
    assert "config = config or SuiteConfig()" in listed
