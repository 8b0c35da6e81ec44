"""The three workloads: one timed operation each, its correctness check, and
its traced variant with the layer probes."""
from __future__ import annotations

import io
import json
import random
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from srclab import jsonio
from srclab.cli import cli_main
from srclab.manifold import sample_points
from srclab.parser import parse_document
from srclab.verifier import SuiteConfig, run_suite

from inputs import (SWEEP_POINTS, build_pi, catalog_cases, digest, eval_cases,
                    eval_round, expr_heavy_cases, expression_nodes, load_reference,
                    spec_expressions, status, suite_seed, write_case_files)
from layers import Recorder, eval_tensor, probe_layers

EVAL_TOL = 1e-9          # printed values carry >= 12 digits; tests hold the engine to 1e-12
STAMP = "1970-01-01T00:00:00+00:00"   # fixed report timestamp: dumps output is deterministic
PROBE_TENSORS = ("K", "R", "Gamma", "S", "alpha", "ricci-R", "W", "Cbar")


def _span(rec: Recorder | None, name: str, work: int = 1):
    return nullcontext() if rec is None else rec.span(name, work)


def eval_argv(files, tensor: str, point) -> list[str]:
    """``srclab eval`` arguments; the one-form file only when the case has one.

    ``--point=<csv>`` because a separate ``--point -0.5,...`` argument is read
    by argparse as an option and exits 2 (README.md, "Known defects").
    """
    spec_path, pi_path = files
    argv = ["eval", "--spec", str(spec_path)]
    if pi_path is not None:
        argv += ["--pi", f"file:{pi_path}"]
    return argv + ["--tensor", tensor,
                   "--point=" + ",".join(repr(float(x)) for x in point)]


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_overhead(rec: Recorder, files, case, tensor: str, point) -> str | None:
    """Record the spans of an untraced eval request and of the parse + tensor
    work of the same request (their difference is the CLI's own time);
    returns an error message if the request failed."""
    start = time.perf_counter()
    code, _, stderr = run_cli(eval_argv(files, tensor, point))
    request = (start, time.perf_counter())
    start = time.perf_counter()
    spec = parse_document(case.text).spec
    eval_tensor(spec, build_pi(spec, case.pi_lines), tensor, point)
    rec.samples["cli.overhead"].append((request, (start, time.perf_counter())))
    return f"eval probe exit {code}: {stderr.strip()}" if code else None


class Sweep:
    """parse + run_suite(P=200) + dumps per case, checked against expected statuses."""

    def __init__(self, cases, seed: int, files):
        self.cases, self.seed, self.files = cases, seed, files

    def round(self, index: int):
        return [(case, suite_seed(self.seed, i, index))
                for i, case in enumerate(self.cases)]

    @staticmethod
    def label(item) -> str:
        return item[0].name

    @staticmethod
    def work(item) -> int:
        return SWEEP_POINTS

    def call(self, item, rec: Recorder | None = None):
        case, seed = item
        with _span(rec, "parser.parse"):
            spec = parse_document(case.text).spec
        pi = build_pi(spec, case.pi_lines)
        config = SuiteConfig(points=SWEEP_POINTS, seed=seed, flags=case.flags)
        with _span(rec, "verifier.suite", SWEEP_POINTS):
            report = run_suite(spec, pi, config)
        with _span(rec, "jsonio.dumps"):
            text = jsonio.dumps(report.to_json_dict(STAMP))
        return spec, pi, config, report, text

    @staticmethod
    def check(item, out) -> str | None:
        report, text = out[3], out[4]
        got = {r.id: status(r) for r in report.checks}
        bad = [f"{cid} {got.get(cid)} (expected {want})"
               for cid, want in item[0].expected if got.get(cid) != want]
        doc = json.loads(text)
        if [c["pass"] for c in doc["checks"]] != [r.passed for r in report.checks]:
            bad.append("JSON report disagrees with the Report")
        return "; ".join(bad) or None

    def probe(self, item, out, rec: Recorder) -> str | None:
        """Warm re-run, layer probes and one eval request on the call's inputs."""
        case = item[0]
        spec, pi, config = out[:3]
        with rec.span("verifier.warm_suite", SWEEP_POINTS):
            run_suite(spec, pi, config)
        rec.samples["nodes"].append(sum(map(expression_nodes, spec_expressions(spec, pi))))
        points = sample_points(spec, SWEEP_POINTS, config.seed)
        probe_layers(rec, case.text, case.pi_lines, points)
        tensor = PROBE_TENSORS[rec.op % len(PROBE_TENSORS)]
        if spec.ell < 3 and tensor in ("S", "Cbar"):
            tensor = "scalar-K"         # S and C need rank >= 3
        return cli_overhead(rec, self.files[case.name], case, tensor, points[0])

    def digest(self, items) -> tuple[str, str]:
        specs = {c.text: parse_document(c.text).spec for c in self.cases}
        texts = digest(*(c.text + "|".join(c.pi_lines) for c in self.cases))
        points = digest(*(sample_points(specs[case.text], SWEEP_POINTS, seed).tobytes()
                          for case, seed in items))
        return texts, points


class EvalRequests:
    """In-process ``srclab eval`` requests checked against the oracle table."""

    def __init__(self, cases, seed: int, files):
        self.cases, self.files = cases, files
        self.by_name = {case.name: case for case, _ in cases}
        self.rng = random.Random(seed)

    def round(self, index: int):
        return eval_round(self.rng, self.cases)     # rounds differ by the rng state

    @staticmethod
    def label(req) -> str:
        return f"{req.case} {req.tensor} at {req.point}"

    @staticmethod
    def work(req) -> int:
        return 1

    def call(self, req, rec: Recorder | None = None):
        with _span(rec, "cli.request"):
            return run_cli(eval_argv(self.files[req.case], req.tensor, req.point))

    @staticmethod
    def check(req, out) -> str | None:
        code, stdout, stderr = out
        if code != 0:
            return f"exit {code}: {stderr.strip()}"
        got = np.array(stdout.replace("[", " ").replace("]", " ").split(), dtype=float)
        want = req.want.ravel()
        if got.shape != want.shape:
            return f"printed {got.size} values, the reference has {want.size}"
        err = float(np.abs(got - want).max(initial=0.0))
        if err > EVAL_TOL * max(1.0, float(np.abs(want).max(initial=0.0))):
            return f"off the oracle by {err:.3e}"
        return None

    def probe(self, req, out, rec: Recorder) -> str | None:
        """Overhead split of the request, then every layer at P = 1."""
        case = self.by_name[req.case]
        point = np.array(req.point)
        err = cli_overhead(rec, self.files[req.case], case, req.tensor, point)
        with rec.span("parser.parse"):
            spec = parse_document(case.text).spec
        pi = build_pi(spec, case.pi_lines)
        rec.samples["nodes"].append(sum(map(expression_nodes, spec_expressions(spec, pi))))
        config = SuiteConfig(points=1, seed=rec.op)
        with rec.span("verifier.suite", 1):
            report = run_suite(spec, pi, config)
        with rec.span("verifier.warm_suite", 1):
            run_suite(spec, pi, config)
        with rec.span("jsonio.dumps"):
            jsonio.dumps(report.to_json_dict(STAMP))
        probe_layers(rec, case.text, case.pi_lines, [point])
        return err

    def digest(self, items) -> tuple[str, str]:
        texts = digest(*(c.text + "|".join(c.pi_lines) for c, _ in self.cases))
        return texts, digest(*(f"{r.case} {r.tensor} {r.point}" for r in items))


def build(name: str, seed: int, workdir: Path):
    """Set-up: inputs from the seed, input files, the oracle table."""
    if name == "single-point-eval":
        reference = load_reference()
        cases = eval_cases(reference)
        files = write_case_files([case for case, _ in cases], workdir)
        return EvalRequests(cases, seed, files)
    cases = catalog_cases() if name == "catalog-sweep" else expr_heavy_cases(seed)
    return Sweep(cases, seed, write_case_files(cases, workdir))
