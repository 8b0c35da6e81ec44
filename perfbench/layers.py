"""Traced run: spans around each srclab module's public calls, einsum counts.

Spans are recorded from the benchmark's own code around calls into the
package; nothing inside ``src/srclab`` is instrumented.  The layer probes
re-run the stages of one operation separately on a freshly parsed spec, so
"fresh" means empty memo caches and "warm" means the program's own memo
already holds the frame data or coefficients for those points.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from srclab.connections import OneFormData, koszul_connection, semi_connection, torsion
from srclab.curvature import (characteristic_tensor, conformal_difference_formula,
                              conformal_tensor, curvature_relation_terms,
                              projective_difference_formula, projective_tensor,
                              s_tensor, schouten_curvature)
from srclab.jets import jet_eval
from srclab.manifold import snapshot
from srclab.parser import parse_document

from inputs import build_pi

# Per-layer metric -> (span it is read from, unit): span time / span work.
LAYER_SPANS = {
    "parser.parse_us_per_spec": ("parser.parse", "us/spec"),
    "jets.us_per_point": ("jets", "us/point"),
    "manifold.frame_us_per_point": ("manifold.frame", "us/point"),
    "connections.koszul_us_per_point": ("connections.koszul", "us/point"),
    "connections.semi_us_per_point": ("connections.semi", "us/point"),
    "curvature.schouten_us_per_point": ("curvature.schouten", "us/point"),
    "curvature.derived_us_per_point": ("curvature.derived", "us/point"),
    "verifier.suite_us_per_point": ("verifier.suite", "us/point"),
    "verifier.warm_suite_us_per_point": ("verifier.warm_suite", "us/point"),
    "jsonio.dumps_us_per_report": ("jsonio.dumps", "us/report"),
}


class Recorder:
    """In-memory spans and counts of one traced run."""

    def __init__(self):
        self.spans: list[tuple[int, str, str | None, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list] = defaultdict(list)
        self.op = 0
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str, work: int = 1):
        """Time one layer call; ``work`` is the points/specs/reports it covers."""
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.op, name, parent, start, end, work))

    def per_unit_us(self, name: str, duration) -> float:
        """Time per unit of work of one span name; ``duration(start, end)``."""
        busy = sum(duration(s[3], s[4]) for s in self.spans if s[1] == name)
        work = sum(s[5] for s in self.spans if s[1] == name)
        return busy / work * 1e6

    @contextmanager
    def count_einsum(self):
        """Count numpy.einsum calls; srclab looks the function up per call."""
        original = np.einsum

        def counted(*args, **kwargs):
            self.counts["numpy.einsum"] += 1
            return original(*args, **kwargs)

        np.einsum = counted
        try:
            yield
        finally:
            np.einsum = original


def derived_tensors(spec, pi, point, Kb, Rb):
    """Every derived tensor and both difference formulas at one point."""
    ct = characteristic_tensor(spec, pi, point)
    out = [projective_tensor(Kb, spec, point), projective_tensor(Rb, spec, point),
           curvature_relation_terms(ct, spec, point),
           projective_difference_formula(ct, spec, point)]
    if spec.ell >= 3:
        out += [s_tensor(Kb, spec, point), s_tensor(Rb, spec, point),
                conformal_tensor(Kb, spec, point), conformal_tensor(Rb, spec, point),
                conformal_difference_formula(ct, spec, point)]
    return out


def probe_layers(rec: Recorder, text: str, pi_lines, points) -> None:
    """Time jets, frame, connections, curvature and derived layers at ``points``
    on a freshly parsed spec; each stage runs with the previous one warm."""
    spec = parse_document(text).spec
    pi = build_pi(spec, pi_lines) or OneFormData.zero(spec.ell, spec.n)
    exprs = [c for vf in spec.hframe + spec.vframe for c in vf.components]
    exprs += [spec.metric[i][j] for i in range(spec.ell) for j in range(i, spec.ell)]
    n = len(points)
    with rec.span("jets", n):
        for p in points:
            for expr in exprs:
                jet_eval(expr, p, 2)
    with rec.span("manifold.frame", n):
        for p in points:
            snapshot(spec, p)
    nab, D = koszul_connection(spec), semi_connection(spec, pi)
    with rec.span("connections.koszul", n):
        for p in points:
            nab.coefficient_jets(p)
    with rec.span("connections.semi", n):
        for p in points:
            D.coefficient_jets(p)
    with rec.span("curvature.schouten", n):
        bundles = [(schouten_curvature(nab, p), schouten_curvature(D, p)) for p in points]
    with rec.span("curvature.derived", n):
        for p, (Kb, Rb) in zip(points, bundles):
            derived_tensors(spec, pi, p, Kb, Rb)


def eval_tensor(spec, pi, name: str, point):
    """The value ``srclab eval --tensor name`` prints, via public functions."""
    pi = pi or OneFormData.zero(spec.ell, spec.n)
    if name in ("Omega", "M", "Lambda"):
        snap = snapshot(spec, point)
        return {"Omega": snap.Omega, "M": snap.Mcoef, "Lambda": snap.Lambda}[name]
    if name in ("pi-char", "alpha"):
        ct = characteristic_tensor(spec, pi, point)
        return ct.pi_lower if name == "pi-char" else ct.alpha
    conn = koszul_connection(spec)
    if name in ("Gamma", "torsion") or name.endswith(("R", "bar")):
        conn = semi_connection(spec, pi)
    if name in ("coeff", "Gamma"):
        return conn.coefficients(point)
    if name == "torsion":
        return torsion(conn, point)
    bundle = schouten_curvature(conn, point)
    if name in ("K", "R"):
        return bundle.curv
    if name.startswith("ricci"):
        return bundle.ricci
    if name.startswith("scalar"):
        return bundle.scalar
    return {"S": s_tensor, "C": conformal_tensor,
            "W": projective_tensor}[name[0]](bundle, spec, point)
