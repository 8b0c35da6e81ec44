"""Acceptance gates: every criterion the package must meet, at its stated
tolerance, each printing one pass/fail line (run with ``pytest -s`` to see
them inline).

A09's conformal-change gate (the tabulated closed form for Cbar - C) is
implemented exactly as tabulated and FAILS BY DESIGN: direct evaluation
of both conformal tensors shows their difference vanishes identically,
so no implementation can satisfy the tabulated form for a nonzero
one-form.  The failure is kept visible rather than papered over; the
consistent invariance facts are gated by A05 (S-tensor) and A09's other
half (projective form) plus suite checks C12/C14/C15.
"""
import json
import time

import numpy as np
import pytest
from jsonschema import validate

from srclab.catalog import builtin, catalog_names
from srclab.cli import cli_main
from srclab.connections import OneFormData, koszul_connection, semi_connection, torsion
from srclab.curvature import (Evaluation, characteristic_tensor, conformal_difference_formula,
                              conformal_tensor, projective_difference_formula,
                              projective_tensor, s_tensor, schouten_curvature)
from srclab.errors import ParseError, ValidationError
from srclab.jets import fd_crosscheck
from srclab.manifold import sample_points
from srclab.parser import parse_document, parse_manifold, serialize_document
from srclab.verifier import SuiteConfig, run_suite

from test_parser import CORRUPT_CASES

SEED = 20240809
LADDER = catalog_names()
RANK3 = tuple(name for name in LADDER if builtin(name).spec.ell >= 3)
GRID_VARIANTS = ("const", "linear", "trig")


def _report(line: str):
    print(f"\nacceptance {line}")


def test_a01_connection_contract():
    """Metricity and vanishing torsion for the horizontal connection:
    relative residuals <= 1e-9 at 100 seeded points per entry, under 10 s."""
    t0 = time.time()
    worst = 0.0
    for name in LADDER:
        spec = builtin(name).spec
        conn = koszul_connection(spec)
        for p in sample_points(spec, 100, SEED):
            ev = Evaluation(spec, None, p[None])
            fdg, gv = ev.brackets.fdg[0], ev.frame.gv[0]
            co = conn.coefficients(p)
            met = fdg - np.einsum("kie,ej->kij", co, gv) - np.einsum("kje,ei->kij", co, gv)
            scale = max(1.0, abs(fdg).max(), abs(co).max(), abs(gv).max())
            worst = max(worst, abs(met).max() / scale,
                        abs(torsion(conn, p)).max() / scale)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed <= 10.0
    _report(f"A01 connection contract: {'PASS' if ok else 'FAIL'} "
            f"(worst rel {worst:.2e}, {elapsed:.1f}s)")
    assert worst <= 1e-9
    assert elapsed <= 10.0


def test_a02_graded_frames_are_flat_with_parallel_torsion():
    """K and (nabla T) identically <= 1e-10 on the three graded-frame entries."""
    worst = 0.0
    for name in ("heisenberg1", "heisenberg2", "free-step2-l3"):
        spec = builtin(name).spec
        nab = koszul_connection(spec)
        for p in sample_points(spec, 100, SEED):
            worst = max(worst, abs(schouten_curvature(nab, p).curv).max(),
                        abs(Evaluation(spec, None, p[None]).DT_nab[0]).max())
    _report(f"A02 graded-frame flatness: {'PASS' if worst <= 1e-10 else 'FAIL'} "
            f"(worst abs {worst:.2e})")
    assert worst <= 1e-10


def test_a03_curvature_relation_every_entry_and_oneform():
    """Direct transformed curvature vs torsion-free curvature plus
    characteristic terms: <= 1e-9 relative on every (entry, variant), 100 pts."""
    from srclab.curvature import curvature_relation_terms
    worst = 0.0
    for name in LADDER:
        entry = builtin(name)
        spec = entry.spec
        for variant in entry.pi_variants:
            pi = variant.build(spec)
            nab = koszul_connection(spec)
            D = semi_connection(spec, pi)
            for p in sample_points(spec, 100, SEED):
                Kb = schouten_curvature(nab, p)
                Rb = schouten_curvature(D, p)
                ct = characteristic_tensor(spec, pi, p)
                resid = Rb.curv - Kb.curv - curvature_relation_terms(ct, spec, p)
                scale = max(1.0, abs(Rb.curv).max(), abs(Kb.curv).max())
                worst = max(worst, abs(resid).max() / scale)
    _report(f"A03 curvature relation: {'PASS' if worst <= 1e-9 else 'FAIL'} "
            f"(worst rel {worst:.2e})")
    assert worst <= 1e-9


def test_a04_scalar_chain_hand_values():
    """alpha = 1, K = 0, R = 6 on heisenberg2 with constant (1,0,0,0)."""
    spec = builtin("heisenberg2").spec
    pi = OneFormData.constant([1.0, 0.0, 0.0, 0.0], 5)
    worst = 0.0
    for p in sample_points(spec, 50, SEED):
        ct = characteristic_tensor(spec, pi, p)
        Kb = schouten_curvature(koszul_connection(spec), p)
        Rb = schouten_curvature(semi_connection(spec, pi), p)
        worst = max(worst, abs(ct.alpha - 1.0), abs(Kb.scalar), abs(Rb.scalar - 6.0))
    _report(f"A04 scalar chain (alpha=1, K=0, R=6): "
            f"{'PASS' if worst <= 1e-10 else 'FAIL'} (worst {worst:.2e})")
    assert worst <= 1e-10


def _criterion5_grid():
    for name in RANK3:
        entry = builtin(name)
        for vname in GRID_VARIANTS:
            yield entry, entry.oneform(vname)


def test_a05_s_tensor_invariance():
    """max |Sbar - S| <= 1e-9 over 50 points x three one-forms x rank>=3 entries."""
    worst = 0.0
    for entry, pi in _criterion5_grid():
        spec = entry.spec
        nab = koszul_connection(spec)
        D = semi_connection(spec, pi)
        for p in sample_points(spec, 50, SEED):
            S = s_tensor(schouten_curvature(nab, p), spec, p)
            Sbar = s_tensor(schouten_curvature(D, p), spec, p)
            worst = max(worst, abs(Sbar - S).max() / max(1.0, abs(S).max()))
    _report(f"A05 S-tensor invariance: {'PASS' if worst <= 1e-9 else 'FAIL'} "
            f"(worst rel {worst:.2e})")
    assert worst <= 1e-9


def test_a06_projective_difference_formula():
    """(Wbar - W) matches its closed form <= 1e-9 on the A05 grid."""
    worst = 0.0
    for entry, pi in _criterion5_grid():
        spec = entry.spec
        nab = koszul_connection(spec)
        D = semi_connection(spec, pi)
        for p in sample_points(spec, 50, SEED):
            W = projective_tensor(schouten_curvature(nab, p), spec, p)
            Wbar = projective_tensor(schouten_curvature(D, p), spec, p)
            ct = characteristic_tensor(spec, pi, p)
            want = projective_difference_formula(ct, spec, p)
            scale = max(1.0, abs(W).max(), abs(want).max())
            worst = max(worst, abs(Wbar - W - want).max() / scale)
    _report(f"A06 projective difference form: {'PASS' if worst <= 1e-9 else 'FAIL'} "
            f"(worst rel {worst:.2e})")
    assert worst <= 1e-9


def test_a06_conformal_difference_formula_as_tabulated():
    """(Cbar - C) against the tabulated closed form on the A05 grid.

    FAILS BY DESIGN: the measured difference is identically zero while the
    tabulated form is not (see module docstring); the residual equals the
    sup norm of the tabulated form itself.
    """
    worst = 0.0
    zero_diff = 0.0
    for entry, pi in _criterion5_grid():
        spec = entry.spec
        nab = koszul_connection(spec)
        D = semi_connection(spec, pi)
        for p in sample_points(spec, 50, SEED):
            C = conformal_tensor(schouten_curvature(nab, p), spec, p)
            Cbar = conformal_tensor(schouten_curvature(D, p), spec, p)
            ct = characteristic_tensor(spec, pi, p)
            want = conformal_difference_formula(ct, spec, p)
            scale = max(1.0, abs(C).max(), abs(want).max())
            worst = max(worst, abs(Cbar - C - want).max() / scale)
            zero_diff = max(zero_diff, abs(Cbar - C).max() / scale)
    ok = worst <= 1e-9
    _report(f"A06 conformal difference form (as tabulated): "
            f"{'PASS' if ok else 'FAIL'} (worst rel {worst:.2e}; "
            f"direct |Cbar-C| max {zero_diff:.2e})")
    assert zero_diff <= 1e-9      # the invariance that actually holds
    assert worst <= 1e-9          # the tabulated form: fails by design


def test_a07_bianchi_and_symmetry_suite():
    """Antisymmetry, first Bianchi (mixed and lowered), third-slot trace
    identity, and the involutive pair antisymmetry, each <= 1e-9."""
    worst = 0.0
    for name in LADDER:
        spec = builtin(name).spec
        nab = koszul_connection(spec)
        for p in sample_points(spec, 100, SEED):
            Kb = schouten_curvature(nab, p)
            cv = Kb.curv
            scale = max(1.0, abs(cv).max())
            cyc = cv + cv.transpose(1, 2, 0, 3) + cv.transpose(2, 0, 1, 3)
            worst = max(worst, abs(cyc).max() / scale)
            lw = Kb.lowered
            cyc = lw + lw.transpose(1, 2, 0, 3) + lw.transpose(2, 0, 1, 3)
            worst = max(worst, abs(cyc).max() / scale)
            ev = Evaluation(spec, None, p[None])
            raw = ev.rawK[0]
            worst = max(worst, abs(raw + raw.transpose(1, 0, 2, 3)).max() / scale)
            ric, ric2 = Kb.ricci, Kb.second_contraction()
            worst = max(worst, abs(ric2 + ric2.T).max() / scale,
                        abs(ric2 - (ric - ric.T)).max() / scale)
            if abs(ev.brackets.Mc[0]).max(initial=0.0) <= 1e-12:
                worst = max(worst, abs(lw + lw.transpose(0, 1, 3, 2)).max() / scale)
    _report(f"A07 Bianchi/symmetry suite: {'PASS' if worst <= 1e-9 else 'FAIL'} "
            f"(worst rel {worst:.2e})")
    assert worst <= 1e-9


def test_a08_jet_vs_finite_difference():
    """100 random (expression, point, direction) triples from the catalog:
    jet directional derivative vs central difference (step 1e-5) <= 1e-6."""
    pool = []
    for name in LADDER:
        entry = builtin(name)
        spec = entry.spec
        exprs = [e for vf in spec.hframe + spec.vframe for e in vf.components]
        exprs += [e for row in spec.metric for e in row]
        pool += [(spec, e) for e in exprs]
        for variant in entry.pi_variants:
            pool += [(spec, x) for x in
                     (parse_expr(t, spec) for t in variant.expressions)]
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        spec, expr = pool[rng.integers(len(pool))]
        point = sample_points(spec, 1, int(rng.integers(1 << 30)))[0]
        frame = (spec.hframe + spec.vframe)[rng.integers(spec.n)]
        worst = max(worst, fd_crosscheck(expr, point, frame.components, 1e-5))
    _report(f"A08 jet vs finite difference: {'PASS' if worst <= 1e-6 else 'FAIL'} "
            f"(worst rel {worst:.2e})")
    assert worst <= 1e-6


def parse_expr(text, spec):
    from srclab.parser import parse_scalar_expression
    return parse_scalar_expression(text, spec.coords)


def test_a09_directional_checks_match_annotations():
    """Every entry x variant: suite outcomes equal the catalog annotations,
    nothing crashes, and skips occur only on rank-2 entries."""
    mismatches = []
    for name in catalog_names():
        entry = builtin(name)
        for variant in (None,) + tuple(v.name for v in entry.pi_variants):
            report = run_suite(entry.spec, entry.oneform(variant),
                               SuiteConfig(points=20, seed=SEED, flags=entry.flags))
            for rec in report.checks:
                status = "skip" if rec.skipped else ("pass" if rec.passed else "fail")
                if status != entry.expected_status(variant, rec.id):
                    mismatches.append((name, variant, rec.id, status))
                if rec.skipped and entry.spec.ell != 2:
                    mismatches.append((name, variant, rec.id, "unexpected skip"))
    ok = not mismatches
    _report(f"A09 annotated verdicts: {'PASS' if ok else 'FAIL'} "
            f"({len(mismatches)} mismatches)")
    assert ok, mismatches


def test_a10_frontend_round_trip_verify_and_corrupt_corpus(tmp_path, capsys):
    """Catalog round-trips; verify on heisenberg2 (default config) exits 0 with
    schema-valid JSON; the 10-case corrupt corpus produces located errors."""
    ok = True
    for name in catalog_names():
        doc = parse_document(builtin(name).source)
        again = parse_document(serialize_document(doc))
        ok &= again.spec == doc.spec

    out = tmp_path / "h2.json"
    rc = cli_main(["verify", "--builtin", "heisenberg2", "--json", str(out),
                   "--quiet"])
    capsys.readouterr()
    ok &= rc == 0
    from test_cli import REPORT_SCHEMA
    validate(json.loads(out.read_text()), REPORT_SCHEMA)

    assert len(CORRUPT_CASES) == 10
    for source, err, fragment in CORRUPT_CASES:
        with pytest.raises((ParseError, ValidationError)) as excinfo:
            parse_manifold(source)
        assert isinstance(excinfo.value, err)
        assert fragment in str(excinfo.value)
        line = getattr(excinfo.value, "line", None)
        ok &= line is None or line >= 1
    _report(f"A10 frontend: {'PASS' if ok else 'FAIL'}")
    assert ok
