import os
import sys

import numpy as np
import pytest

import srclab
from srclab.catalog import builtin, catalog_names
from srclab.connections import (OneFormData, covariant_derivative_T, koszul_connection,
                                semi_connection, torsion)
from srclab.curvature import (characteristic_tensor, conformal_difference_formula,
                              conformal_tensor, projective_difference_formula,
                              projective_tensor, s_tensor, schouten_curvature)
from srclab.manifold import FRAME_CHUNK
from srclab.errors import RankTooSmall, ValidationError
from srclab.verifier import (CHECKS, CHECK_IDS, SuiteConfig, _passes,
                             check_flatness_criterion, check_group_manifold,
                             run_suite)
from srclab.parser import parse_manifold, parse_scalar_expression


def test_check_table_shape():
    assert len(CHECKS) == 18
    assert CHECK_IDS == tuple(f"C{i:02d}" for i in range(1, 19))
    assert len(set(CHECK_IDS)) == 18
    for check in CHECKS:
        assert check.meta.tolerance > 0
        assert check.meta.description
        assert check.meta.paper_ref


def test_heisenberg1_suite():
    entry = builtin("heisenberg1")
    report = run_suite(entry.spec, None,
                       SuiteConfig(points=20, seed=11, flags=entry.flags))
    skipped = {r.id for r in report.checks if r.skipped}
    assert skipped == {"C12", "C13", "C15"}
    for r in report.checks:
        if not r.skipped:
            assert r.passed, (r.id, r.max_rel_residual)
    assert report.passed()


def test_heisenberg2_with_constant_oneform():
    entry = builtin("heisenberg2")
    pi = entry.oneform("const")
    report = run_suite(entry.spec, pi,
                       SuiteConfig(points=20, seed=11, flags=entry.flags))
    assert not any(r.skipped for r in report.checks)
    for r in report.checks:
        if r.id == "C13":
            assert not r.passed          # tabulated closed form is inconsistent
            assert r.max_rel_residual > 0.01
        else:
            assert r.passed, (r.id, r.max_rel_residual)
    assert abs(report.record("C11").max_abs_residual) <= 1e-10


def test_flat_spec_residuals_are_rounding_level():
    entry = builtin("flat3")
    report = run_suite(entry.spec, None,
                       SuiteConfig(points=20, seed=11, flags=entry.flags))
    for r in report.checks:
        if not r.skipped:
            assert r.max_abs_residual <= 1e-12, r.id
    assert report.passed()


def test_determinism():
    entry = builtin("curved-metric-l3")
    pi = entry.oneform("trig")
    cfg = SuiteConfig(points=10, seed=5)
    r1 = run_suite(entry.spec, pi, cfg)
    r2 = run_suite(entry.spec, pi, cfg)
    assert r1 == r2


def test_monotonicity_in_points():
    entry = builtin("involutive-l3")
    pi = entry.oneform("linear")
    small = run_suite(entry.spec, pi, SuiteConfig(points=10, seed=5))
    large = run_suite(entry.spec, pi, SuiteConfig(points=30, seed=5))
    for rs, rl in zip(small.checks, large.checks):
        if rs.skipped:
            assert rl.skipped
            continue
        assert rl.max_rel_residual >= rs.max_rel_residual
        assert rl.max_abs_residual >= rs.max_abs_residual
    c13s, c13l = small.record("C13"), large.record("C13")
    assert not c13s.passed and not c13l.passed


def test_annotations_match_every_entry_and_variant():
    for name in catalog_names():
        entry = builtin(name)
        for variant in (None,) + tuple(v.name for v in entry.pi_variants):
            report = run_suite(entry.spec, entry.oneform(variant),
                               SuiteConfig(points=8, seed=2, flags=entry.flags))
            for rec in report.checks:
                status = "skip" if rec.skipped else ("pass" if rec.passed else "fail")
                assert status == entry.expected_status(variant, rec.id), \
                    (name, variant, rec.id, status, rec.max_rel_residual)


def test_skips_only_on_rank_two_entries():
    for name in catalog_names():
        entry = builtin(name)
        report = run_suite(entry.spec, entry.oneform(entry.pi_variants[0].name),
                           SuiteConfig(points=5, seed=9, flags=entry.flags))
        skipped = {r.id for r in report.checks if r.skipped}
        if entry.spec.ell == 2:
            assert skipped == {"C12", "C13", "C15"}
            for r in report.checks:
                if r.skipped:
                    assert r.skipped_reason == "RankTooSmall"
        else:
            assert skipped == set()


def test_conditional_checks_evaluate_on_tuned_oneforms():
    entry = builtin("free-step2-l3")
    cfg = SuiteConfig(points=15, seed=4, flags=entry.flags)
    rep_a = run_suite(entry.spec, entry.oneform("alpha-zero"), cfg)
    assert rep_a.record("C15").points_evaluated == 15
    assert rep_a.record("C15").passed
    rep_p = run_suite(entry.spec, entry.oneform("proportional"), cfg)
    assert rep_p.record("C16").points_evaluated == 15
    assert rep_p.record("C16").passed
    # generic one-form: no qualifying point, vacuous pass
    rep_g = run_suite(entry.spec, entry.oneform("trig"), cfg)
    assert rep_g.record("C15").points_evaluated == 0
    assert rep_g.record("C15").passed


def test_involutive_check_counts_points():
    cfg = SuiteConfig(points=10, seed=4)
    rep_inv = run_suite(builtin("involutive-l3").spec, None, cfg)
    assert rep_inv.record("C08").points_evaluated == 10
    rep_h2 = run_suite(builtin("heisenberg2").spec, None, cfg)
    assert rep_h2.record("C08").points_evaluated == 0
    assert rep_h2.record("C08").passed


def test_evaluation_errors_mark_checks_failed_without_aborting():
    """An error at a sample marks every check there failed and skips only that
    point: 4 of the 10 samples have x < 0."""
    cases = {
        "1 + sqrt(x), 0": "C01: DomainError: sqrt of negative value -0.9669447289429418",
        "x, 0": "C01: MetricNotSPD: Gram matrix not positive definite at "
                "[-0.9669447289429418, 0.6265404784005448, 0.8255111545554434]",
    }
    for metric_row, first_warning in cases.items():
        spec = parse_manifold(f"""\
manifold per-point-errors
dim 3
hdim 2
coords x y z
hframe
  X1 = dx
  X2 = dy
vframe
  Z = dz
metric rows
  {metric_row}
  0, 1
""")
        report = run_suite(spec, None, SuiteConfig(points=10, seed=0))
        assert {r.id for r in report.checks if r.skipped} == {"C12", "C13", "C15"}
        for r in report.checks:
            if not r.skipped:
                assert r.points_evaluated == 6 and not r.passed, (metric_row, r.id)
        assert len(report.warnings) == 15
        assert report.warnings[0] == first_warning
        assert not report.passed()


@pytest.mark.filterwarnings("error::RuntimeWarning")    # the suite silences numpy's own
def test_non_finite_residuals_fail_their_checks():
    """pi = (1e200, 0, 0, 0) overflows the curvature of the transformed
    connection: every residual built from it is NaN and fails, C03/C04 stay
    finite and pass, and C01/C02 do not see the one-form at all."""
    spec = builtin("heisenberg2").spec
    cfg = SuiteConfig(points=6, seed=3)
    huge = run_suite(spec, OneFormData.constant([1e200, 0.0, 0.0, 0.0], spec.n), cfg)
    plain = run_suite(spec, None, cfg)
    failed = {r.id for r in huge.checks if not r.passed}
    assert failed == {"C05", *(f"C{i:02d}" for i in range(9, 19))}
    assert huge.checks[:2] == plain.checks[:2]
    for r in huge.checks:
        if r.id in failed:
            assert r.points_evaluated == 0 and r.max_rel_residual == float("inf")
    assert len(huge.warnings) == len(failed)
    assert all("non-finite residual" in w for w in huge.warnings)
    assert not huge.passed()
    huge_pi = OneFormData.constant([1e200, 0.0, 0.0, 0.0], spec.n)
    assert check_group_manifold(spec, huge_pi, cfg).verdict == "inconclusive"


@pytest.mark.filterwarnings("error::RuntimeWarning")    # the suite silences numpy's own
def test_overflowing_oneform_marks_checks_failed_without_aborting():
    """exp(1000 x1) overflows where x1 > 0.71: those points are a DomainError
    for every check that reads the one-form; C01/C02 pass everywhere."""
    spec = builtin("heisenberg2").spec
    pi = OneFormData.from_expressions(
        [parse_scalar_expression(t, spec.coords) for t in ("exp(1000*x1)", "0", "0", "0")],
        spec.n)
    report = run_suite(spec, pi, SuiteConfig(points=10, seed=0))
    assert report.record("C01").passed and report.record("C01").points_evaluated == 10
    assert report.record("C02").passed and report.record("C02").points_evaluated == 10
    for cid in ("C03", "C04", "C09", "C13", "C18"):
        assert not report.record(cid).passed
    assert report.warnings[0].startswith("C03: DomainError: one-form not finite at ")


def test_points_below_one_rejected():
    for points in (0, -3):
        with pytest.raises(ValidationError):
            SuiteConfig(points=points)


def test_group_manifold_verdicts():
    for name in ("heisenberg1", "heisenberg2", "free-step2-l3", "flat3"):
        res = check_group_manifold(builtin(name).spec, None, SuiteConfig(points=10))
        assert res.verdict == "holds at samples", (name, res.evidence)
        assert res.evidence["max_curvature"] <= 1e-10

    entry = builtin("heisenberg2")
    res = check_group_manifold(entry.spec, entry.oneform("const"),
                               SuiteConfig(points=10))
    assert res.verdict == "fails"
    assert res.evidence["max_curvature"] > 0.5

    res = check_group_manifold(builtin("curved-metric-l3").spec, None,
                               SuiteConfig(points=10))
    assert res.verdict == "fails"


def test_flatness_criterion_records():
    entry = builtin("heisenberg2")
    res = check_flatness_criterion(entry.spec, entry.oneform("const"),
                                   SuiteConfig(points=10))
    assert res.implication_holds            # vacuously: R never vanishes
    assert all(row == (False, True, False) for row in res.per_point)

    res0 = check_flatness_criterion(builtin("free-step2-l3").spec, None,
                                    SuiteConfig(points=10))
    assert res0.implication_holds
    assert all(row == (True, True, True) for row in res0.per_point)

    entry = builtin("curved-metric-l3")
    res_g = check_flatness_criterion(entry.spec, entry.oneform("linear"),
                                     SuiteConfig(points=10))
    assert res_g.implication_holds
    assert all(row == (False, False, False) for row in res_g.per_point)

    with pytest.raises(RankTooSmall):
        check_flatness_criterion(builtin("heisenberg1").spec, None,
                                 SuiteConfig(points=5))


def test_report_json_dict_schema_fields():
    entry = builtin("heisenberg2")
    report = run_suite(entry.spec, None, SuiteConfig(points=5, seed=1))
    d = report.to_json_dict("2020-01-01T00:00:00+00:00")
    assert list(d) == ["schema_version", "manifold", "seed", "points", "jet_order",
                       "checks", "warnings", "timestamp"]
    assert d["manifold"] == "heisenberg2"
    assert d["jet_order"] == 2
    assert len(d["checks"]) == 18
    assert list(d["checks"][0]) == ["id", "description", "paper_ref",
                                    "max_abs_residual", "max_rel_residual",
                                    "tolerance", "pass", "skipped_reason"]


def test_tolerance_override():
    entry = builtin("curved-metric-l3")
    report = run_suite(entry.spec, None, SuiteConfig(points=5, seed=1, tol=1e-20))
    # machine-precision residuals are nonzero on a curved metric, so an
    # impossibly tight override must fail some check
    assert any(not r.passed and not r.skipped for r in report.checks)


def test_frame_condition_warning_reaches_report():
    text = """\
manifold near-degenerate
dim 3
hdim 2
coords x y z
hframe
  X1 = dx
  X2 = dx + 0.0000000001 dy
vframe
  Z = dz
metric identity
"""
    spec = parse_manifold(text)
    report = run_suite(spec, None, SuiteConfig(points=3, seed=0))
    assert any("condition number" in w for w in report.warnings)


def test_check_provenance_strings_unique():
    refs = [c.meta.paper_ref for c in CHECKS]
    assert len(set(refs)) == len(refs)


def test_record_pass_iff_within_tolerance():
    entry = builtin("heisenberg2")
    report = run_suite(entry.spec, entry.oneform("trig"),
                       SuiteConfig(points=10, seed=1, flags=entry.flags))
    for r in report.checks:
        if not r.skipped:
            assert r.passed == (r.max_rel_residual <= r.tolerance)


def test_concurrent_evaluation_matches_serial():
    """Pure pointwise evaluation is safe to fan out across threads."""
    from concurrent.futures import ThreadPoolExecutor

    from srclab.connections import koszul_connection
    from srclab.curvature import schouten_curvature
    from srclab.manifold import sample_points

    entry = builtin("curved-metric-l3")
    pts = sample_points(entry.spec, 24, 6)
    serial = [schouten_curvature(koszul_connection(entry.spec), p).curv for p in pts]
    conn = koszul_connection(parse_manifold(entry.source))   # compiled under the threads
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda p: schouten_curvature(conn, p).curv, pts))
    for a, b in zip(serial, parallel):
        assert (a == b).all()


def test_flatness_criterion_reports_errors_instead_of_aborting():
    """A point outside the one-form's domain and a non-finite curvature are
    errors, left out of the rows, and they make the verdict False."""
    fs = builtin("free-step2-l3").spec
    sqrt_pi = OneFormData.from_expressions(
        [parse_scalar_expression(t, fs.coords) for t in ("sqrt(x1)", "0", "0")], fs.n)
    res = check_flatness_criterion(fs, sqrt_pi, SuiteConfig(points=5, seed=0))
    assert res.errors == ("DomainError: sqrt of negative value -0.40057621892523043",)
    assert len(res.per_point) == 4 and not res.implication_holds
    h2 = builtin("heisenberg2").spec
    huge = check_flatness_criterion(h2, OneFormData.constant([1e200, 0.0, 0.0, 0.0], h2.n),
                                    SuiteConfig(points=3, seed=0))
    assert huge.per_point == () and not huge.implication_holds
    assert len(huge.errors) == 3
    assert all(e.startswith("DomainError: curvature or characteristic tensor not finite at ")
               for e in huge.errors)
    clean = check_flatness_criterion(h2, None, SuiteConfig(points=3, seed=0))
    assert clean.errors == () and len(clean.per_point) == 3 and clean.implication_holds


MIXED = """\
manifold mixed
dim 4
hdim 3
coords x y z w
hframe
  X1 = (x + 0.5 + sqrt((x + 0.5)*(x + 0.5))) dx
  X2 = dy + x dw
  X3 = (0.000000001 + 0.8 - y + sqrt((0.8 - y)*(0.8 - y))) dz
vframe
  W = dw
metric rows
  1 + y*y, 0, 0
  0, 1, 0
  0, 0, 2
"""


def test_mixed_frame_and_oneform_errors_pinned():
    """X1 vanishes where x <= -0.5 (SingularFrame), X3 is 1e-9 dz where
    y >= 0.8 (condition-number warnings), and the one-form leaves its domain
    where z <= -0.6 or x < -0.7, the latter inside the singular region.  Every
    figure below is the one the per-point evaluation gave: a frame error fails
    every check, a one-form error every check that reads the one-form, C04
    names the one-form's error first, and 100 points span two passes."""
    spec = parse_manifold(MIXED)
    pi = OneFormData.from_expressions(
        [parse_scalar_expression(t, spec.coords) for t in ("log(z + 0.6)", "sqrt(x + 0.7)", "y")],
        spec.n)
    config = SuiteConfig(points=100, seed=3)
    assert config.points > FRAME_CHUNK
    report = run_suite(spec, pi, config)
    frame_only = {"C01", "C02", "C06", "C07", "C08"}
    for r in report.checks:
        assert not r.passed and not r.skipped, r.id
        assert r.max_abs_residual == r.max_rel_residual == float("inf"), r.id
        want = 0 if r.id in ("C08", "C15", "C16", "C17") else 75 if r.id in frame_only else 62
        assert r.points_evaluated == want, r.id
    singular = ("SingularFrame: frame determinant 0.000e+00 below threshold at "
                "[-0.8287016657127513, -0.5263789868078006, 0.6025489304127938, "
                "0.16432407212873557]")
    assert report.warnings == (
        "frame condition number 1.642e+09 at [0.3210001348557896, 0.862927709482709, "
        "-0.5856176638379975, 0.26018039957068595]",
        "frame condition number 1.187e+09 at [0.09349481589142927, 0.8428549240675633, "
        "0.12584412975947346, 0.4878204147010943]",
        "frame condition number 1.260e+09 at [0.12983569006695017, 0.9296310991736529, "
        "-0.9977031725122052, -0.3192670678964682]",
        "frame condition number 2.505e+09 at [0.7525798244877075, 0.9248887626999003, "
        "-0.7286447871405848, -0.7692449746119772]",
        "frame condition number 1.075e+09 at [-0.1451683311447849, 0.884048838249373, "
        "-0.7613479997414854, 0.8880491440250753]",
        "frame condition number 2.847e+09 at [0.923620772478565, 0.9161340206568054, "
        "-0.16669390546189033, -0.06087301310886706]",
        *(f"{cid}: DomainError: sqrt of negative value -0.12870166571275132" if cid == "C04"
          else f"{cid}: {singular}" for cid in CHECK_IDS))
    koszul = check_group_manifold(spec, None, config)
    transformed = check_group_manifold(spec, pi, config)
    assert (koszul.verdict, len(koszul.evidence["errors"])) == ("inconclusive", 25)
    assert (transformed.verdict, len(transformed.evidence["errors"])) == ("inconclusive", 38)
    assert koszul.evidence["errors"][0] == transformed.evidence["errors"][0] == singular


def test_batched_pass_matches_point_functions():
    """Row i of one batched pass equals the public per-point functions at
    point i, for every catalog pair at 20 seeded points."""
    for name in catalog_names():
        entry = builtin(name)
        spec = entry.spec
        for variant in (None, *(v.name for v in entry.pi_variants)):
            pi = entry.oneform(variant) or OneFormData.zero(spec.ell, spec.n)
            nab, D = koszul_connection(spec), semi_connection(spec, pi)
            [ev] = _passes(spec, pi, SuiteConfig(points=20, seed=7, flags=entry.flags))
            for i, p in enumerate(ev.points):
                Kb, Rb = schouten_curvature(nab, p), schouten_curvature(D, p)
                ct = characteristic_tensor(spec, pi, p)
                pairs = [
                    (ev.nab.jets.values[i], nab.coefficients(p)),
                    (ev.nab.jets.grads[i], nab.coefficient_jets(p).grads),
                    (ev.D.jets.values[i], D.coefficients(p)),
                    (ev.D.jets.grads[i], D.coefficient_jets(p).grads),
                    (ev.nab.torsion()[i], torsion(nab, p)),
                    (ev.D.torsion()[i], torsion(D, p)),
                    (ev.nab.covariant_T()[i], covariant_derivative_T(nab, p)),
                    (ev.DT_D[i], covariant_derivative_T(D, p)),
                    (ev.ct.pi_lower[i], ct.pi_lower), (ev.ct.pi_mixed[i], ct.pi_mixed),
                    (ev.ct.alpha[i], ct.alpha),
                    (projective_difference_formula(ev.ct, spec, ev.points)[i],
                     projective_difference_formula(ct, spec, p)),
                ]
                for batch, ref in ((ev.Kb, Kb), (ev.Rb, Rb)):
                    pairs += [(batch.curv[i], ref.curv), (batch.ricci[i], ref.ricci),
                              (batch.scalar[i], ref.scalar)]
                pairs += [(ev.W_nab[i], projective_tensor(Kb, spec, p)),
                          (ev.W_D[i], projective_tensor(Rb, spec, p))]
                if spec.ell >= 3:
                    pairs += [(ev.S_nab[i], s_tensor(Kb, spec, p)),
                              (s_tensor(ev.Rb, spec, ev.points)[i], s_tensor(Rb, spec, p)),
                              (ev.C_nab[i], conformal_tensor(Kb, spec, p)),
                              (ev.C_D[i], conformal_tensor(Rb, spec, p)),
                              (conformal_difference_formula(ev.ct, spec, ev.points)[i],
                               conformal_difference_formula(ct, spec, p))]
                for k, (got, ref) in enumerate(pairs):
                    bound = 1e-13 * max(1.0, float(np.abs(ref).max()))
                    assert float(np.abs(got - ref).max()) <= bound, (name, variant, i, k)


def test_run_suite_calls_do_not_grow_with_points():
    """Python-level calls into srclab made by run_suite: FRAME_CHUNK points
    cost at most 1.1 times what one point costs, so no per-point loop is
    left in the evaluation."""
    entry = builtin("heisenberg2")
    pi = entry.oneform("trig")
    package = os.path.dirname(srclab.__file__) + os.sep

    def srclab_calls(points):
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            if event == "call" and frame.f_code.co_filename.startswith(package):
                count += 1

        config = SuiteConfig(points=points, seed=2, flags=entry.flags)
        sys.setprofile(profile)
        try:
            run_suite(entry.spec, pi, config)
        finally:
            sys.setprofile(None)
        return count

    srclab_calls(1)                  # compile the one-form outside the count
    one, chunk = srclab_calls(1), srclab_calls(FRAME_CHUNK)
    assert chunk <= 1.1 * one, (one, chunk)
