import pytest

from srclab.catalog import builtin, catalog_names
from srclab.errors import RankTooSmall
from srclab.verifier import (CHECKS, CHECK_IDS, SuiteConfig,
                             check_flatness_criterion, check_group_manifold,
                             run_suite)
from srclab.parser import parse_manifold


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

    spec = builtin("curved-metric-l3").spec
    conn = koszul_connection(spec)
    pts = sample_points(spec, 24, 6)
    serial = [schouten_curvature(conn, p).curv for p in pts]
    spec._cache.clear()
    conn._cache.clear()
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda p: schouten_curvature(conn, p).curv, pts))
    for a, b in zip(serial, parallel):
        assert (a == b).all()
