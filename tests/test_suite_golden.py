"""The suite gives the reports recorded in data/suite_golden.json by
make_suite_golden.py: every catalog pair at 1, 40 and 65 sample points and
the mixed frame/one-form error spec.  Statuses, point counts and warnings
match exactly; residuals within 1e-13·max(1, |ref|), a bound fixed before
the check table was folded."""
import json
from pathlib import Path

import numpy as np
import pytest

from srclab.manifold import sample_points
from srclab.verifier import run_suite

from make_suite_golden import cases, golden

GOLDEN = json.loads((Path(__file__).parent / "data" / "suite_golden.json").read_text())
CASES = {key: (spec, pi, config) for key, spec, pi, config in cases()}
REL = 1e-13


def _oneform_nonzero(spec, pi, config) -> bool:
    return pi is not None and bool(np.any(
        pi.batch(sample_points(spec, config.points, config.seed)).values))


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_report_matches_golden(key):
    spec, pi, config = CASES[key]
    got, want = golden(run_suite(spec, pi, config)), GOLDEN[key]
    assert got["warnings"] == want["warnings"]
    for row, ref in zip(got["checks"], want["checks"], strict=True):
        assert row[:4] == ref[:4], (key, row, ref)
        for value, expected in zip(row[4:], ref[4:]):
            if np.isinf(expected):
                assert value == expected, (key, row, ref)
            else:
                assert abs(value - expected) <= REL * max(1.0, abs(expected)), (key, row, ref)
    c13 = got["checks"][12]
    if spec.ell >= 3 and _oneform_nonzero(spec, pi, config):
        assert c13[0] == "C13" and not c13[1], (key, c13)
