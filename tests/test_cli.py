import json
import re

from jsonschema import validate

from srclab.catalog import builtin
from srclab.cli import cli_main

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "manifold", "seed", "points", "jet_order",
                 "checks", "warnings", "timestamp"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": 1},
        "manifold": {"type": "string"},
        "seed": {"type": "integer"},
        "points": {"type": "integer", "minimum": 1},
        "jet_order": {"const": 2},
        "checks": {
            "type": "array",
            "minItems": 18,
            "maxItems": 18,
            "items": {
                "type": "object",
                "required": ["id", "description", "paper_ref", "max_abs_residual",
                             "max_rel_residual", "tolerance", "pass",
                             "skipped_reason"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string", "pattern": "^C[0-9]{2}$"},
                    "description": {"type": "string"},
                    "paper_ref": {"type": "string"},
                    "max_abs_residual": {"type": ["number", "null"]},
                    "max_rel_residual": {"type": ["number", "null"]},
                    "tolerance": {"type": "number"},
                    "pass": {"type": "boolean"},
                    "skipped_reason": {"type": ["string", "null"]},
                },
            },
        },
        "warnings": {"type": "array", "items": {"type": "string"}},
        "timestamp": {"type": "string"},
    },
}


def test_verify_heisenberg2_default_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli_main(["verify", "--builtin", "heisenberg2", "--json", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    validate(data, REPORT_SCHEMA)
    assert data["manifold"] == "heisenberg2"
    assert all(c["pass"] or c["skipped_reason"] for c in data["checks"])
    printed = capsys.readouterr().out
    assert "C01" in printed and "C18" in printed


def test_verify_json_byte_identical_except_timestamp(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--builtin", "involutive-l3", "--points", "7", "--seed", "3",
            "--quiet"]
    assert cli_main(args + ["--json", str(a)]) == 0
    assert cli_main(args + ["--json", str(b)]) == 0
    la = [ln for ln in a.read_text().splitlines() if '"timestamp"' not in ln]
    lb = [ln for ln in b.read_text().splitlines() if '"timestamp"' not in ln]
    assert la == lb


def test_verify_heisenberg1_skips_and_exits_zero(capsys):
    rc = cli_main(["verify", "--builtin", "heisenberg1", "--points", "5"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.count("SKIP (RankTooSmall)") == 3


def test_verify_nonzero_pi_reports_conformal_form_failure(capsys):
    rc = cli_main(["verify", "--builtin", "heisenberg2", "--points", "5",
                   "--pi", "const:1,0,0,0"])
    assert rc == 1       # C13's tabulated closed form is inconsistent
    printed = capsys.readouterr().out
    failing = [ln for ln in printed.splitlines() if "FAIL" in ln]
    assert len(failing) == 1 and failing[0].startswith("C13")


def test_verify_pi_from_file(tmp_path):
    pi_file = tmp_path / "pi.txt"
    pi_file.write_text("0\n0\n0\n0\n")
    rc = cli_main(["verify", "--builtin", "heisenberg2", "--points", "5",
                   "--pi", f"file:{pi_file}", "--quiet"])
    assert rc == 0


def test_verify_spec_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(builtin("flat3").source)
    assert cli_main(["verify", "--spec", str(path), "--points", "5", "--quiet"]) == 0


def test_spec_file_oneform_is_the_default_pi(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text(builtin("heisenberg2").source + "oneform 1, 0, 0, 0\n")
    rc = cli_main(["eval", "--spec", str(path), "--tensor", "alpha",
                   "--point", "0,0,0,0,0"])
    assert rc == 0
    assert abs(float(capsys.readouterr().out.strip()) - 1.0) <= 1e-14
    # an explicit --pi still overrides the bundled one-form
    rc = cli_main(["eval", "--spec", str(path), "--tensor", "alpha",
                   "--point", "0,0,0,0,0", "--pi", "const:0,0,0,0"])
    assert float(capsys.readouterr().out.strip()) == 0.0
    assert rc == 0


def test_eval_zero_curvature(capsys):
    rc = cli_main(["eval", "--builtin", "heisenberg1", "--tensor", "K",
                   "--point", "0.1,0.2,0.3"])
    assert rc == 0
    values = re.findall(r"-?\d+\.?\d*(?:e[+-]?\d+)?", capsys.readouterr().out)
    assert len(values) == 16
    assert all(float(v) == 0.0 for v in values)


def test_eval_scalar_curvature(capsys):
    rc = cli_main(["eval", "--builtin", "heisenberg2", "--tensor", "scalar-R",
                   "--point", "0.1,0.2,0.3,0.4,0.5", "--pi", "const:1,0,0,0"])
    assert rc == 0
    assert abs(float(capsys.readouterr().out.strip()) - 6.0) <= 1e-12


def test_eval_alpha(capsys):
    rc = cli_main(["eval", "--builtin", "heisenberg2", "--tensor", "alpha",
                   "--point", "0,0,0,0,0", "--pi", "const:1,0,0,0"])
    assert rc == 0
    assert abs(float(capsys.readouterr().out.strip()) - 1.0) <= 1e-14


def test_eval_negative_first_coordinate(capsys):
    args = ["eval", "--builtin", "heisenberg1", "--tensor", "E"]
    assert cli_main(args + ["--point", "-0.5,0.1,0.2"]) == 0
    spaced = capsys.readouterr().out
    assert cli_main(args + ["--point=-0.5,0.1,0.2"]) == 0
    assert spaced == capsys.readouterr().out
    assert "-0.05" in spaced                   # X1 = dx - (y/2) dz at y = 0.1
    assert cli_main(args + ["--point", "-x,0.1,0.2"]) == 2     # an option, not a point
    assert cli_main(args + ["--point", "-0.5,oops,0.2"]) == 2
    capsys.readouterr()


def test_catalog_and_checks_listings(capsys):
    assert cli_main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("heisenberg1", "heisenberg2", "free-step2-l3", "flat3",
                 "curved-metric-l3", "involutive-l3"):
        assert name in out
    assert cli_main(["checks"]) == 0
    out = capsys.readouterr().out
    for i in range(1, 19):
        assert f"C{i:02d}" in out


def test_parse_command(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text(builtin("heisenberg2").source)
    assert cli_main(["parse", str(good)]) == 0
    assert "OK" in capsys.readouterr().out

    bad = tmp_path / "bad.txt"
    bad.write_text("manifold broken\ndim 3\n")
    assert cli_main(["parse", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys, tmp_path):
    assert cli_main(["verify", "--builtin", "nope", "--points", "2"]) == 2
    assert cli_main(["verify"]) == 2
    assert cli_main(["eval", "--builtin", "heisenberg1", "--tensor", "K",
                     "--point", "0.1,0.2"]) == 2          # wrong point length
    assert cli_main(["verify", "--builtin", "heisenberg2", "--points", "2",
                     "--pi", "const:1,0"]) == 2           # wrong pi length
    assert cli_main(["verify", "--spec", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


def test_bad_subcommand_exits_two(capsys):
    assert cli_main(["frobnicate"]) == 2
    capsys.readouterr()


def test_eval_rank_guarded_tensor_exits_two(capsys):
    rc = cli_main(["eval", "--builtin", "heisenberg1", "--tensor", "S",
                   "--point", "0.1,0.2,0.3"])
    assert rc == 2
    assert "rank" in capsys.readouterr().err
