"""End-to-end CLI behaviour through click's in-process runner."""

import json

import pytest
from click.testing import CliRunner

from knotfill.cli import main
from knotfill.kappa import KappaTable
from knotfill.khovanov import KhTable, kh_table
from knotfill.diagram import braid_closure, parse_braid
from knotfill.symmetric import SymmetricPlat, quotient_template
from knotfill.tangles import template_to_json


@pytest.fixture()
def run():
    runner = CliRunner()

    def _run(*args, ok=True):
        result = runner.invoke(main, args, catch_exceptions=False)
        if ok:
            assert result.exit_code == 0, result.output
        return result

    return _run


def test_kh_trefoil_text(run):
    out = run("kh", "--braid", "1,1,1").output
    assert "delta\\h" in out
    assert "2 |   1   1   1" in out


def test_kh_json_round_trip(run):
    out = run("kh", "--braid", "1,-2,1,-2", "--format", "json").output
    data = json.loads(out)
    assert data["format"] == "kf-1"
    direct = kh_table(braid_closure(parse_braid("1,-2,1,-2")))
    assert KhTable.from_json_dict(data).entries == direct.entries


def test_kh_latex(run):
    out = run("kh", "--braid", "1,1,1", "--format", "latex").output
    assert out.startswith("\\begin{tabular}")


def test_kh_mirror_flag(run):
    out = run("kh", "--braid", "1,1,1", "--mirror", "--format", "json").output
    entries = KhTable.from_json_dict(json.loads(out)).entries
    assert entries == {(0, -2): 1, (-2, -6): 1, (-3, -8): 1}


def test_kh_catalog_with_slope(run):
    out = run("kh", "--catalog", "trivial", "--slope", "3", "--format", "json").output
    assert sum(e["dim"] for e in json.loads(out)["entries"]) == 3


def test_kh_rational_slope(run):
    out = run("det", "--catalog", "trivial", "--slope", "7/2").output
    assert out.strip() == "7"


def test_width_figure_eight(run):
    assert run("width", "--braid", "1,-2,1,-2").output.strip() == "1"


def test_det_slope_zero(run):
    assert run("det", "--catalog", "trivial", "--slope", "0").output.strip() == "0"


def test_alexander_output(run):
    out = run("alexander", "--braid", "1,1,1").output
    assert "determinant = 3" in out
    assert "genus bound = 1" in out


def test_semigroup_trefoil(run):
    out = run("semigroup", "--braid", "1,1,1").output
    assert "actual semigroup = yes" in out


def test_semigroup_fig8_refuses(run):
    result = run("semigroup", "--catalog", "fig8", ok=False)
    assert result.exit_code != 0
    assert "not alternating" in result.output


def test_missing_pd_file(run):
    result = run("kh", "--pd", "missing.json", ok=False)
    assert result.exit_code != 0
    assert "no such file" in result.output


def test_kh_rejects_nonplanar_pd(run, tmp_path):
    path = tmp_path / "nonplanar.json"
    path.write_text(json.dumps({"pd": [[2, 2, 3, 1], [4, 1, 4, 3]]}))
    result = run("kh", "--pd", str(path), ok=False)
    assert result.exit_code == 1
    assert result.output.startswith("Error: PD code is not planar")
    assert "Traceback" not in result.output


def test_two_inputs_rejected(run):
    result = run("kh", "--braid", "1,1,1", "--catalog", "trefoil", ok=False)
    assert result.exit_code != 0
    assert "exactly one" in result.output


def test_template_needs_slope(run, tmp_path):
    rails = quotient_template(SymmetricPlat(1, ()), name="rails")
    path = tmp_path / "rails.json"
    path.write_text(json.dumps(template_to_json(rails)))
    result = run("kh", "--template", str(path), ok=False)
    assert "--slope" in result.output


def test_kappa_trivial(run):
    out = run("kappa", "--catalog", "trivial").output
    assert "transition N = -1" in out
    assert "kappa dimension = 1" in out
    assert "fill widths:" in out


def test_kappa_json_round_trip(run):
    out = run("kappa", "--catalog", "trivial", "--format", "json").output
    data = json.loads(out)
    assert data["format"] == "kf-1"
    assert data["N"] == -1
    assert KappaTable.from_json_dict(data["kappa"]).entries == {(0, 1): 1}


def test_kappa_template_file(run, tmp_path):
    rails = quotient_template(SymmetricPlat(1, ()), name="rails")
    path = tmp_path / "rails.json"
    path.write_text(json.dumps(template_to_json(rails)))
    out = run("kappa", "--template", str(path)).output
    assert "transition N = -1" in out


def test_kappa_rejects_template_that_is_no_twist_family(run, tmp_path):
    linked = quotient_template(SymmetricPlat(3, (1,)), name="linked")
    path = tmp_path / "linked.json"
    path.write_text(json.dumps(template_to_json(linked)))
    result = run("kappa", "--template", str(path), ok=False)
    assert result.exit_code == 1
    assert "Error: 'linked' is no twist family" in result.output


def test_kappa_range_without_transition(run):
    result = run("kappa", "--catalog", "trivial", "--range", "2..8", ok=False)
    assert result.exit_code != 0
    assert "widen" in result.output


def test_kappa_explicit_range(run):
    out = run("kappa", "--catalog", "trivial", "--range", "-6..6").output
    assert "transition N = -1" in out


def test_kappa_bad_range(run):
    result = run("kappa", "--catalog", "trivial", "--range", "7", ok=False)
    assert result.exit_code != 0


def test_validate_ok(run):
    out = run("validate", "--catalog", "trivial").output
    assert "FAIL" not in out


def test_validate_bad_template_fails(run, tmp_path):
    raw = quotient_template(SymmetricPlat(3, (2, 1, -3, 2)), name="raw")
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(template_to_json(raw)))
    result = run("validate", "--template", str(path), ok=False)
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_validate_json(run):
    out = run("validate", "--catalog", "trivial", "--format", "json").output
    assert json.loads(out)["ok"] is True


def test_selftest_green(run):
    out = run("selftest").output
    assert "0 failures" in out
    assert "FAIL" not in out


def test_unknown_catalog_name(run):
    result = run("kh", "--catalog", "borromean", ok=False)
    assert result.exit_code != 0
    assert "borromean" in result.output
