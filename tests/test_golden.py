"""Golden-file checks: report bytes are pinned, not just self-consistent."""

import json
from pathlib import Path

from deltader.cli import main

DATA = Path(__file__).parent / "data"


def run_to_bytes(tmp_path, argv):
    out = tmp_path / "report.json"
    code = main(argv + ["--json", str(out)])
    return code, out.read_bytes()


def test_solve_report_matches_golden(tmp_path):
    code, got = run_to_bytes(
        tmp_path, ["solve", "--algebra", "solv", "--in", "1..3", "--out", "1..4"]
    )
    assert code == 0
    assert got == (DATA / "golden_solve_solv.json").read_bytes()


def test_counterexamples_report_matches_golden(tmp_path):
    code, got = run_to_bytes(tmp_path, ["counterexamples", "--algebra", "thin"])
    assert code == 0
    assert got == (DATA / "golden_counterexamples_thin.json").read_bytes()


def test_verify_all_report_and_sweep_match_golden(tmp_path):
    # criterion 6 is red by design, so the run exits 1
    tsv = tmp_path / "sweep.tsv"
    code, got = run_to_bytes(tmp_path, ["verify-all", "--tsv", str(tsv)])
    assert code == 1
    assert got == (DATA / "golden_verify_all.json").read_bytes()
    assert tsv.read_bytes() == (DATA / "golden_verify_all_sweep.tsv").read_bytes()


def test_goldens_are_valid_reports():
    for name in (
        "golden_solve_solv.json",
        "golden_counterexamples_thin.json",
        "golden_verify_all.json",
    ):
        report = json.loads((DATA / name).read_text())
        assert report["schemaVersion"] == "1"
        assert report["timing"] == 0
