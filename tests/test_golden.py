"""Golden-file checks: report bytes are pinned, not just self-consistent."""

import json
from pathlib import Path

import pytest

from deltader import acceptance
from deltader.algebras import AlgebraSpec, wab
from deltader.cli import main
from deltader.dersolve import HALF, derivation_pairs
from deltader.exactlin import SparseVec
from deltader.literals import parse_element, parse_range, parse_scalar
from deltader.operators import WindowedMap, window_from_ranges

from test_dersolve import flatten, residual_reference
from test_exactlin import reference_nullspace

DATA = Path(__file__).parent / "data"


def run_to_bytes(tmp_path, argv):
    out = tmp_path / "report.json"
    code = main(argv + ["--json", str(out)])
    return code, out.read_bytes()


SOLVE_GOLDENS = [
    ("golden_solve_solv.json", ["--algebra", "solv", "--in", "1..3", "--out", "1..4"]),
    ("golden_solve_wittz.json", ["--algebra", "wittz", "--in", "-4..4", "--out", "-12..12"]),
    ("golden_solve_wittpos.json", ["--algebra", "wittpos", "--in", "1..9", "--out", "1..17"]),
    ("golden_solve_witt1.json", ["--algebra", "witt1", "--in", "-1..7", "--out", "-1..15"]),
    # nullity-2 blocks that mix e->e and e->f maps
    (
        "golden_solve_wab_2_3_m1.json",
        ["--algebra", "wab", "--a", "2/3", "--b", "-1", "--in", "-3..3", "--out", "-6..6"],
    ),
    (
        "golden_solve_wab_0_0.json",
        ["--algebra", "wab", "--a", "0", "--b", "0", "--in", "-3..3", "--out", "-6..6"],
    ),
    ("golden_solve_thin.json", ["--algebra", "thin", "--in", "1..10", "--out", "1..14"]),
]


@pytest.mark.parametrize("name, argv", SOLVE_GOLDENS, ids=[n for n, _ in SOLVE_GOLDENS])
def test_solve_report_matches_golden(tmp_path, monkeypatch, name, argv):
    families = []
    real_solve = acceptance.solve_half_derivations

    def solve(alg, w):
        families.append(real_solve(alg, w))
        return families[-1]

    monkeypatch.setattr(acceptance, "solve_half_derivations", solve)
    code, got = run_to_bytes(tmp_path, ["solve", *argv])
    assert code == 0
    assert got == (DATA / name).read_bytes()
    # the report prints the basis from the column vectors, building no map
    [family] = families
    assert "basis" not in vars(family)


def column_components(rows, ncols):
    """``(columns, rows)`` per connected component of the columns, joined by
    the rows' supports; a column in no row is a component of its own."""
    root = list(range(ncols))

    def find(c):
        while root[c] != c:
            c = root[c] = root[root[c]]
        return c

    for row in rows:
        first, *rest = row
        for c in rest:
            root[find(c)] = find(first)
    components = {find(c): ([], []) for c in range(ncols)}
    for c in range(ncols):
        components[find(c)][0].append(c)
    for row in rows:
        components[find(next(iter(row)))][1].append(row)
    return list(components.values())


SOLVE_GOLDEN_PATHS = sorted(DATA.glob("golden_solve_*.json"))


def golden_window(report):
    """``(algebra, window)`` of a solve report, from its ``inputsEcho``."""
    echo = report["inputsEcho"]
    if echo["algebra"] == "wab":
        alg = wab(parse_scalar(echo["a"]), parse_scalar(echo["b"]))
    else:
        alg = AlgebraSpec(echo["algebra"])
    return alg, window_from_ranges(alg, parse_range(echo["in"]), parse_range(echo["out"]))


@pytest.mark.parametrize("path", SOLVE_GOLDEN_PATHS, ids=lambda p: p.name)
def test_solve_golden_basis_is_the_dense_reference_nullspace(path):
    # the equations come from ``residual_at``, not from the solver's tables
    report = json.loads(path.read_text())
    alg, w = golden_window(report)
    matrix = residual_reference(alg, HALF, w, derivation_pairs(alg, w.keys))
    reference = []
    for columns, rows in column_components(matrix.rows, matrix.ncols):
        grid = [[row.get(c, 0) for c in columns] for row in rows]
        for v in reference_nullspace(grid, len(columns)):
            reference.append(SparseVec({columns[i]: x for i, x in v.items()}))
    # the canonical order: by free column, the last of each vector's support
    reference.sort(key=lambda v: v.support()[-1])
    golden = [
        WindowedMap(w, {parse_element(k).support()[0]: parse_element(v) for k, v in m.items()})
        for m in report["results"]["basis"]
    ]
    assert [flatten(m) for m in golden] == reference


def test_counterexamples_report_matches_golden(tmp_path):
    code, got = run_to_bytes(tmp_path, ["counterexamples", "--algebra", "thin"])
    assert code == 0
    assert got == (DATA / "golden_counterexamples_thin.json").read_bytes()


def test_solv_counterexamples_report_matches_golden(tmp_path):
    code, got = run_to_bytes(tmp_path, ["counterexamples", "--algebra", "solv"])
    assert code == 0
    assert got == (DATA / "golden_counterexamples_solv.json").read_bytes()


def test_check_map_report_matches_golden(tmp_path):
    # thin-delta is not a half-derivation: 6 violations, exit 1
    argv = ["check-map", "--algebra", "thin", "--in", "1..8", "--out", "1..9", "--map", "thin-delta"]
    code, got = run_to_bytes(tmp_path, argv)
    assert code == 1
    assert got == (DATA / "golden_check_map_thin_delta.json").read_bytes()
    assert len(json.loads(got)["results"]["violations"]) == 6


def test_verify_all_report_and_sweep_match_golden(tmp_path):
    # criterion 6 is red by design, so the run exits 1
    tsv = tmp_path / "sweep.tsv"
    code, got = run_to_bytes(tmp_path, ["verify-all", "--tsv", str(tsv)])
    assert code == 1
    assert got == (DATA / "golden_verify_all.json").read_bytes()
    assert tsv.read_bytes() == (DATA / "golden_verify_all_sweep.tsv").read_bytes()


LOCALITY_GOLDENS = [
    (
        "golden_local_thin_delta.json",
        ["local", "--algebra", "thin", "--in", "1..10", "--out", "1..14", "--map", "thin-delta"],
    ),
    (
        "golden_two_local_thin_nabla.json",
        ["two-local", "--algebra", "thin", "--in", "1..10", "--out", "1..14", "--map", "thin-nabla"],
    ),
    (
        "golden_local_thin_delta_e1_e3.json",
        ["local", "--algebra", "thin", "--in", "1..10", "--out", "1..14", "--map", "thin-delta",
         "--x", "e1+e3"],
    ),
    (
        "golden_two_local_thin_nabla_pair.json",
        ["two-local", "--algebra", "thin", "--in", "1..10", "--out", "1..14", "--map", "thin-nabla",
         "--x", "e1+e2", "--y", "-e1+e2"],
    ),
    (
        "golden_two_local_wab.json",
        ["two-local", "--algebra", "wab", "--a", "0", "--b", "-1", "--in", "-3..3", "--out", "-6..6",
         "--map", "wab:a={0:1};b={0:1}"],
    ),
]


@pytest.mark.parametrize("name, argv", LOCALITY_GOLDENS, ids=[n for n, _ in LOCALITY_GOLDENS])
def test_locality_report_matches_golden(tmp_path, name, argv):
    code, got = run_to_bytes(tmp_path, argv)
    assert code == 0
    assert got == (DATA / name).read_bytes()
    results = json.loads(got)["results"]
    points = results.get("elements") or results["pairs"]
    assert all(p["params"] is not None for p in points)


def test_unreached_target_local_report_matches_golden(tmp_path):
    # no family image reaches f5 from e0, so the one point is infeasible: exit 1
    argv = ["local", "--algebra", "wab", "--a", "0", "--b", "-1", "--in", "-3..3", "--out", "-6..6",
            "--map", "wab:b={5:1}", "--x", "e0"]
    code, got = run_to_bytes(tmp_path, argv)
    assert code == 1
    assert got == (DATA / "golden_local_wab_unreachable.json").read_bytes()
    results = json.loads(got)["results"]
    assert results["elements"] == [{"element": "e0", "feasible": False, "params": None}]
    assert results["allFeasible"] is False


def test_goldens_are_valid_reports():
    for name in (
        *(n for n, _ in SOLVE_GOLDENS),
        "golden_counterexamples_thin.json",
        "golden_counterexamples_solv.json",
        "golden_check_map_thin_delta.json",
        "golden_verify_all.json",
        *(n for n, _ in LOCALITY_GOLDENS),
        "golden_local_wab_unreachable.json",
    ):
        report = json.loads((DATA / name).read_text())
        assert report["schemaVersion"] == "1"
        assert report["timing"] == 0
