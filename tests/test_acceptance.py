"""Acceptance suite: one test per criterion, zero-tolerance exact checks.

Every criterion prints a PASS/FAIL line. Criterion 6 pins the non-additivity
right-hand side to e2; exact evaluation of the probe map yields 2*e2, so that
criterion is expected red and is not weakened here (see the detail line it
prints and the failing-check message).
"""

from fractions import Fraction

import pytest

from deltader import acceptance, algebras
from deltader.algebras import E, F, wab, witt_z
from deltader.exactlin import SparseVec


def _run(criterion):
    result = criterion(quick=False)
    print(result.line())
    for detail in result.details:
        print(f"    {detail}")
    assert result.passed, "; ".join(d for d in result.details if "FAILED" in d)


def test_criterion_1_bracket_axioms():
    _run(acceptance.criterion_1)


def test_criterion_2_shift_containment():
    _run(acceptance.criterion_2)


def test_criterion_3_interior_completeness():
    _run(acceptance.criterion_3)


def test_criterion_4_wab_dichotomy():
    _run(acceptance.criterion_4)


def test_criterion_5_thin_local_counterexample():
    _run(acceptance.criterion_5)


def test_criterion_6_thin_two_local_counterexample():
    _run(acceptance.criterion_6)


def test_criterion_7_solvable_algebra():
    _run(acceptance.criterion_7)


def test_criterion_8_locality_scans():
    _run(acceptance.criterion_8)


def test_criterion_9_separating_point_injectivity():
    _run(acceptance.criterion_9)


def test_criterion_10_commutator_quarter_derivations():
    _run(acceptance.criterion_10)


def test_criterion_10_reports_a_commutator_that_fails(monkeypatch):
    violation = [((E(1), E(2)), SparseVec({E(3): 1}))]
    monkeypatch.setattr(acceptance, "check_delta_derivation", lambda *args: violation)
    result = acceptance.criterion_10(quick=True)
    assert not result.passed
    assert result.details == ("10 seeded commutators pass the quarter-derivation check: FAILED",)


def _flip_sign(monkeypatch, alg, pairs):
    """The rule of ``alg``'s record negates the scaled constant of each key pair on ``alg``.

    The record's rule is the one place ``structure_table`` (and so criterion
    1) reads the structure constants; specs built under the patch resolve
    the mutated record.
    """
    record = alg.record
    original = record.rule

    def mutated(spec, k1, k2):
        term = original(spec, k1, k2)
        if spec == alg and (k1, k2) in pairs and term is not None:
            return term[0], -term[1]
        return term

    monkeypatch.setitem(algebras._RECORDS, record.name, record._replace(rule=mutated))


CRITERION_1_DETAILS = tuple(
    f"{label} {axiom}: ok"
    for label in (
        "wittz", "wittpos", "witt1", "thin", "solv",
        "wab(a=0,b=0)", "wab(a=1,b=-1)", "wab(a=1/2,b=-1)", "wab(a=0,b=2)",
    )
    for axiom in ("antisymmetry", "jacobi")
)


@pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
def test_criterion_1_reports_every_algebra_and_axiom_in_order(quick):
    result = acceptance.criterion_1(quick=quick)
    assert result.details == CRITERION_1_DETAILS
    assert result.passed


def test_criterion_1_catches_a_broken_antisymmetry(monkeypatch):
    _flip_sign(monkeypatch, witt_z(), {(E(1), E(2))})
    result = acceptance.criterion_1(quick=True)
    assert not result.passed
    assert "wittz antisymmetry: FAILED" in result.details
    assert "wittpos antisymmetry: ok" in result.details


def test_criterion_1_catches_a_broken_jacobi_identity(monkeypatch):
    # negating both orders keeps antisymmetry; Jacobi fails at (e1, e2, e-3)
    _flip_sign(monkeypatch, witt_z(), {(E(1), E(2)), (E(2), E(1))})
    result = acceptance.criterion_1(quick=True)
    assert not result.passed
    assert "wittz antisymmetry: ok" in result.details
    assert "wittz jacobi: FAILED" in result.details


def test_criterion_1_catches_a_broken_jacobi_identity_at_scale_two(monkeypatch):
    # [e1, f2] = -(3/2) f3 is stored as -3 at scale 2; negating both orders
    # keeps antisymmetry and breaks Jacobi on this algebra only
    alg = wab(Fraction(1, 2), -1)
    assert alg.scale == 2
    _flip_sign(monkeypatch, alg, {(E(1), F(2)), (F(2), E(1))})
    result = acceptance.criterion_1(quick=True)
    assert not result.passed
    assert "wab(a=1/2,b=-1) antisymmetry: ok" in result.details
    assert "wab(a=1/2,b=-1) jacobi: FAILED" in result.details
    assert [d for d in result.details if "FAILED" in d] == ["wab(a=1/2,b=-1) jacobi: FAILED"]


def _count_solves(monkeypatch):
    calls = []
    original = acceptance.solve_half_derivations

    def counted(alg, w):
        calls.append((alg, w))
        return original(alg, w)

    monkeypatch.setattr(acceptance, "solve_half_derivations", counted)
    return calls


def test_run_all_solves_each_window_once_per_run(monkeypatch):
    calls = _count_solves(monkeypatch)
    for _ in range(2):
        calls.clear()
        results = acceptance.run_all()
        assert len(calls) == 13
        assert len(set(calls)) == 13
        assert [r.passed for r in results] == [n != 6 for n in range(1, 11)]


def test_run_all_certifies_each_window_once_per_run(monkeypatch):
    # criteria 2, 3, 4 and 7 ask for 18 certifications of 12 distinct windows
    calls = []
    original = acceptance.compare_families

    def counted(solved, expected, margin):
        calls.append(solved)
        return original(solved, expected, margin)

    monkeypatch.setattr(acceptance, "compare_families", counted)
    acceptance.run_all()
    assert len(calls) == len({id(solved) for solved in calls}) == 12


def test_run_all_builds_each_expected_family_once_per_run(monkeypatch):
    # the 12 certified windows, plus criterion 10's two Witt windows;
    # criterion 9 reads its six families from the certifications
    calls = []
    original = acceptance.expected_family

    def counted(alg, w):
        calls.append((alg, w))
        return original(alg, w)

    monkeypatch.setattr(acceptance, "expected_family", counted)
    acceptance.run_all()
    assert len(calls) == len(set(calls)) == 14


def test_criterion_called_alone_is_uncached(monkeypatch):
    calls = _count_solves(monkeypatch)
    with acceptance.solve_scope():
        acceptance.criterion_2()
    calls.clear()
    _run(acceptance.criterion_3)
    assert len(calls) == 7


def test_nested_scopes_share_one_memo(monkeypatch):
    calls = _count_solves(monkeypatch)
    with acceptance.solve_scope():
        acceptance.criterion_7()
        with acceptance.solve_scope():
            acceptance.criterion_7()
        acceptance.criterion_7()
    assert len(calls) == 1
