"""Acceptance suite: one test per criterion, zero-tolerance exact checks.

Every criterion prints a PASS/FAIL line. Criterion 6 pins the non-additivity
right-hand side to e2; exact evaluation of the probe map yields 2*e2, so that
criterion is expected red and is not weakened here (see the detail line it
prints and the failing-check message).
"""

import itertools
import random
from fractions import Fraction

import pytest

from deltader import acceptance, algebras
from deltader.algebras import E, F, wab, witt_pos, witt_z
from deltader.dersolve import FamilyBasis
from deltader.exactlin import SparseVec
from deltader.operators import window_from_ranges


def _run(criterion):
    result = criterion()
    print(result.line())
    for detail in result.details:
        print(f"    {detail}")
    assert result.passed, "; ".join(result.failed)


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


def test_each_criterion_is_registered_under_its_number():
    assert [r.number for r in acceptance.run_all()] == list(range(1, 11))
    assert len(acceptance.CRITERIA) == 10
    for n, fn in enumerate(acceptance.CRITERIA, start=1):
        assert fn is getattr(acceptance, f"criterion_{n}")
        assert fn.__name__ == f"criterion_{n}"


def test_a_criterion_that_yields_no_check_fails(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", [])

    @acceptance._criterion(11, "no checks")
    def empty():
        yield from ()

    assert acceptance.CRITERIA == [empty]
    result = empty()
    assert (result.number, result.title, result.passed) == (11, "no checks", False)
    assert result.details == result.failed == ()
    # run_all reads the list it finds when it runs
    assert acceptance.run_all() == [result]


# Small fixtures for the catch tests, the sizes of the retired quick suite:
# criterion 1's axiom box per algebra and criterion 10's (inner, outer) windows.
SMALL_AXIOM_BOXES = {
    "wittz": (-4, 4), "wittpos": (1, 8), "witt1": (-1, 7), "wab": (-4, 4), "thin": (1, 8), "solv": (1, 8),
}
SMALL_COMMUTATOR_WINDOWS = (((-3, 3), (-6, 6)), ((-6, 6), (-9, 9)))


def _small_boxes(monkeypatch):
    """Criterion 1 checks each algebra on its ``SMALL_AXIOM_BOXES`` box."""
    original = acceptance._bracket_axioms
    monkeypatch.setattr(
        acceptance, "_bracket_axioms", lambda alg, box: original(alg, SMALL_AXIOM_BOXES[alg.name])
    )


def test_criterion_10_reports_a_commutator_that_fails(monkeypatch):
    violation = [((E(1), E(2)), SparseVec({E(3): 1}))]
    monkeypatch.setattr(acceptance, "check_delta_derivation", lambda *args: violation)
    monkeypatch.setattr(acceptance, "COMMUTATOR_WINDOWS", SMALL_COMMUTATOR_WINDOWS)
    result = acceptance.criterion_10()
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


@pytest.mark.parametrize("small", [False, True], ids=["full", "small"])
def test_criterion_1_reports_every_algebra_and_axiom_in_order(monkeypatch, small):
    if small:
        _small_boxes(monkeypatch)
    result = acceptance.criterion_1()
    assert result.details == CRITERION_1_DETAILS
    assert result.passed


def test_criterion_1_catches_a_broken_antisymmetry(monkeypatch):
    _flip_sign(monkeypatch, witt_z(), {(E(1), E(2))})
    _small_boxes(monkeypatch)
    result = acceptance.criterion_1()
    assert not result.passed
    assert "wittz antisymmetry: FAILED" in result.details
    assert "wittpos antisymmetry: ok" in result.details


def test_criterion_1_catches_a_broken_jacobi_identity(monkeypatch):
    # negating both orders keeps antisymmetry; Jacobi fails at (e1, e2, e-3)
    _flip_sign(monkeypatch, witt_z(), {(E(1), E(2)), (E(2), E(1))})
    _small_boxes(monkeypatch)
    result = acceptance.criterion_1()
    assert not result.passed
    assert "wittz antisymmetry: ok" in result.details
    assert "wittz jacobi: FAILED" in result.details


def test_criterion_1_catches_a_broken_jacobi_identity_at_scale_two(monkeypatch):
    # [e1, f2] = -(3/2) f3 is stored as -3 at scale 2; negating both orders
    # keeps antisymmetry and breaks Jacobi on this algebra only
    alg = wab(Fraction(1, 2), -1)
    assert alg.scale == 2
    _flip_sign(monkeypatch, alg, {(E(1), F(2)), (F(2), E(1))})
    _small_boxes(monkeypatch)
    result = acceptance.criterion_1()
    assert not result.passed
    assert "wab(a=1/2,b=-1) antisymmetry: ok" in result.details
    assert "wab(a=1/2,b=-1) jacobi: FAILED" in result.details
    assert result.failed == ("wab(a=1/2,b=-1) jacobi: FAILED",)


JACOBI = acceptance._jacobi_holds


def _jacobi_by_triples(inner, outer) -> bool:
    """The oracle for ``acceptance._jacobi_holds``: one defect dict per
    unordered triple, summed per key, on the same tables."""
    for a, b, c in itertools.combinations_with_replacement(range(len(inner)), 3):
        defect: dict = {}
        for x, t in ((a, inner[b][c]), (b, inner[c][a]), (c, inner[a][b])):
            if t is not None:
                o = outer[x][t[0]]
                if o is not None:
                    defect[o[0]] = defect.get(o[0], 0) + t[1] * o[1]
        if any(defect.values()):
            return False
    return True


def _axiom_tables(monkeypatch, small):
    """The (inner, outer) tables criterion 1 checks Jacobi on, one pair per
    algebra in catalogue order, and its result; with ``small``, on the
    ``SMALL_AXIOM_BOXES``."""
    tables = []
    if small:
        _small_boxes(monkeypatch)

    def record(inner, outer):
        tables.append((inner, outer))
        return JACOBI(inner, outer)

    monkeypatch.setattr(acceptance, "_jacobi_holds", record)
    return tables, acceptance.criterion_1()


@pytest.mark.parametrize("small", [False, True], ids=["full", "small"])
def test_the_jacobi_loop_agrees_with_the_triple_oracle_on_every_algebra(monkeypatch, small):
    tables, result = _axiom_tables(monkeypatch, small)
    assert result.details == CRITERION_1_DETAILS
    assert len(tables) == 9
    for inner, outer in tables:
        assert JACOBI(inner, outer) is _jacobi_by_triples(inner, outer) is True


def _negated(inner, outer, cells):
    """Copies of the tables with the constant at each (row, column) of
    ``outer`` in ``cells`` negated; a box column's constant is ``inner``'s too."""
    inner, outer = [list(row) for row in inner], [list(row) for row in outer]
    for a, col in cells:
        key, c = outer[a][col]
        outer[a][col] = key, -c
        if col < len(inner):
            inner[a][col] = inner[a][col][0], -c
    return inner, outer


def test_the_jacobi_loop_agrees_with_the_oracle_on_every_sign_flip(monkeypatch):
    # every single constant of each small table, and both orders of every
    # pair of box keys; a flip keeps every term of a triple on one key
    tables, _ = _axiom_tables(monkeypatch, small=True)
    verdicts = set()
    for inner, outer in tables:
        n = len(inner)
        cells = [(a, col) for a, row in enumerate(outer) for col, o in enumerate(row) if o]
        pairs = [((a, b), (b, a)) for a, b in itertools.combinations(range(n), 2) if outer[a][b]]
        for flip in [(cell,) for cell in cells] + pairs:
            mutated = _negated(inner, outer, flip)
            verdict = JACOBI(*mutated)
            assert verdict is _jacobi_by_triples(*mutated), flip
            verdicts.add(verdict)
    assert verdicts == {False, True}


@pytest.mark.parametrize("small", [False, True], ids=["full", "small"])
def test_a_term_moved_to_another_key_fails_jacobi_in_both_loops(monkeypatch, small):
    # [e1, e_m] = (m-1) e_{m+2} instead of e_{m+1}, in both orders, for e_m
    # the first key past the box: only outer terms move. Each triple through
    # one then has terms on two keys whose values sum to 0, as (e1, e2, e3)
    # on the small box; only the per-key sum sees the defect.
    alg = witt_z()
    record = alg.record
    original = record.rule
    m = (SMALL_AXIOM_BOXES["wittz"] if small else record.axiom_box)[1] + 1

    def moved(spec, k1, k2):
        term = original(spec, k1, k2)
        if spec == alg and {k1, k2} == {E(1), E(m)}:
            return E(m + 2), term[1]
        return term

    monkeypatch.setitem(algebras._RECORDS, record.name, record._replace(rule=moved))
    tables, result = _axiom_tables(monkeypatch, small)
    assert result.failed == ("wittz jacobi: FAILED",)
    assert _jacobi_by_triples(*tables[0]) is False


def _scaled_sum_members(families, count):
    """``count`` (inner, outer) members as criterion 10 drew them with
    ``scaled`` and ``+`` on the basis maps: the reference for its sums."""
    rng = random.Random(20240810)

    def member(fam):
        total = fam.basis[0].scaled(0)
        for b in fam.basis:
            total = total + b.scaled(Fraction(rng.randint(-3, 3), rng.choice([1, 2])))
        return total

    return [(member(families[0]), member(families[1])) for _ in range(count)]


@pytest.mark.parametrize("small", [False, True], ids=["full", "small"])
@pytest.mark.parametrize("scale", [1, Fraction(2, 3)], ids=["int", "fraction"])
def test_criterion_10_members_are_the_scaled_sums_of_the_basis(monkeypatch, small, scale):
    # a scale of 2/3 gives the families Fraction entries
    if small:
        monkeypatch.setattr(acceptance, "COMMUTATOR_WINDOWS", SMALL_COMMUTATOR_WINDOWS)
    families, members = [], []
    expected_family, commutator = acceptance.expected_family, acceptance.commutator

    def family(alg, w):
        fam = expected_family(alg, w)
        families.append(FamilyBasis(w, tuple(v._times(scale) for v in fam.vectors)))
        return families[-1]

    def recorded(outer, inner):
        members.append((inner, outer))
        return commutator(outer, inner)

    monkeypatch.setattr(acceptance, "expected_family", family)
    monkeypatch.setattr(acceptance, "commutator", recorded)
    assert acceptance.criterion_10().passed
    assert members == _scaled_sum_members(families, 10)
    entries = [x for pair in members for m in pair for v in m.image.values() for x in v._entries.values()]
    assert all(type(x) is int or x.denominator > 1 for x in entries)
    assert any(type(x) is Fraction for x in entries)


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


def test_certify_is_memoized_per_margin_in_a_scope(monkeypatch):
    # None means the record's frozen margin, so both spellings share one comparison
    calls = []
    original = acceptance.compare_families

    def counted(solved, expected, margin):
        calls.append(margin)
        return original(solved, expected, margin)

    monkeypatch.setattr(acceptance, "compare_families", counted)
    alg = witt_z()
    w = window_from_ranges(alg, (-3, 3), (-8, 8))
    frozen = acceptance.INTERIOR_MARGIN
    with acceptance.solve_scope():
        first = acceptance.certify(alg, w)
        assert acceptance.certify(alg, w, frozen) is first
        assert calls == [frozen]
        assert acceptance.certify(alg, w, frozen + 1)[2].interior_margin == frozen + 1
        assert calls == [frozen, frozen + 1]
    calls.clear()
    for margin in (None, frozen, None):
        acceptance.certify(alg, w, margin)
    assert calls == [frozen] * 3


def test_an_empty_interior_certifies_nothing():
    # wittpos 3..9/1..17 lacks e1 and e2, so no margin certifies it; at margin
    # 4 no input key is interior, and both containments hold vacuously there
    alg = witt_pos()
    w = window_from_ranges(alg, (3, 9), (1, 17))
    reports = [acceptance.certify(alg, w, margin)[2] for margin in range(6)]
    assert [r.certified for r in reports] == [False] * 6
    assert [r.dim_interior for r in reports] == [39, 39, 39, 15, 0, 0]
    assert reports[4].expected_contained and reports[4].solved_interior_contained


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
