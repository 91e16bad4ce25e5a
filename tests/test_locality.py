"""Local and 2-local feasibility, propagation scans, counterexamples."""

import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deltader import exactlin, locality
from deltader.acceptance import ZERO_PROPAGATION_INFEASIBLE_C
from deltader.algebras import E, F, solv_abelian, thin, wab, witt_pos, witt_z
from deltader.dersolve import expected_family, solve_half_derivations
from deltader.exactlin import RowSpace, SparseVec, solve_feasible
from deltader.locality import (
    certify_nonadditive,
    deterministic_sample,
    local_feasible_at,
    two_local_feasible_at,
    wab_f_scan,
    zero_propagation_scan,
)
from deltader.operators import (
    SolvDeltaBar,
    ThinLocalDelta,
    ThinNabla,
    WindowTooSmall,
    WindowedMap,
    evaluate,
    window_from_ranges,
)

from test_dersolve import family_of
from test_exactlin import apply, dot, pack, split
from test_operators import identity_map

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def thin_family():
    alg = thin()
    w = window_from_ranges(alg, (1, 10), (1, 14))
    return alg, w, solve_half_derivations(alg, w)


@pytest.fixture(scope="module")
def solv_family():
    alg = solv_abelian()
    w = window_from_ranges(alg, (1, 8), (1, 8))
    return alg, w, solve_half_derivations(alg, w)


@pytest.fixture(scope="module")
def wab_family():
    alg = wab(0, -1)
    w = window_from_ranges(alg, (-3, 3), (-6, 6))
    return alg, w, solve_half_derivations(alg, w)


def params_match(family, params, x, target):
    combined = SparseVec()
    for idx, coeff in params.entries.items():
        combined = combined + family.basis[idx].evaluate(x).scaled(coeff)
    return combined == target


class TestLocalFeasibility:
    def test_thin_case_without_e1(self, thin_family):
        alg, w, family = thin_family
        x = SparseVec({E(3): 1, E(5): 1})
        report = local_feasible_at(ThinLocalDelta(), x, family)
        assert report.feasible
        assert params_match(family, report.params, x, SparseVec({E(3): HALF, E(5): Fraction(7, 8)}))

    def test_thin_case_with_e1(self, thin_family):
        alg, w, family = thin_family
        x = SparseVec({E(1): 1, E(3): 1})
        report = local_feasible_at(ThinLocalDelta(), x, family)
        assert report.feasible
        # the matched member reproduces delta(x) = (1/2) e3
        assert params_match(family, report.params, x, SparseVec({E(3): HALF}))

    def test_solv_delta_bar_at_mixed_element(self, solv_family):
        alg, w, family = solv_family
        x = SparseVec({E(1): 1, E(2): 1})
        report = local_feasible_at(SolvDeltaBar(), x, family)
        assert report.feasible
        assert params_match(family, report.params, x, SparseVec({E(2): 1}))

    def test_infeasible_candidate(self, solv_family):
        alg, w, family = solv_family
        bad = WindowedMap(
            w, {k: (SparseVec({E(3): 1}) if k == E(2) else SparseVec()) for k in w.keys}
        )
        report = local_feasible_at(bad, SparseVec({E(2): 1}), family)
        assert not report.feasible
        assert report.params is None

    def test_off_window_element(self, solv_family):
        alg, w, family = solv_family
        with pytest.raises(WindowTooSmall):
            local_feasible_at(SolvDeltaBar(), SparseVec({E(20): 1}), family)

    def test_identity_always_feasible(self, thin_family):
        alg, w, family = thin_family
        sample = deterministic_sample(w.keys)
        reports = [local_feasible_at(identity_map(w), x, family) for x in sample]
        assert all(r.feasible for r in reports)

    def test_check_local_paper_sample(self, thin_family):
        alg, w, family = thin_family
        sample = [
            SparseVec({E(1): 1}),
            SparseVec({E(2): 1}),
            SparseVec({E(1): 1, E(4): 1}),
            SparseVec({E(2): 1, E(7): 3}),
            SparseVec({E(1): 2, E(3): -1, E(6): 1}),
        ]
        reports = [local_feasible_at(ThinLocalDelta(), x, family) for x in sample]
        assert all(r.feasible for r in reports)

    def test_family_self_locality(self, solv_family):
        alg, w, family = solv_family
        sample = deterministic_sample(w.keys)[:6]
        for member in family.basis:
            for x in sample:
                assert local_feasible_at(member, x, family).feasible


class TestTwoLocalFeasibility:
    def test_nabla_cases(self, thin_family):
        alg, w, family = thin_family
        nabla = ThinNabla()
        cases = [
            (SparseVec({E(2): 1, E(3): 1}), SparseVec({E(4): 5})),  # both without e1
            (SparseVec({E(2): 1}), SparseVec({E(1): 1, E(2): 1})),  # one with e1
            (SparseVec({E(1): 1, E(2): 1}), SparseVec({E(1): -1, E(2): 1, E(3): 1})),
        ]
        for x, y in cases:
            assert two_local_feasible_at(nabla, x, y, family).feasible

    def test_two_local_implies_local_with_same_params(self, thin_family):
        alg, w, family = thin_family
        nabla = ThinNabla()
        x = SparseVec({E(1): 1, E(4): 2})
        y = SparseVec({E(1): -2, E(6): 1})
        report = two_local_feasible_at(nabla, x, y, family)
        assert report.feasible
        assert params_match(family, report.params, x, evaluate(nabla, x))
        assert params_match(family, report.params, y, evaluate(nabla, y))

    @pytest.mark.parametrize("y, outside", [(E(30), "[e30]"), (F(2), "[f2]")])
    def test_point_outside_the_window_is_refused_before_evaluation(self, thin_family, y, outside):
        # thin-delta is undefined at f2: the guard must come before the candidate is read
        alg, w, family = thin_family
        with pytest.raises(WindowTooSmall, match=re.escape(f"element uses {outside} outside")):
            two_local_feasible_at(ThinLocalDelta(), SparseVec({E(1): 1}), SparseVec({y: 1}), family)

    @given(lam=st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool))
    @settings(max_examples=15, deadline=None)
    def test_homogeneity_pairs_feasible(self, lam):
        alg = thin()
        w = window_from_ranges(alg, (1, 8), (1, 10))
        family = solve_half_derivations(alg, w)
        x = SparseVec({E(1): 1, E(3): 2})
        report = two_local_feasible_at(ThinNabla(), x, x.scaled(lam), family)
        assert report.feasible


class TestZeroPropagationScan:
    def test_zero_value_feasible(self):
        alg = witt_z()
        w = window_from_ranges(alg, (-4, 4), (-6, 6))
        family = solve_half_derivations(alg, w)
        reports = zero_propagation_scan(SparseVec(), 0, (1, 2, 3), family)
        assert all(r.feasible for r in reports)

    def test_wittz_value_e1_infeasible_for_all_c(self):
        alg = witt_z()
        w = window_from_ranges(alg, (-6, 6), (-10, 10))
        family = solve_half_derivations(alg, w)
        reports = zero_propagation_scan(SparseVec({E(1): 1}), 0, range(1, 11), family)
        assert [r.feasible for r in reports] == [False] * 10

    def test_wittpos_analogue(self):
        alg = witt_pos()
        w = window_from_ranges(alg, (1, 9), (1, 13))
        family = solve_half_derivations(alg, w)
        reports = zero_propagation_scan(SparseVec({E(2): 1}), 1, range(1, 8), family)
        assert not any(r.feasible for r in reports)

    def test_next_key_outside_the_window_raises_without_c_values(self, thin_family):
        alg, w, family = thin_family
        with pytest.raises(WindowTooSmall, match=re.escape("[e11]")):
            zero_propagation_scan(SparseVec(), 10, (), family)


class TestWabFScan:
    def test_zero_value_feasible(self, wab_family):
        alg, w, family = wab_family
        assert wab_f_scan(SparseVec(), 0, family).feasible

    def test_shifted_f_value_infeasible(self, wab_family):
        alg, w, family = wab_family
        report = wab_f_scan(SparseVec({F(1): 1}), 0, family)
        assert not report.feasible
        assert report.points == (SparseVec({F(0): 1, E(0): 1, E(1): 1}),)

    def test_scaled_f_value_infeasible(self, wab_family):
        alg, w, family = wab_family
        assert not wab_f_scan(SparseVec({F(0): 3}), 0, family).feasible

    def test_probe_outside_the_window_raises(self, wab_family):
        alg, w, family = wab_family
        with pytest.raises(WindowTooSmall, match=re.escape("[e4]")):
            wab_f_scan(SparseVec({F(3): 1}), 3, family)

    def test_rejects_e_support(self, wab_family):
        alg, w, family = wab_family
        with pytest.raises(ValueError):
            wab_f_scan(SparseVec({E(0): 1}), 0, family)


@pytest.fixture
def checked_solves(monkeypatch):
    """Every system locality solves, with an exact check of each answer and
    of the all-int form of the system."""
    seen = []

    def checked(rows, ncols):
        assert all(type(v) is int for row in rows for v in row.values())
        result = solve_feasible(rows, ncols)
        matrix, b = split(rows, ncols)
        if result.feasible:
            assert apply(matrix, result.solution) == b
        else:
            u = result.certificate
            for col in range(matrix.ncols):
                assert sum(u.get(i) * row.get(col, 0) for i, row in enumerate(matrix.rows)) == 0
            assert dot(u, b) == 1
        seen.append(result.feasible)
        return result

    monkeypatch.setattr(locality, "solve_feasible", checked)
    return seen


@pytest.fixture
def solved_systems(checked_solves, monkeypatch):
    """``(rows, ncols, result)`` of every system locality solves, each checked
    as in ``checked_solves``."""
    systems = []
    checked = locality.solve_feasible

    def record(rows, ncols):
        result = checked(rows, ncols)
        systems.append((rows, ncols, result))
        return result

    monkeypatch.setattr(locality, "solve_feasible", record)
    return systems


def full_system(family, points, targets):
    """The unscaled match system as augmented rows ``[A|b]``, b in column
    ``len(family.basis)``: row ``j * len(out) + i`` is point j's equation at
    the i-th output key, unreached keys included."""
    out = family.window.out_keys
    n = len(family.basis)
    rows = []
    for z, t in zip(points, targets):
        values = [m.evaluate(z) for m in family.basis]
        for o in out:
            rows.append({k: v.get(o) for k, v in enumerate(values) if o in v} | {n: t.get(o)})
    return list(pack(rows, n + 1).rows)


def _params(report):
    return None if report.params is None else report.params.entries


class TestScansMatchRecordedAnswers:
    """Scan verdicts and params pinned as exact values; every answer's
    solution or Farkas certificate is checked against its system."""

    def test_zero_propagation_scan(self, checked_solves):
        alg = witt_z()
        family = solve_half_derivations(alg, window_from_ranges(alg, (-4, 4), (-6, 6)))
        q = Fraction
        cases = [
            ({}, (1, 2, q(1, 2), -3), [{}, {}, {}, {}]),
            ({E(1): 1}, (1, 2, q(1, 2), -3), [None, None, None, None]),
            ({E(1): q(-1, 2), E(2): 1}, (1, 2, q(1, 2), -3), [None, None, {3: 1}, None]),
            ({E(0): -1, E(1): 1}, (1, 2, q(1, 2), -3), [{2: 1}, None, None, None]),
            (
                {E(-1): -4, E(0): 2, E(1): -1, E(2): q(1, 2)},
                (2, 1, 3),
                [{1: 2, 3: q(1, 2)}, None, None],
            ),
            (
                {E(-2): q(-1, 2), E(-1): 1, E(2): q(3, 2), E(3): -3},
                (q(1, 2), 1, 3),
                [{0: 1, 4: -3}, None, None],
            ),
            (
                {E(-2): 1, E(-1): 2, E(0): 2, E(1): 2, E(2): 2, E(3): 1},
                (-1, 1, 3),
                [{0: 1, 1: 1, 2: 1, 3: 1, 4: 1}, None, None],
            ),
        ]
        for value, cs, expected in cases:
            reports = zero_propagation_scan(SparseVec(value), 0, cs, family)
            assert [r.points for r in reports] == [(SparseVec({E(1): 1, E(0): -c}),) for c in cs]
            assert [r.feasible for r in reports] == [e is not None for e in expected]
            assert [_params(r) for r in reports] == expected
        assert checked_solves.count(False) == 16

    def test_wab_f_scan(self, wab_family, checked_solves):
        alg, w, family = wab_family
        q = Fraction
        cases = [
            (0, {}, {F(0): 1, E(0): 1, E(1): 1}, {}),
            (0, {F(1): 1}, {F(0): 1, E(0): 1, E(1): 1}, None),
            (0, {F(0): 3}, {F(0): 1, E(0): 1, E(1): 1}, None),
            (0, {F(0): 1, F(1): 2}, {F(0): 1, E(0): 1, E(2): 1}, None),
            (1, {F(1): 1, F(2): 1}, {F(1): 1, E(1): 1, E(3): 1}, None),
            (-1, {F(-1): q(1, 2), F(0): q(1, 2)}, {F(-1): 1, E(-1): 1, E(1): 1}, None),
        ]
        for m, value, probe, expected in cases:
            report = wab_f_scan(SparseVec(value), m, family)
            assert report.points == (SparseVec(probe),)
            assert report.feasible == (expected is not None)
            assert _params(report) == expected
        assert checked_solves.count(False) == 5


COEFFS = st.sampled_from((1, -1, 2, HALF, -3, Fraction(3, 4), 5, Fraction(-2, 3)))


class TestIntSystems:
    """Points and candidates with fractional coefficients still give all-int
    systems (checked in ``checked_solves``), whose params solve the unscaled
    equations."""

    @pytest.mark.parametrize("name", ["thin_family", "solv_family", "wab_family"])
    @given(data=st.data())
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_fractional_points_and_candidates(self, name, request, checked_solves, data):
        alg, w, family = request.getfixturevalue(name)

        def vec(keys):
            terms = st.dictionaries(st.sampled_from(keys), COEFFS, min_size=1, max_size=3)
            return SparseVec(data.draw(terms))

        x, y = vec(w.keys), vec(w.keys)
        # a family member with fractional coefficients, moved off the family
        # at a few keys of the points
        mix = data.draw(st.dictionaries(st.integers(0, len(family.basis) - 1), COEFFS, max_size=3))
        image = {
            k: sum((family.basis[i].image[k].scaled(c) for i, c in mix.items()), SparseVec())
            for k in w.keys
        }
        for k in data.draw(st.lists(st.sampled_from(x.support() + y.support()), max_size=2)):
            image[k] = image[k] + vec(w.out_keys)
        candidate = WindowedMap(w, image)
        for report in (
            local_feasible_at(candidate, x, family),
            two_local_feasible_at(candidate, x, y, family),
        ):
            if report.feasible:
                for z in report.points:
                    assert params_match(family, report.params, z, evaluate(candidate, z))


class TestUnreachedTargets:
    """A target key that no family image reaches at its point decides the
    query with one row, before any elimination."""

    def test_one_row_certificate_lifts_to_the_full_system(self, wab_family, solved_systems):
        alg, w, family = wab_family
        assert F(5) not in family.reach[E(0)]
        image = {k: SparseVec() for k in w.keys}
        image[E(1)] = family.basis[0].image[E(1)]
        image[E(0)] = SparseVec({E(0): 1, F(5): Fraction(3, 4)})
        candidate = WindowedMap(w, image)
        x, y = SparseVec({E(1): 1}), SparseVec({E(0): HALF})
        for points, report in (
            ((y,), local_feasible_at(candidate, y, family)),
            ((x, y), two_local_feasible_at(candidate, x, y, family)),
        ):
            assert not report.feasible and report.params is None
            rows, n, result = solved_systems[-1]
            # y's target is e0/2 + 3/8 f5, so d = 8 scales the f5 entry to 3
            assert (rows, n) == ([{n: 3}], len(family.basis))
            targets = [evaluate(candidate, z) for z in points]
            full = full_system(family, points, targets)
            full_a, full_b = split(full, n)
            row = (len(points) - 1) * len(w.out_keys) + w.out_keys.index(F(5))
            u = SparseVec({row: 8 * result.certificate.get(0)})
            for col in range(full_a.ncols):
                assert sum(u.get(i) * r.get(col, 0) for i, r in enumerate(full_a.rows)) == 0
            assert dot(u, full_b) == 1
            assert not solve_feasible(full, n).feasible
        assert len(solved_systems) == 2

    def test_the_report_carries_the_one_row_lift(self, wab_family, solved_systems):
        # the lift of test_one_row_certificate_lifts_to_the_full_system, by hand
        alg, w, family = wab_family
        image = {k: SparseVec() for k in w.keys}
        image[E(1)] = family.basis[0].image[E(1)]
        image[E(0)] = SparseVec({E(0): 1, F(5): Fraction(3, 4)})
        candidate = WindowedMap(w, image)
        x, y = SparseVec({E(1): 1}), SparseVec({E(0): HALF})
        for points, report in (
            ((y,), local_feasible_at(candidate, y, family)),
            ((x, y), two_local_feasible_at(candidate, x, y, family)),
        ):
            _, _, result = solved_systems[-1]
            j, out = len(points) - 1, w.out_keys
            assert report.certificate == SparseVec({(j, F(5)): 8 * result.certificate.get(0)})
            row = j * len(out) + out.index(F(5))
            lifted = {i * len(out) + out.index(o): v for (i, o), v in report.certificate.items()}
            assert SparseVec(lifted) == SparseVec({row: 8 * result.certificate.get(0)})

    @pytest.mark.parametrize(
        "value, params", [({E(3): 1}, None), ({E(4): 1}, {0: 1})], ids=["e3", "e4"]
    )
    def test_a_row_that_cancels_still_goes_through_elimination(
        self, solved_systems, value, params
    ):
        # member(e1 - e2) = 2 e4: e3 is reached by support, but its row sums to 0
        w = window_from_ranges(thin(), (1, 3), (1, 4))
        zero = {k: SparseVec() for k in w.keys}
        images = {E(1): SparseVec({E(3): 1, E(4): 1}), E(2): SparseVec({E(3): 1, E(4): -1})}
        family = family_of(w, [WindowedMap(w, {**zero, **images})])
        z = SparseVec({E(1): 1, E(2): -1})
        assert E(3) in family.reach[E(1)]
        candidate = WindowedMap(w, {**zero, E(1): SparseVec(value), E(2): SparseVec(value).scaled(-1)})
        report = local_feasible_at(candidate, z, family)
        [(rows, n, result)] = solved_systems
        assert split(rows, n)[0].rows == ({}, {0: 2})
        expected = solve_feasible(full_system(family, (z,), (evaluate(candidate, z),)), n)
        assert (report.feasible, _params(report)) == (expected.feasible, params)
        assert expected.solution == report.params


class TestMatchesTheFullSystem:
    """Verdicts and params equal those of the unscaled system with a row for
    every (point, output key), unreached ones included."""

    @pytest.mark.parametrize("name", ["thin_family", "solv_family", "wab_family"])
    @given(data=st.data())
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_local_and_two_local(self, name, request, checked_solves, data):
        alg, w, family = request.getfixturevalue(name)

        def vec(keys):
            terms = st.dictionaries(st.sampled_from(keys), COEFFS, min_size=1, max_size=3)
            return SparseVec(data.draw(terms))

        x, y = vec(w.keys), vec(w.keys)
        mix = data.draw(st.dictionaries(st.integers(0, len(family.basis) - 1), COEFFS, max_size=3))
        image = {
            k: sum((family.basis[i].image[k].scaled(c) for i, c in mix.items()), SparseVec())
            for k in w.keys
        }
        # moved off the family at output keys the family never reaches from k
        for k in data.draw(st.lists(st.sampled_from(x.support() + y.support()), max_size=2)):
            image[k] = image[k] + vec(sorted(set(w.out_keys) - family.reach[k]) or w.out_keys)
        candidate = WindowedMap(w, image)
        for points, report in (
            ((x,), local_feasible_at(candidate, x, family)),
            ((x, y), two_local_feasible_at(candidate, x, y, family)),
        ):
            full = full_system(family, points, [evaluate(candidate, z) for z in points])
            expected = solve_feasible(full, len(family.basis))
            assert (report.feasible, report.params) == (expected.feasible, expected.solution)

    @pytest.mark.parametrize("name", ["thin_family", "solv_family", "wab_family"])
    @given(data=st.data())
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_certificates_certify_the_full_system(self, name, request, data):
        # the carried certificate, keyed (j, o), is one of the unscaled
        # system; its row (j, o) is row j * len(out) + out.index(o) there
        alg, w, family = request.getfixturevalue(name)
        out, n = w.out_keys, len(family.basis)

        def vec(keys):
            terms = st.dictionaries(st.sampled_from(keys), COEFFS, min_size=1, max_size=3)
            return SparseVec(data.draw(terms))

        x, y = vec(w.keys), vec(w.keys)
        mix = data.draw(st.dictionaries(st.integers(0, n - 1), COEFFS, max_size=3))
        image = {
            k: sum((family.basis[i].image[k].scaled(c) for i, c in mix.items()), SparseVec())
            for k in w.keys
        }
        # moved off the family anywhere, or where the family never reaches
        anywhere = data.draw(st.booleans())
        for k in data.draw(st.lists(st.sampled_from(x.support() + y.support()), max_size=2)):
            keys = w.out_keys if anywhere else sorted(set(w.out_keys) - family.reach[k])
            image[k] = image[k] + vec(keys or w.out_keys)
        candidate = WindowedMap(w, image)
        for points, report in (
            ((x,), local_feasible_at(candidate, x, family)),
            ((x, y), two_local_feasible_at(candidate, x, y, family)),
        ):
            if report.feasible:
                assert report.certificate is None
                continue
            full = full_system(family, points, [evaluate(candidate, z) for z in points])
            a, b = split(full, n)
            u = SparseVec(
                {j * len(out) + out.index(o): v for (j, o), v in report.certificate.items()}
            )
            for col in range(n):
                assert sum(u.get(i) * row.get(col, 0) for i, row in enumerate(a.rows)) == 0
            assert dot(u, b) == 1


def _sends_e2_to_e3(w):
    return WindowedMap(w, {k: SparseVec({E(3): 1}) if k == E(2) else SparseVec() for k in w.keys})


class TestCertificateOnFirstRead:
    """A query eliminates once; its certificate is solved on its first read,
    and only then."""

    def test_one_elimination_per_query_until_a_certificate_is_read(
        self, thin_family, solv_family, wab_family, monkeypatch
    ):
        _, _, thin_fam = thin_family
        _, w, solv_fam = solv_family
        _, _, wab_fam = wab_family
        wz = witt_z()
        wz_fam = solve_half_derivations(wz, window_from_ranges(wz, (-6, 6), (-10, 10)))
        calls = []
        solve = exactlin._particular_solution

        def counted(rows, ncols):
            calls.append(ncols)
            return solve(rows, ncols)

        monkeypatch.setattr(exactlin, "_particular_solution", counted)
        bad = _sends_e2_to_e3(w)
        nabla = ThinNabla()
        e1e2, e2 = SparseVec({E(1): 1, E(2): 1}), SparseVec({E(2): 1})
        reports = [
            local_feasible_at(bad, e2, solv_fam),
            local_feasible_at(SolvDeltaBar(), e1e2, solv_fam),
            local_feasible_at(nabla, e1e2, thin_fam),
            two_local_feasible_at(nabla, e1e2, SparseVec({E(1): -1, E(2): 1}), thin_fam),
            two_local_feasible_at(bad, SparseVec({E(1): 1}), e2, solv_fam),
            *zero_propagation_scan(SparseVec({E(1): 1}), 0, ZERO_PROPAGATION_INFEASIBLE_C, wz_fam),
            *zero_propagation_scan(SparseVec(), 0, (1, 2, 3), wz_fam),
            wab_f_scan(SparseVec({F(1): 1}), 0, wab_fam),
            wab_f_scan(SparseVec(), 0, wab_fam),
        ]
        infeasible = sum(not r.feasible for r in reports)
        assert (len(reports), infeasible) == (20, 13)
        assert len(calls) == len(reports)
        for _ in range(2):  # a second read solves nothing
            assert [r.certificate is None for r in reports] == [r.feasible for r in reports]
            assert len(calls) == len(reports) + infeasible

    def test_reports_equal_whatever_their_solve(self, solv_family):
        _, w, family = solv_family
        bad = _sends_e2_to_e3(w)
        report = local_feasible_at(bad, SparseVec({E(2): 1}), family)
        again = local_feasible_at(bad, SparseVec({E(2): 1}), family)
        bare = dataclasses.replace(report, _solve=None)
        assert report == again == bare
        assert report.certificate == again.certificate is not None
        assert bare.certificate is None


class TestNonadditivity:
    def test_nabla_witness_exact_values(self):
        x = SparseVec({E(1): 1, E(2): 1})
        y = SparseVec({E(1): -1, E(2): 1})
        witness = certify_nonadditive(ThinNabla(), x, y)
        assert witness.nonadditive
        assert not witness.lhs
        assert witness.rhs == SparseVec({E(2): 2})

    def test_identity_additive(self):
        w = window_from_ranges(thin(), (1, 6), (1, 6))
        ident = identity_map(w)
        witness = certify_nonadditive(ident, SparseVec({E(2): 1}), SparseVec({E(3): 4}))
        assert not witness.nonadditive

    def test_nabla_additive_on_zero_first_stratum(self):
        witness = certify_nonadditive(ThinNabla(), SparseVec({E(2): 1}), SparseVec({E(3): 1}))
        assert not witness.nonadditive
        assert not witness.lhs and not witness.rhs


class TestSeparatingPoint:
    @pytest.mark.parametrize(
        "alg,ranges,k0",
        [
            (witt_z(), ((-3, 3), (-6, 6)), E(0)),
            (witt_pos(), ((1, 6), (1, 10)), E(1)),
            (wab(0, -1), ((-2, 2), (-4, 4)), E(0)),
            (solv_abelian(), ((1, 6), (1, 6)), E(1)),
        ],
        ids=lambda v: str(v),
    )
    def test_evaluation_injective_on_family(self, alg, ranges, k0):
        w = window_from_ranges(alg, *ranges)
        family = expected_family(alg, w)
        values = [m.evaluate(SparseVec({k0: 1})) for m in family.basis]
        assert RowSpace(values).dim == len(family)

    def test_thin_is_the_exception(self):
        # the beta generator vanishes at e1, so no single key separates
        alg = thin()
        w = window_from_ranges(alg, (1, 6), (1, 10))
        family = expected_family(alg, w)
        values = [m.evaluate(SparseVec({E(1): 1})) for m in family.basis]
        assert RowSpace(values).dim < len(family)


class TestWindowGuards:
    def test_zero_propagation_needs_both_probe_keys(self):
        alg = witt_z()
        w = window_from_ranges(alg, (-2, 2), (-4, 4))
        family = solve_half_derivations(alg, w)
        with pytest.raises(WindowTooSmall):
            zero_propagation_scan(SparseVec(), 2, (1,), family)

    def test_wab_scan_needs_probe_in_window(self, wab_family):
        alg, w, family = wab_family
        # support spread q'-p' = 6 puts the probe key e7 outside the window
        with pytest.raises(WindowTooSmall):
            wab_f_scan(SparseVec({F(-3): 1, F(3): 1}), 0, family)


class TestDeterministicSample:
    def test_reproducible(self):
        w = window_from_ranges(thin(), (1, 10), (1, 14))
        assert deterministic_sample(w.keys) == deterministic_sample(w.keys)

    def test_contains_all_keys_and_pairs(self):
        w = window_from_ranges(thin(), (1, 10), (1, 14))
        sample = deterministic_sample(w.keys)
        for i in range(1, 11):
            assert SparseVec({E(i): 1}) in sample
        assert SparseVec({E(1): 1, E(2): 1}) in sample
        assert len(sample) >= 25
