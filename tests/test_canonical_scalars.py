"""The canonical exact scalar: an int when integral, a Fraction only otherwise.

Every public producer of exact values stores its entries in that form, and a
report prints the same text for ``n`` and ``Fraction(n)``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from deltader.algebras import E, F, solv_abelian, thin, wab, witt_one_sided, witt_pos, witt_z
from deltader.cli import _serialize_params
from deltader.dersolve import expected_family, solve_derivations
from deltader.exactlin import RatMatrix, SparseVec, nullspace, solve_feasible
from deltader.literals import format_element, parse_element
from deltader.locality import local_feasible_at, two_local_feasible_at
from deltader.operators import (
    ShiftOp,
    SolvHalfDer,
    ThinHalfDer,
    ThinLocalDelta,
    WabHalfDer,
    WindowedMap,
    materialize,
    window_from_ranges,
)


def is_canonical(value) -> bool:
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


def canonical(v: SparseVec) -> bool:
    return all(map(is_canonical, v.entries.values()))


# Exact scalars in every accepted form: ints, integral and non-integral
# Fractions, and ``p/q`` strings.
FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
SCALARS = st.one_of(
    st.integers(-6, 6),
    FRACTIONS,
    st.builds(Fraction, st.integers(-6, 6)),
    st.builds(lambda f: f"{f.numerator * 2}/{f.denominator * 2}", FRACTIONS),
)
KEYS = st.sampled_from([E(i) for i in range(-2, 5)] + [F(0), F(1)])
VECTORS = st.dictionaries(KEYS, SCALARS, max_size=5)


class TestSparseVec:
    @given(VECTORS, VECTORS, SCALARS)
    def test_every_operation_is_canonical(self, a, b, factor):
        v, w = SparseVec(a), SparseVec(b)
        for result in (v, w, v + w, v - w, -v, v.scaled(factor)):
            assert canonical(result)
        # the form changes no value
        for k in set(a) | set(b):
            assert (v + w).get(k) == Fraction(a.get(k, 0)) + Fraction(b.get(k, 0))

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 12), st.integers(1, 4), KEYS), min_size=1))
    def test_parse_element(self, terms):
        # unreduced coefficients such as 4/2 among them
        text = "".join(
            f"{'-' if negative else '+' if i else ''}{p}/{q}*{key.kind}{key.index}"
            for i, (negative, p, q, key) in enumerate(terms)
        )
        v = parse_element(text)
        assert canonical(v)
        assert parse_element(format_element(v)) == v


SHIFT_ALGEBRAS = [witt_z(), witt_pos(), witt_one_sided()]


class TestWindowedMaps:
    @given(st.sampled_from(SHIFT_ALGEBRAS), st.integers(0, 3), SCALARS)
    def test_shift_images(self, alg, t, weight):
        w = window_from_ranges(alg, (1, 4), (1, 8))
        m = materialize(ShiftOp(t, weight, alg), w)
        assert all(map(canonical, m.image.values()))

    @given(st.lists(SCALARS, max_size=4), st.lists(SCALARS, max_size=4))
    def test_thin_and_solv_images(self, alpha, beta):
        w = window_from_ranges(thin(), (1, 5), (1, 10))
        ops = [ThinHalfDer(alpha=alpha, beta=beta), SolvHalfDer(alpha=alpha), ThinLocalDelta()]
        for op in ops:
            m = materialize(op, w)
            assert all(map(canonical, m.image.values()))
            assert canonical(m.evaluate(SparseVec({E(1): "1/2", E(3): Fraction(4, 2)})))

    @given(st.dictionaries(st.integers(-1, 1), SCALARS), st.dictionaries(st.integers(-1, 1), SCALARS))
    def test_wab_images(self, alpha, beta):
        w = window_from_ranges(wab(0, -1), (-1, 1), (-2, 2))
        m = materialize(WabHalfDer(alpha=alpha, beta=beta), w)
        assert all(map(canonical, m.image.values()))

    @given(st.lists(SCALARS, min_size=2, max_size=2))
    def test_given_images(self, values):
        w = window_from_ranges(witt_z(), (0, 1), (0, 1))
        m = WindowedMap(w, {E(0): {E(1): values[0]}, E(1): {E(0): values[1]}})
        assert all(map(canonical, m.image.values()))
        assert all(map(canonical, (m + m).image.values()))
        assert all(map(canonical, m.scaled(Fraction(1, 2)).image.values()))


SMALL_WINDOWS = [
    (witt_z(), (-2, 2), (-4, 4)),
    (witt_pos(), (1, 3), (1, 6)),
    (witt_one_sided(), (-1, 2), (-1, 4)),
    (thin(), (1, 4), (1, 7)),
    (solv_abelian(), (1, 4), (1, 4)),
    (wab(0, -1), (-1, 1), (-2, 2)),
    (wab(Fraction(1, 2), Fraction(1, 3)), (-1, 1), (-2, 2)),
]
DELTAS = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(3)])


class TestSolvers:
    @given(st.sampled_from(SMALL_WINDOWS), DELTAS)
    @settings(max_examples=30, deadline=None)
    def test_solved_bases(self, case, delta):
        alg, in_range, out_range = case
        w = window_from_ranges(alg, in_range, out_range)
        for family in (solve_derivations(alg, w, delta), expected_family(alg, w)):
            for m in family.basis:
                assert all(map(canonical, m.image.values()))

    @given(st.lists(st.lists(SCALARS, min_size=3, max_size=3), min_size=1, max_size=4))
    def test_nullspace_by_blocks(self, grid):
        matrix = RatMatrix.from_rows([dict(enumerate(row)) for row in grid], 3)
        assert all(is_canonical(v) for row in matrix.rows for v in row.values())
        for v in nullspace(matrix):
            assert canonical(v)
            assert matrix.apply(v).is_zero()

    @given(
        st.lists(st.lists(SCALARS, min_size=3, max_size=3), min_size=1, max_size=4),
        st.lists(SCALARS, min_size=4, max_size=4),
    )
    def test_solutions_and_certificates(self, grid, rhs):
        matrix = RatMatrix.from_rows([dict(enumerate(row)) for row in grid], 3)
        b = SparseVec(dict(enumerate(rhs[: len(grid)])))
        result = solve_feasible(matrix, b)
        if result.feasible:
            assert canonical(result.solution)
            assert matrix.apply(result.solution) == b
        else:
            u = result.certificate
            assert canonical(u)
            for col in range(matrix.ncols):
                assert sum(u.get(i) * row.get(col, 0) for i, row in enumerate(matrix.rows)) == 0
            assert u.dot(b) == 1


THIN_WINDOW = window_from_ranges(thin(), (1, 6), (1, 9))
THIN_FAMILY = expected_family(thin(), THIN_WINDOW)
THIN_POINTS = st.dictionaries(st.sampled_from(THIN_WINDOW.keys), SCALARS, min_size=1, max_size=3)


class TestLocalReports:
    @given(THIN_POINTS, THIN_POINTS, st.lists(SCALARS, max_size=3), st.lists(SCALARS, max_size=3))
    @settings(deadline=None)
    def test_params(self, x, y, alpha, beta):
        x, y = SparseVec(x), SparseVec(y)
        for candidate in (ThinHalfDer(alpha=alpha, beta=beta), ThinLocalDelta()):
            for report in (
                local_feasible_at(candidate, x, THIN_FAMILY),
                two_local_feasible_at(candidate, x, y, THIN_FAMILY),
            ):
                if report.feasible:
                    assert canonical(report.params)


def as_fractions(v: SparseVec) -> SparseVec:
    """``v`` with every entry stored as a Fraction, the non-canonical form
    that no constructor produces."""
    legacy = SparseVec()
    legacy._entries = {k: Fraction(c) for k, c in v.entries.items()}
    return legacy


class TestText:
    @given(VECTORS)
    def test_same_text_for_int_and_fraction(self, entries):
        v = SparseVec(entries)
        legacy = as_fractions(v)
        assert legacy == v
        assert format_element(legacy) == format_element(v)
        params = SparseVec({i: c for i, c in enumerate(v.entries.values())})
        assert _serialize_params(as_fractions(params)) == _serialize_params(params)
