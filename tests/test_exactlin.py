"""Exact linear algebra: echelon form, nullspace, feasibility, span."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from deltader.exactlin import (
    RatMatrix,
    RowSpace,
    SparseVec,
    in_span,
    nullspace,
    rank,
    rref,
    solve_feasible,
    span_dim,
)


def dense(rows, ncols=None):
    ncols = ncols if ncols is not None else (len(rows[0]) if rows else 0)
    packed = [
        {j: Fraction(v) for j, v in enumerate(row) if v} for row in rows
    ]
    return RatMatrix.from_rows(packed, ncols)


def as_dense(matrix):
    return [
        [matrix.rows[i].get(j, Fraction(0)) for j in range(matrix.ncols)]
        for i in range(matrix.nrows)
    ]


class TestRref:
    def test_identity_fixed(self):
        m = dense([[1, 0], [0, 1]])
        r, rk = rref(m)
        assert as_dense(r) == as_dense(m)
        assert rk == 2

    def test_zero_fixed(self):
        m = dense([[0, 0], [0, 0]])
        r, rk = rref(m)
        assert as_dense(r) == as_dense(m)
        assert rk == 0

    def test_dependent_rows_collapse(self):
        m = dense([[1, 2], [2, 4]])
        r, rk = rref(m)
        assert rk == 1
        assert as_dense(r) == [[1, 2], [0, 0]]

    def test_normalizes_and_orders_pivots(self):
        m = dense([[0, 0, 3, 6], [2, 4, 0, 2]])
        r, _ = rref(m)
        assert as_dense(r) == [[1, 2, 0, 1], [0, 0, 1, 2]]

    def test_idempotent(self):
        m = dense([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        once, rk1 = rref(m)
        twice, rk2 = rref(once)
        assert as_dense(once) == as_dense(twice)
        assert rk1 == rk2 == 2


small_matrix = st.builds(
    dense,
    st.lists(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    ),
)


class TestNullspace:
    def test_identity_trivial_kernel(self):
        assert nullspace(dense([[1, 0], [0, 1]])) == []

    def test_one_row_difference(self):
        (v,) = nullspace(dense([[1, -1]]))
        assert v.get(0) == v.get(1) != 0

    def test_rank_nullity_single_row(self):
        vs = nullspace(dense([[1, 2, 3]]))
        assert len(vs) == 2

    @given(small_matrix)
    @settings(max_examples=60)
    def test_rank_nullity_and_membership(self, m):
        vs = nullspace(m)
        assert rank(m) + len(vs) == m.ncols
        for v in vs:
            assert m.apply(v).is_zero()
        assert span_dim(vs) == len(vs)


class TestSolveFeasible:
    def test_identity(self):
        res = solve_feasible(dense([[1, 0], [0, 1]]), SparseVec({0: 3, 1: -1}))
        assert res.feasible
        assert res.solution == SparseVec({0: 3, 1: -1})

    def test_underdetermined(self):
        res = solve_feasible(dense([[1, 1]]), SparseVec({0: 2}))
        assert res.feasible
        assert res.solution.get(0) + res.solution.get(1) == 2

    def test_infeasible_with_certificate(self):
        a = dense([[1, 0], [1, 0]])
        b = SparseVec({0: 1, 1: 2})
        res = solve_feasible(a, b)
        assert not res.feasible
        u = res.certificate
        # u.A = 0 and u.b != 0, exactly
        for col in range(a.ncols):
            assert sum(u.get(i) * a.rows[i].get(col, Fraction(0)) for i in range(a.nrows)) == 0
        assert u.dot(b) != 0

    @given(
        st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4),
    )
    @settings(max_examples=60)
    def test_exactness_or_certificate(self, rows, rhs):
        a = dense(rows)
        b = SparseVec({i: rhs[i] for i in range(len(rows))})
        res = solve_feasible(a, b)
        if res.feasible:
            assert a.apply(res.solution) == b
        else:
            u = res.certificate
            for col in range(a.ncols):
                assert (
                    sum(u.get(i) * a.rows[i].get(col, Fraction(0)) for i in range(a.nrows))
                    == 0
                )
            assert u.dot(b) != 0


class TestInSpan:
    def test_zero_always(self):
        assert in_span(SparseVec(), [SparseVec({0: 1})])
        assert in_span(SparseVec(), [])

    def test_outside(self):
        assert not in_span(SparseVec({0: 1, 1: 1}), [SparseVec({0: 1})])

    def test_scaled_member(self):
        assert in_span(SparseVec({0: 2, 1: 4}), [SparseVec({0: 1, 1: 2})])


# Exact entries as the kernel receives them: plain ints and Fractions, with 0.
ENTRIES = (0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))


@st.composite
def exact_matrices(draw):
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    cell = st.sampled_from(ENTRIES)
    grid = [[draw(cell) for _ in range(ncols)] for _ in range(nrows)]
    return grid, ncols


def from_grid(grid, ncols):
    return RatMatrix.from_rows([{j: v for j, v in enumerate(row)} for row in grid], ncols)


def gauss_jordan(grid, ncols):
    """Dense reference RREF over Fraction: (nonzero rows, pivot columns)."""
    m = [[Fraction(v) for v in row] for row in grid]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(m)) if m[i][c]), None)
        if found is None:
            continue
        m[r], m[found] = m[found], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def all_fractions(values):
    return all(type(v) is Fraction for v in values)


class TestKernelAgainstDenseReference:
    @given(exact_matrices())
    @settings(max_examples=200)
    def test_rref_rank_nullspace(self, case):
        grid, ncols = case
        matrix = from_grid(grid, ncols)
        ref_rows, ref_pivots = gauss_jordan(grid, ncols)

        reduced, rk = rref(matrix)
        assert rk == rank(matrix) == len(ref_pivots)
        assert as_dense(reduced)[:rk] == ref_rows
        assert all(not row for row in reduced.rows[rk:])
        assert all(all_fractions(row.values()) for row in reduced.rows)

        expected = []
        for free in (c for c in range(ncols) if c not in ref_pivots):
            v = {free: Fraction(1)}
            for row, p in zip(ref_rows, ref_pivots):
                if row[free]:
                    v[p] = -row[free]
            expected.append(SparseVec(v))
        basis = nullspace(matrix)
        assert basis == expected
        assert all(all_fractions(v.entries.values()) for v in basis)

    @given(exact_matrices(), st.lists(st.sampled_from(ENTRIES), min_size=6, max_size=6))
    @settings(max_examples=200)
    def test_row_space_membership(self, case, probe):
        grid, ncols = case
        x = probe[:ncols]
        space = RowSpace(SparseVec(dict(enumerate(row))) for row in grid)
        _, ref_pivots = gauss_jordan(grid, ncols)
        _, with_x = gauss_jordan(grid + [x], ncols)
        assert space.dim == len(ref_pivots)
        assert space.contains(SparseVec(dict(enumerate(x)))) == (len(with_x) == len(ref_pivots))
        for row in grid:
            assert space.contains(SparseVec(dict(enumerate(row))))

    @given(
        st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        ),
        st.lists(st.integers(min_value=-4, max_value=4), min_size=6, max_size=6),
    )
    @settings(max_examples=100)
    def test_solve_feasible_on_int_entries(self, grid, rhs):
        a = from_grid(grid, 4)
        assert all(type(v) is int for row in a.rows for v in row.values())
        b = SparseVec({i: rhs[i] for i in range(len(grid))})
        res = solve_feasible(a, b)
        if res.feasible:
            assert all_fractions(res.solution.entries.values())
            assert a.apply(res.solution) == b
        else:
            u = res.certificate
            assert all_fractions(u.entries.values())
            for col in range(a.ncols):
                assert sum(u.get(i) * a.rows[i].get(col, 0) for i in range(a.nrows)) == 0
            assert u.dot(b) != 0


    @given(exact_matrices(), st.lists(st.sampled_from(ENTRIES), min_size=6, max_size=6))
    @settings(max_examples=200)
    def test_solve_feasible_is_the_free_at_zero_solution(self, case, rhs):
        grid, ncols = case
        rhs = rhs[: len(grid)]
        a = from_grid(grid, ncols)
        b = SparseVec(dict(enumerate(rhs)))
        ref_rows, ref_pivots = gauss_jordan([row + [bi] for row, bi in zip(grid, rhs)], ncols + 1)
        res = solve_feasible(a, b)
        assert res.feasible == (ncols not in ref_pivots)
        if res.feasible:
            # every free unknown at 0, each pivot unknown read off the RREF
            expected = {p: row[ncols] for row, p in zip(ref_rows, ref_pivots)}
            assert res.solution == SparseVec(expected)
            assert all_fractions(res.solution.entries.values())
            assert res.certificate is None
        else:
            u = res.certificate
            assert res.solution is None
            assert all_fractions(u.entries.values())
            for col in range(ncols):
                assert sum(u.get(i) * Fraction(row[col]) for i, row in enumerate(grid)) == 0
            assert u.dot(b) != 0


class TestSparseVec:
    def test_drops_zeros(self):
        v = SparseVec({0: 0, 1: 2})
        assert 0 not in v
        assert v.get(1) == 2

    def test_arithmetic_cancels(self):
        v = SparseVec({0: 1, 1: 2})
        w = SparseVec({1: -2, 2: 5})
        assert (v + w) == SparseVec({0: 1, 2: 5})
        assert (v - v).is_zero()
        assert v.scaled(0).is_zero()

    @given(st.dictionaries(st.integers(0, 6), st.integers(-5, 5), max_size=5))
    def test_negation_roundtrip(self, entries):
        v = SparseVec(entries)
        assert -(-v) == v
        assert (v + (-v)).is_zero()
