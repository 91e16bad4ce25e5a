"""Exact linear algebra: nullspace, feasibility, span."""

from fractions import Fraction
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from deltader import exactlin
from deltader.exactlin import (
    RatMatrix,
    RowSpace,
    SparseVec,
    nullspace,
    nullspace_by_blocks,
    solve_feasible,
)


def pack(rows, ncols):
    """The ``RatMatrix`` of ``rows`` (column -> int, Fraction or a string like
    ``3/4``) over the columns ``0..ncols-1``: every row inside them, copied
    in canonical form without its zero entries, as the matrix expects."""
    rows = tuple(map(exactlin._exact_row, rows))
    outside = [(i, c) for i, row in enumerate(rows) for c in row if not 0 <= c < ncols]
    assert not outside, f"(row, column) outside 0..{ncols - 1}: {outside}"
    return RatMatrix(rows, ncols)


def dense(rows, ncols=None):
    ncols = ncols if ncols is not None else (len(rows[0]) if rows else 0)
    return pack([{j: Fraction(v) for j, v in enumerate(row)} for row in rows], ncols)


def dot(u, b):
    """u·b, exactly."""
    return sum(v * b.get(k) for k, v in u.items())


def apply(matrix, x):
    """A x, indexed by row."""
    return SparseVec({i: dot(SparseVec(row), x) for i, row in enumerate(matrix.rows)})


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
        assert RowSpace(SparseVec(row) for row in m.rows).dim + len(vs) == m.ncols
        for v in vs:
            assert not apply(m, v)
        assert RowSpace(vs).dim == len(vs)


def augmented(grid, rhs):
    """The augmented rows ``[A|b]`` of the dense ``A`` and ``b``: exact, without
    zero entries, with b in column ``len(grid[0])``."""
    return [exactlin._exact_row(dict(enumerate(row + [bi]))) for row, bi in zip(grid, rhs)]


def split(rows, ncols):
    """``(A, b)`` of the augmented rows ``[A|b]``: A as a ``RatMatrix``, b as
    a SparseVec indexed by row."""
    a = pack([{c: v for c, v in row.items() if c != ncols} for row in rows], ncols)
    return a, SparseVec({i: row[ncols] for i, row in enumerate(rows) if ncols in row})


class TestSolveFeasible:
    def test_identity(self):
        res = solve_feasible([{0: 1, 2: 3}, {1: 1, 2: -1}], 2)
        assert res.feasible
        assert res.solution == SparseVec({0: 3, 1: -1})

    def test_underdetermined(self):
        res = solve_feasible([{0: 1, 1: 1, 2: 2}], 2)
        assert res.feasible
        assert res.solution.get(0) + res.solution.get(1) == 2

    def test_infeasible_with_certificate(self):
        rows = augmented([[1, 0], [1, 0]], [1, 2])
        res = solve_feasible(rows, 2)
        assert not res.feasible
        u = res.certificate
        a, b = split(rows, 2)
        # u.A = 0 and u.b = 1, exactly
        for col in range(a.ncols):
            assert sum(u.get(i) * a.rows[i].get(col, Fraction(0)) for i in range(a.nrows)) == 0
        assert dot(u, b) == 1

    def test_certificate_solves_only_the_inconsistent_prefix(self, monkeypatch):
        # rows 0 and 1 are already inconsistent; the rows after them are not read
        rows = augmented(
            [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], [1, 2, 3, 0, 1]
        )
        widths = []
        solve = exactlin._particular_solution

        def recorded(rows, ncols):
            widths.append(ncols)
            return solve(rows, ncols)

        monkeypatch.setattr(exactlin, "_particular_solution", recorded)
        res = solve_feasible(rows, 3)
        assert widths == [3]  # A x = b; the certificate waits for a read
        assert res.certificate == SparseVec({0: -1, 1: 1})
        assert widths == [3, 2]  # then the transposed prefix, once
        assert res.certificate == SparseVec({0: -1, 1: 1})
        assert widths == [3, 2]
        assert dot(res.certificate, split(rows, 3)[1]) == 1

    def test_a_solution_is_read_off_like_a_null_vector(self):
        # exact divisions give ints before any SparseVec sees them
        x, prefix = exactlin._particular_solution([{0: 2, 1: 1, 2: 4}, {1: 3, 2: 6}], 2)
        assert (x, prefix) == ({0: 1, 1: 2}, 0)
        assert all(type(v) is int for v in x.values())
        x, _ = exactlin._particular_solution([{0: 2, 1: 4, 2: 1}], 2)
        assert x == {0: Fraction(1, 2)} and type(x[0]) is Fraction

    @given(
        st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4),
    )
    @settings(max_examples=60)
    def test_exactness_or_certificate(self, grid, rhs):
        rows = augmented(grid, rhs)
        a, b = split(rows, 3)
        res = solve_feasible(rows, 3)
        if res.feasible:
            assert apply(a, res.solution) == b
        else:
            u = res.certificate
            for col in range(a.ncols):
                assert (
                    sum(u.get(i) * a.rows[i].get(col, Fraction(0)) for i in range(a.nrows))
                    == 0
                )
            assert dot(u, b) == 1


class TestRowSpace:
    def test_zero_always(self):
        assert RowSpace([SparseVec({0: 1})]).contains(SparseVec())
        assert RowSpace().contains(SparseVec())

    def test_outside(self):
        assert not RowSpace([SparseVec({0: 1})]).contains(SparseVec({0: 1, 1: 1}))

    def test_scaled_member(self):
        assert RowSpace([SparseVec({0: 1, 1: 2})]).contains(SparseVec({0: 2, 1: 4}))


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
    return pack([dict(enumerate(row)) for row in grid], ncols)


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


def reference_nullspace(grid, ncols):
    """Canonical nullspace basis read off the dense reference RREF."""
    ref_rows, ref_pivots = gauss_jordan(grid, ncols)
    expected = []
    for free in (c for c in range(ncols) if c not in ref_pivots):
        v = {free: Fraction(1)}
        for row, p in zip(ref_rows, ref_pivots):
            if row[free]:
                v[p] = -row[free]
        expected.append(SparseVec(v))
    return expected


def all_canonical(values):
    """Every value an int, or a Fraction that is not integral."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator > 1) for v in values)


class TestKernelAgainstDenseReference:
    @given(exact_matrices())
    @settings(max_examples=200)
    def test_rank_nullspace(self, case):
        grid, ncols = case
        matrix = from_grid(grid, ncols)
        _, ref_pivots = gauss_jordan(grid, ncols)
        assert RowSpace(SparseVec(row) for row in matrix.rows).dim == len(ref_pivots)

        basis = nullspace(matrix)
        assert basis == reference_nullspace(grid, ncols)
        assert all(all_canonical(v.entries.values()) for v in basis)

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
        rows = augmented(grid, rhs)
        assert all(type(v) is int for row in rows for v in row.values())
        a, b = split(rows, 4)
        res = solve_feasible(rows, 4)
        if res.feasible:
            assert all_canonical(res.solution.entries.values())
            assert apply(a, res.solution) == b
        else:
            u = res.certificate
            assert all_canonical(u.entries.values())
            for col in range(a.ncols):
                assert sum(u.get(i) * a.rows[i].get(col, 0) for i in range(a.nrows)) == 0
            assert dot(u, b) == 1

    @given(exact_matrices(), st.lists(st.sampled_from(ENTRIES), min_size=6, max_size=6))
    @settings(max_examples=200)
    def test_solve_feasible_is_the_free_at_zero_solution(self, case, rhs):
        grid, ncols = case
        rhs = rhs[: len(grid)]
        b = SparseVec(dict(enumerate(rhs)))
        augmented_grid = [row + [bi] for row, bi in zip(grid, rhs)]
        ref_rows, ref_pivots = gauss_jordan(augmented_grid, ncols + 1)
        res = solve_feasible(augmented(grid, rhs), ncols)
        assert res.feasible == (ncols not in ref_pivots)
        if res.feasible:
            # every free unknown at 0, each pivot unknown read off the RREF
            expected = {p: row[ncols] for row, p in zip(ref_rows, ref_pivots)}
            assert res.solution == SparseVec(expected)
            assert all_canonical(res.solution.entries.values())
            assert res.certificate is None
        else:
            u = res.certificate
            assert res.solution is None
            assert all_canonical(u.entries.values())
            for col in range(ncols):
                assert sum(u.get(i) * Fraction(row[col]) for i, row in enumerate(grid)) == 0
            assert dot(u, b) == 1
            # supported on the shortest inconsistent row prefix
            inconsistent = (
                gauss_jordan(augmented_grid[:n], ncols + 1)[1] for n in range(len(grid) + 1)
            )
            prefix = next(n for n, pivots in enumerate(inconsistent) if ncols in pivots)
            assert max(u.support()) < prefix


@st.composite
def block_diagonal_matrices(draw):
    """(rows, ncols, blocks) of a block-diagonal matrix with interleaved columns,
    one ``(columns, start, stop)`` per block: ``rows[start:stop]`` are
    supported in ``columns``.

    Each block starts with a few random rows. Then independent rows,
    unitriangular in a random order of the block's columns, arrive one by
    one, with random combinations of the rows so far between them: so
    independent and dependent rows alike also arrive once the nullity is 2
    or less, and after full rank.
    """
    widths = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    ncols = sum(widths)
    order = draw(st.permutations(range(ncols)))
    cell = st.sampled_from(ENTRIES)
    rows, blocks = [], []
    for width in widths:
        columns = order[:width]
        order = order[width:]
        block = [{c: draw(cell) for c in columns} for _ in range(draw(st.integers(0, 2)))]
        lead = draw(st.permutations(columns))
        for i in range(draw(st.integers(0, width))):
            block.append({lead[i]: 1, **{c: draw(cell) for c in lead[i + 1 :]}})
            for _ in range(draw(st.integers(0, 2))):
                r1, r2 = draw(st.sampled_from(block)), draw(st.sampled_from(block))
                a, b = draw(cell), draw(cell)
                block.append({c: a * r1.get(c, 0) + b * r2.get(c, 0) for c in columns})
        blocks.append((tuple(sorted(columns)), len(rows), len(rows) + len(block)))
        rows.extend(block)
    return rows, ncols, tuple(blocks)


def cuts(row, probes) -> bool:
    """Whether ``row`` has a nonzero dot product with some probe."""
    return any(sum(v * p[c] for c, v in row.items()) for p in probes)


class Units:
    """A block for ``_block_nullspace`` from its own rows: each row is a unit
    of its own, read with one cursor, and a scan tests a row by its dot
    product with each probe. The block's ids are the system's columns."""

    def __init__(self, columns, rows):
        self.columns = {c: c for c in columns}
        self.cursor = iter(rows)

    def next_unit(self, probes=()):
        return next((row for row in self.cursor if not probes or cuts(row, probes)), None)

    def rows(self, row) -> tuple:
        """The unit's one row, or none if it is zero."""
        return (row,) if row else ()


class Relabelled(Units):
    """``Units`` whose ids are not the block's columns: ``number(n)`` gives
    the ids of its ``n`` columns, in increasing column order, as an
    ordering of ``range(n)``, and the rows are moved onto them."""

    def __init__(self, number, columns, rows):
        ids = dict(zip(columns, number(len(columns))))
        super().__init__((), [{ids[c]: v for c, v in row.items()} for row in rows])
        self.columns = {i: c for c, i in ids.items()}


def by_blocks(rows, blocks, block=Units):
    """``nullspace_by_blocks`` of the packed ``rows`` in the given blocks,
    each row a unit of its own."""
    return nullspace_by_blocks(block(columns, rows[start:stop]) for columns, start, stop in blocks)


class Counted(Units):
    """``Units`` that record in ``log``, in the order the kernel reads them,
    the rows built, the rows tested on probes and the number of probes of
    each scan."""

    def __init__(self, log, columns, rows):
        super().__init__(columns, rows)
        self.log = log

    def next_unit(self, probes=()):
        if not probes:
            return super().next_unit()
        self.log.scans.append(len(probes))
        for row in self.cursor:
            self.log.tested.append(row)
            if cuts(row, probes):
                return row
        return None

    def rows(self, row):
        self.log.built.append(row)
        return super().rows(row)


class Counting:
    def __init__(self):
        self.built, self.tested, self.scans = [], [], []

    def by_blocks(self, rows, blocks):
        return by_blocks(rows, blocks, partial(Counted, self))


class TestBlockNullspace:
    @given(block_diagonal_matrices(), st.randoms(use_true_random=False))
    @settings(max_examples=300)
    def test_matches_dense_reference(self, case, rng):
        rows, ncols, blocks = case
        grid = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        expected = reference_nullspace(grid, ncols)
        matrix = pack(rows, ncols)
        assert nullspace(matrix) == expected
        # the ids choose the pivot order alone: the columns themselves, ids
        # against the columns, as dersolve numbers them, or a seeded random
        # order give the one canonical basis
        for block in (
            Units,
            partial(Relabelled, lambda n: range(n - 1, -1, -1)),
            partial(Relabelled, lambda n: rng.sample(range(n), n)),
        ):
            basis = by_blocks(matrix.rows, blocks, block)
            assert basis == expected
            # entries by decreasing column: locality._match builds its rows
            # in that order
            assert all(list(v._entries) == sorted(v._entries, reverse=True) for v in basis)

    def test_independent_rows_after_nullity_two(self):
        # columns 0..4: three rows leave nullity 2, then each independent row
        # follows a dependent one
        rows = [
            {0: 1, 3: 2},
            {1: 1, 4: -1},
            {2: 3, 3: 1},
            {0: 2, 1: 1, 3: 4, 4: -1},  # row 0 doubled plus row 1
            {3: 1, 4: 1},
            {0: 1, 3: 3, 4: 1},  # row 0 plus row 4
            {0: 1, 4: 5},
            {0: 7, 1: 7},
        ]
        assert by_blocks(rows, ((range(5), 0, 8),)) == nullspace(pack(rows, 5)) == []
        expected = reference_nullspace([[r.get(c, 0) for c in range(5)] for r in rows[:5]], 5)
        assert by_blocks(rows, ((range(5), 0, 5),)) == nullspace(pack(rows[:5], 5)) == expected

    def test_rows_past_full_rank_or_in_the_span_are_not_inserted(self):
        counting = Counting()
        # block (0, 2, 4) has nullity 2 after one row, then a row in the span
        # and two that cut it down to full rank; block (1, 3, 5, 6) has
        # nullity 2 after two rows and 1 after three, and the later rows lie
        # in their span
        full = [{0: 1}, {0: -3}, {2: 1, 4: 1}, {4: 2}]
        full += [{0: i, 2: 1, 4: -i} for i in range(20)]
        span = [{1: 1, 3: 1}, {3: 1, 5: 2}, {5: 1, 6: -1}]
        span += [{1: i, 3: i + 1, 5: 4, 6: -2} for i in range(20)]  # i*r0 + r1 + 2*r2
        blocks = (((0, 2, 4), 0, len(full)), ((1, 3, 5, 6), len(full), len(full) + len(span)))
        rows = pack(full + span, 7).rows  # as packed: zero entries dropped
        assert counting.by_blocks(rows, blocks) == [SparseVec({1: 2, 3: -2, 5: 1, 6: 1})]
        # rows are built while the nullity is above 2; after that each row is
        # tested against the null vectors and built only if it cuts them, and
        # none past full rank is read
        s = len(full)
        assert counting.built == [rows[0], rows[2], rows[3], rows[s], rows[s + 1], rows[s + 2]]
        assert counting.tested == list(rows[1:4] + rows[s + 2 :])

    def test_a_block_of_nullity_two_or_less_tests_its_first_row(self):
        counting = Counting()
        # block (0, 1) starts at nullity 2: its first row is tested, cuts and
        # is built, and the second lies in its span; block (2,) starts at
        # nullity 1: a zero row is passed over, the next cuts it to full
        # rank, and the last is not read
        rows = pack([{0: 2, 1: -2}, {0: -1, 1: 1}, {}, {2: 5}, {2: 1}], 3).rows
        grid = [[row.get(c, 0) for c in range(3)] for row in rows]
        blocks = (((0, 1), 0, 2), ((2,), 2, 5))
        assert counting.by_blocks(rows, blocks) == reference_nullspace(grid, 3)
        assert counting.built == [rows[0], rows[3]]
        assert counting.tested == list(rows[:4])

    def test_null_vectors_are_back_substituted_once(self, monkeypatch):
        counting = Counting()
        substituted = []
        real_back = exactlin._back_substitute

        def counting_back(pivots, free):
            substituted.append(free)
            return real_back(pivots, free)

        monkeypatch.setattr(exactlin, "_back_substitute", counting_back)
        # block 0..4 ends its rows at nullity 3: each null vector is read off
        # once, and its scan of the spent cursor tests no row; block 5..7
        # reaches nullity 2, and its one scan finds no cut. Either way the
        # probes a block's last scan was given are its basis
        rows = [{0: 3, 1: 6}, {2: 2, 3: 1, 4: -4}, {5: 1, 6: 1}, {5: -2, 6: -2}]
        blocks = ((tuple(range(5)), 0, 2), ((5, 6, 7), 2, 4))
        grid = [[row.get(c, 0) for c in range(8)] for row in rows]
        assert counting.by_blocks(rows, blocks) == reference_nullspace(grid, 8)
        assert counting.scans == [3, 2]
        assert substituted == [1, 3, 4, 6, 7]
        assert counting.built == rows[:3] and counting.tested == rows[3:]
        # an entry is an int where the division by the free entry is exact
        basis = exactlin._block_nullspace(Units(range(5), rows[:2]))
        assert basis[1] == {1: 1, 0: -2} and type(basis[1][0]) is int
        assert basis[3] == {3: 1, 2: Fraction(-1, 2)}

    def test_a_rational_row_cuts_as_its_primitive_row(self):
        # the block starts at nullity 2, and its first row meets both null
        # vectors, which are combined by the row's entries: as ints, since
        # the content of a list with a Fraction in it has no gcd
        rows = [{0: 1, 1: Fraction(1, 2)}, {0: 2, 1: 1}]
        grid = [[row.get(c, 0) for c in range(2)] for row in rows]
        basis = by_blocks(rows, (((0, 1), 0, 2),))
        assert basis == reference_nullspace(grid, 2) == [SparseVec({0: Fraction(-1, 2), 1: 1})]

    def test_cuts_update_the_null_vectors_without_elimination(self, monkeypatch):
        # columns 0..4: three rows leave nullity 2 at free columns 3 and 4;
        # the scan passes over a row in their span, cuts on {3: 1, 4: 2},
        # passes over another row in the span and cuts again, to full rank
        rows = [{0: 1, 2: 1}, {1: 1, 3: -1}, {0: 3, 4: 1}, {0: 1, 1: 1, 2: 1, 3: -1}]
        rows += [{3: 1, 4: 2}, {0: 3, 3: 1, 4: 3}, {4: 1}]
        calls, scans = [], []
        for name in ("_insert", "_back_substitute"):
            real = getattr(exactlin, name)

            def logged(*args, real=real, name=name):
                calls.append((name, len(scans)))
                return real(*args)

            monkeypatch.setattr(exactlin, name, logged)

        class Scanned(Units):
            def next_unit(self, probes=()):
                if probes:
                    scans.append([list(p) for p in probes])
                return super().next_unit(probes)

        grid = [[row.get(c, 0) for c in range(5)] for row in rows]
        assert by_blocks(rows, ((range(5), 0, len(rows)),), Scanned) == []
        assert reference_nullspace(grid, 5) == []
        # the rank phase inserts three rows and reads two null vectors off
        # them; after the first probe read the kernel eliminates nothing
        assert calls == [("_insert", 0)] * 3 + [("_back_substitute", 0)] * 2
        assert len(scans) == 2 and len(scans[0]) == 2
        # the one probe of the second scan, cut in closed form, is the null
        # vector of the five rows before it
        ((probe,),) = scans[1:]
        (expected,) = reference_nullspace(grid[:5], 5)
        assert SparseVec({c: Fraction(x, probe[4]) for c, x in enumerate(probe)}) == expected


class TestExactRow:
    def test_rows_are_copied_in_canonical_form(self):
        clean, exact = {0: 1, 2: -3}, {1: Fraction(1, 2), 2: 4}
        given_rows = [clean, {1: Fraction(4, 2), 2: 0}, {0: "1/2"}, exact]
        rows = [exactlin._exact_row(row) for row in given_rows]
        assert rows[0] == clean and rows[3] == exact
        assert rows[0] is not clean and rows[3] is not exact
        assert type(rows[0][0]) is int and type(rows[3][1]) is Fraction
        assert rows[1] == {1: 2} and type(rows[1][1]) is int
        assert rows[2] == {0: Fraction(1, 2)}


class TestSparseVec:
    def test_drops_zeros(self):
        v = SparseVec({0: 0, 1: 2})
        assert 0 not in v
        assert v.get(1) == 2

    def test_arithmetic_cancels(self):
        v = SparseVec({0: 1, 1: 2})
        w = SparseVec({1: -2, 2: 5})
        assert (v + w) == SparseVec({0: 1, 2: 5})
        assert not (v - v)
        assert not v.scaled(0)

    def test_equality_with_another_type_is_left_to_it(self):
        v = SparseVec({0: 1})
        assert v.__eq__({0: 1}) is NotImplemented
        assert v != {0: 1} and SparseVec() != 0

    @given(st.dictionaries(st.integers(0, 6), st.integers(-5, 5), max_size=5))
    def test_negation_roundtrip(self, entries):
        v = SparseVec(entries)
        assert -(-v) == v
        assert not (v + (-v))
