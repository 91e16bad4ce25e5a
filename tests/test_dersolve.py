"""Constraint assembly, windowed solution spaces, family comparison."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltader import algebras, dersolve, exactlin
from deltader.algebras import E, F, solv_abelian, thin, wab, witt_one_sided, witt_pos, witt_z
from deltader.dersolve import (
    FamilyBasis,
    assemble,
    check_delta_derivation,
    compare_families,
    derivation_pairs,
    expected_family,
    find_violation_witness,
    interior_input_keys,
    solve_derivations,
    solve_half_derivations,
)
from deltader.exactlin import RowSpace, SparseVec, nullspace, nullspace_by_blocks
from deltader.operators import (
    ShiftOp,
    SolvDeltaBar,
    SolvHalfDer,
    ThinHalfDer,
    ThinLocalDelta,
    WabHalfDer,
    Window,
    WindowTooSmall,
    WindowedMap,
    materialize,
    window_from_ranges,
)

from residual_oracle import residual_at
from test_exactlin import pack, reference_nullspace
from test_operators import identity_map

HALF = Fraction(1, 2)


def flatten(m):
    """The map as a coefficient vector over its window's (input, output) columns."""
    index = {col: i for i, col in enumerate(m.window.columns())}
    return SparseVec({index[k, o]: c for k in m.image for o, c in m.image[k].entries.items()})


def family_of(w, maps):
    """The ``FamilyBasis`` of the given maps on ``w``."""
    return FamilyBasis(w, tuple(map(flatten, maps)))


def residual_reference(alg, delta, w, pairs):
    """The equations rebuilt from ``residual_at``, unit map by unit map."""
    rows = {}
    for j, (in_key, out_key) in enumerate(w.columns()):
        unit = WindowedMap(w, {k: SparseVec({out_key: 1} if k == in_key else {}) for k in w.keys})
        for pair in pairs:
            for coord, value in residual_at(alg, unit, delta, *pair).entries.items():
                rows.setdefault((pair, coord), {})[j] = value
    return pack(rows.values(), len(w.columns()))


def assert_block_major_by_shift(alg, system):
    """Every row involves unknowns of one shift alone, the rows come block by
    block in increasing shift, and the pair list is canonical."""
    shift = [alg.record.degree(o) - alg.record.degree(k) for k, o in system.window.columns()]
    row_shifts = []
    for row in system.matrix.rows:
        (t,) = {shift[c] for c in row}
        row_shifts.append(t)
    assert row_shifts == sorted(row_shifts)
    # the pair list keeps its canonical order; the rows alone are reordered
    assert list(system.pair_list) == list(derivation_pairs(alg, system.window.keys))


class TestDerivationPairs:
    def test_wittz_small(self):
        w = window_from_ranges(witt_z(), (-1, 1), (-2, 2))
        pairs = derivation_pairs(witt_z(), w.keys)
        assert list(pairs) == [(E(-1), E(0)), (E(-1), E(1)), (E(0), E(1))]

    def test_thin_includes_commuting_pairs(self):
        pairs = derivation_pairs(thin(), [E(i) for i in range(1, 5)])
        assert (E(1), E(2)) in pairs and (E(1), E(3)) in pairs
        assert (E(1), E(4)) not in pairs  # bracket e5 leaves the window
        for commuting in [(E(2), E(3)), (E(2), E(4)), (E(3), E(4))]:
            assert commuting in pairs

    def test_solv_all_pairs_usable(self):
        pairs = derivation_pairs(solv_abelian(), [E(1), E(2), E(3)])
        assert list(pairs) == [(E(1), E(2)), (E(1), E(3)), (E(2), E(3))]


class TestAssemble:
    def test_unknown_count(self):
        w = window_from_ranges(witt_z(), (-1, 1), (-2, 2))
        system = assemble(witt_z(), HALF, w)
        assert system.matrix.ncols == 3 * 5
        assert len(system.pair_list) == 3

    def test_nullspace_matches_solver(self):
        w = window_from_ranges(solv_abelian(), (1, 5), (1, 5))
        system = assemble(solv_abelian(), HALF, w)
        family = solve_half_derivations(solv_abelian(), w)
        assert len(nullspace(system.matrix)) == len(family)

    @pytest.mark.parametrize(
        "alg, in_range, out_range",
        [
            (witt_z(), (-3, 3), (-9, 9)),
            (thin(), (1, 10), (1, 14)),
            (wab(Fraction(2, 3), Fraction(1, 3)), (-2, 2), (-4, 4)),
        ],
    )
    def test_rows_are_ints(self, alg, in_range, out_range):
        system = assemble(alg, HALF, window_from_ranges(alg, in_range, out_range))
        assert system.matrix.nrows > 0
        assert all(type(v) is int for row in system.matrix.rows for v in row.values())

    @pytest.mark.parametrize(
        "alg, delta, in_range, out_range",
        [
            (witt_z(), Fraction(2, 3), (-2, 2), (-6, 6)),
            (thin(), Fraction(-3, 2), (1, 5), (1, 7)),
            (wab(Fraction(1, 2), -1), Fraction(1), (-1, 1), (-2, 2)),
            (wab(Fraction(2, 3), Fraction(1, 3)), HALF, (-1, 1), (-2, 2)),
        ],
    )
    def test_nullspace_matches_residual_equations(self, alg, delta, in_range, out_range):
        # Scaling rows by delta's denominator must leave the solution space
        # exactly that of the residual equations evaluated unit map by unit map.
        w = window_from_ranges(alg, in_range, out_range)
        system = assemble(alg, delta, w)
        reference = residual_reference(alg, delta, w, system.pair_list)
        assert nullspace(system.matrix) == nullspace(reference)


    @pytest.mark.parametrize(
        "alg, delta, in_range, out_range",
        [
            (witt_z(), HALF, (-4, 4), (-12, 12)),
            (witt_pos(), Fraction(2), (1, 6), (1, 11)),
            (witt_one_sided(), HALF, (-1, 5), (-1, 10)),
            (wab(Fraction(2, 3), -1), HALF, (-3, 3), (-6, 6)),
            (wab(Fraction(1, 2), Fraction(1, 3)), Fraction(-1), (-2, 2), (-4, 4)),
            (thin(), HALF, (1, 10), (1, 14)),
            (solv_abelian(), Fraction(3), (1, 8), (1, 8)),
        ],
    )
    def test_rows_come_block_major_by_shift(self, alg, delta, in_range, out_range):
        w = window_from_ranges(alg, in_range, out_range)
        assert_block_major_by_shift(alg, assemble(alg, delta, w))


@st.composite
def algebra_windows(draw, wide=False):
    """(algebra, input range, output range): all six algebras, small windows
    with single-key and in == out ones among them. With ``wide``, input
    windows reach 8 keys per line (5 on wab), so margins up to 3 can leave
    an interior."""
    alg = draw(
        st.sampled_from(
            [witt_z(), witt_pos(), witt_one_sided(), thin(), solv_abelian()]
            + [wab(a, b) for a in (0, HALF, Fraction(2, 3)) for b in (-1, 0, Fraction(1, 3))]
        )
    )
    low = {"wittz": -3, "wab": -2, "witt1": -1}.get(alg.name, 1)
    lo = draw(st.integers(low, low + 3))
    width = (4 if alg.name == "wab" else 7) if wide else (1 if alg.name == "wab" else 3)
    hi = draw(st.integers(lo, lo + width))
    below = draw(st.integers(0, 2))
    above = draw(st.integers(0, 2))
    return alg, (lo, hi), (max(low, lo - below), hi + above)


DELTAS = st.sampled_from([HALF, Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(3)])


class TestLazySolve:
    @given(algebra_windows(), DELTAS)
    @settings(max_examples=60, deadline=None)
    def test_matches_assembled_and_residual_systems(self, case, delta):
        alg, in_range, out_range = case
        w = window_from_ranges(alg, in_range, out_range)
        system = assemble(alg, delta, w)
        solved = list(solve_derivations(alg, w, delta).vectors)
        assert solved == nullspace(system.matrix)
        reference = residual_reference(alg, delta, w, system.pair_list)
        assert solved == nullspace(reference)
        assert_block_major_by_shift(alg, system)
        # and against the dense Fraction Gauss-Jordan, which shares no code
        # with the kernel
        grid = [[row.get(c, 0) for c in range(reference.ncols)] for row in reference.rows]
        assert solved == reference_nullspace(grid, reference.ncols)

    @pytest.mark.parametrize(
        "alg, in_range, out_range, dim, counts",
        [
            (
                witt_z(), (-16, 16), (-48, 48), 65,
                {
                    "built": 3287, "tested": 24080, "cut": 191,
                    "_back_substitute": 256, "_insert": 3065, "_eliminate": 1438,
                },
            ),
            # two lines: every degree has two coordinates, so a unit has two
            # rows per degree and the cut sums them slot by slot
            (
                wab(HALF, -1), (-7, 7), (-14, 14), 30,
                {
                    "built": 1136, "tested": 4798, "cut": 28,
                    "_back_substitute": 86, "_insert": 2160, "_eliminate": 1799,
                },
            ),
        ],
        ids=["wittz-33", "wab-30"],
    )
    def test_units_built_tested_and_cut_on_ladder_rungs(
        self, monkeypatch, alg, in_range, out_range, dim, counts
    ):
        # a unit is built while its block's nullity is above 2, and after that
        # only when it is the first of the scanned units to cut the probes;
        # a scan tests every unit of its block that it reads from the cursor.
        # The rank phase's rows are inserted, each block's null vectors are
        # read off its echelon form once, and a cutting unit's rows update
        # them in closed form, with neither kernel call. The rank phase
        # pivots each row on its highest column, where a new equation brings
        # in its highest unknown, so few inserted rows need an elimination.
        counted = dict.fromkeys(counts, 0)
        for name in ("_back_substitute", "_insert", "_eliminate"):
            real = getattr(exactlin, name)

            def kernel(*args, real=real, name=name):
                counted[name] += 1
                return real(*args)

            monkeypatch.setattr(exactlin, name, kernel)
        block = dersolve._Block
        real_init, real_next, real_rows = block.__init__, block.next_unit, block.rows

        def logged(units, read):
            for unit in units:
                read.append(unit)
                yield unit

        def init(self, equations, t):
            real_init(self, equations, t)
            self.read = []
            self.cursor = logged(self.cursor, self.read)

        def in_block(self, unit):
            # read as the rank phase reads it: with no probes
            alone = copy.copy(self)
            alone.cursor = iter([unit])
            return real_next(alone) is not None

        def next_unit(self, probes=()):
            start = len(self.read)
            unit = real_next(self, probes)
            if probes:
                counted["tested"] += sum(in_block(self, u) for u in self.read[start:])
                counted["cut"] += unit is not None
            return unit

        def rows(unit):
            counted["built"] += 1
            return real_rows(unit)

        monkeypatch.setattr(block, "__init__", init)
        monkeypatch.setattr(block, "next_unit", next_unit)
        monkeypatch.setattr(block, "rows", staticmethod(rows))
        family = solve_half_derivations(alg, window_from_ranges(alg, in_range, out_range))
        assert len(family) == dim
        assert counted == counts

    @pytest.mark.parametrize(
        "alg, in_range, out_range",
        [(witt_z(), (-3, 3), (-9, 9)), (thin(), (1, 8), (1, 11)), (wab(HALF, -1), (-2, 2), (-4, 4))],
        ids=["wittz", "thin", "wab"],
    )
    def test_the_reference_nullspace_shares_no_scan_code(
        self, monkeypatch, alg, in_range, out_range
    ):
        # the assembled matrix is solved by one plain elimination: a fault in
        # the block scan cannot reach the reference it is checked against
        w = window_from_ranges(alg, in_range, out_range)
        solved = list(solve_half_derivations(alg, w).vectors)

        def no_scan(*_):
            raise AssertionError("nullspace ran the block scan")

        monkeypatch.setattr(exactlin, "_block_nullspace", no_scan)
        matrix = assemble(alg, HALF, w).matrix
        grid = [[row.get(c, 0) for c in range(matrix.ncols)] for row in matrix.rows]
        assert nullspace(matrix) == reference_nullspace(grid, matrix.ncols) == solved


class TestCheckDeltaDerivation:
    def test_shift_passes_on_window(self):
        alg = witt_z()
        w = window_from_ranges(alg, (-3, 3), (-4, 4))
        table = materialize(ShiftOp(1, 1), w)
        pairs = derivation_pairs(alg, w.keys)
        assert check_delta_derivation(alg, table, HALF, pairs) == []

    def test_identity_passes_everywhere(self):
        for alg, rng in [(witt_z(), (-3, 3)), (thin(), (1, 6)), (wab(0, 2), (-2, 2))]:
            w = window_from_ranges(alg, rng, rng)
            pairs = derivation_pairs(alg, w.keys)
            assert check_delta_derivation(alg, identity_map(w), HALF, pairs) == []

    def test_thin_probe_violation(self):
        alg = thin()
        w = window_from_ranges(alg, (1, 8), (1, 9))
        table = materialize(ThinLocalDelta(), w)
        violations = check_delta_derivation(alg, table, HALF, [(E(1), E(3))])
        assert violations == [((E(1), E(3)), SparseVec({E(4): HALF}))]

    def test_solv_probe_violation(self):
        alg = solv_abelian()
        w = window_from_ranges(alg, (1, 6), (1, 6))
        table = materialize(SolvDeltaBar(), w)
        violations = check_delta_derivation(alg, table, HALF, [(E(1), E(2))])
        assert violations == [((E(1), E(2)), SparseVec({E(2): HALF}))]

    def test_window_too_small(self):
        alg = witt_z()
        w = window_from_ranges(alg, (-1, 1), (-2, 2))
        table = identity_map(w)
        with pytest.raises(WindowTooSmall):
            check_delta_derivation(alg, table, HALF, [(E(1), E(2))])


class TestSolveSpaces:
    def test_wittz_shifts_span(self):
        alg = witt_z()
        w = window_from_ranges(alg, (-3, 3), (-6, 6))
        solved = solve_half_derivations(alg, w)
        assert len(solved) == 7  # shifts -3..3
        space = RowSpace(map(flatten, solved.basis))
        for t in range(-3, 4):
            shift_vec = flatten(materialize(ShiftOp(t, 1), w))
            assert space.contains(shift_vec)

    def test_solved_members_satisfy_their_pairs(self):
        alg = thin()
        w = window_from_ranges(alg, (1, 6), (1, 9))
        system = assemble(alg, HALF, w)
        solved = solve_half_derivations(alg, w)
        for m in solved.basis:
            assert check_delta_derivation(alg, m, HALF, list(system.pair_list)) == []

    def test_solv_dimension_matches_window(self):
        # On I = O = e_1..e_n the whole space is the n unit-alpha directions.
        for n in (4, 6, 8):
            alg = solv_abelian()
            w = window_from_ranges(alg, (1, n), (1, n))
            assert len(solve_half_derivations(alg, w)) == n

    def test_thin_dimension_formula(self):
        # alpha fits up to M, beta up to M - N + 2: dim = 2M - N + 1
        alg = thin()
        for (n, m) in [(6, 10), (8, 12)]:
            w = window_from_ranges(alg, (1, n), (1, m))
            assert len(solve_half_derivations(alg, w)) == 2 * m - n + 1


FAMILY_ALGEBRAS = [witt_z(), witt_pos(), witt_one_sided(), thin(), solv_abelian()] + [
    wab(a, b) for a in (0, HALF) for b in (-1, 0, Fraction(1, 3))
]


def grid_ranges(alg):
    """The index ranges within nine indices from the algebra's floor (from -4
    where there is none)."""
    base = alg.record.floor if alg.record.floor is not None else -4
    return [(lo, hi) for lo in range(base, base + 9) for hi in range(lo, base + 9)]


def range_windows(alg):
    """Every range window on the grid, input inside output: 495 windows.
    ``Window`` refuses any other pair of ranges."""
    ranges = grid_ranges(alg)
    return [(i, o) for i in ranges for o in ranges if o[0] <= i[0] and i[1] <= o[1]]


def gapped_input(w):
    """``w`` without its second input index, on every line."""
    second = sorted({k.index for k in w.keys})[1]
    return Window(tuple(k for k in w.keys if k.index != second), w.out_keys)


def generate_and_filter(alg, w):
    """The closed-form family built the long way: every candidate of ranges
    wide enough for any window, kept when it materializes on ``w`` and is
    not zero there."""
    (in_lo, in_hi), (out_lo, out_hi) = (
        (min(k.index for k in keys), max(k.index for k in keys)) for keys in (w.keys, w.out_keys)
    )
    record = alg.record
    shifts = range(out_lo - in_hi, out_hi - in_lo + 1)
    if record.heads[0] == "shift":
        least = None if record.floor is None else 0  # a one-sided domain admits t >= 0 only
        candidates = [ShiftOp(t, 1, alg) for t in shifts if least is None or t >= least]
    elif record.heads[0] == "wab":
        candidates = (
            [WabHalfDer(alpha={t: 1}) for t in shifts] + [WabHalfDer(beta={t: 1}) for t in shifts]
            if alg.b == -1
            else [WabHalfDer(alpha={0: 1})]
        )
    elif record.heads[0] == "thin":
        candidates = [ThinHalfDer(alpha=(0,) * (k - 1) + (1,)) for k in range(1, out_hi + 1)]
        candidates += [ThinHalfDer(beta=(0,) * (i - 2) + (1,)) for i in range(2, out_hi + 1)]
    else:
        candidates = [SolvHalfDer(alpha=(0,) * (k - 1) + (1,)) for k in range(1, out_hi + 1)]
    family = []
    for op in candidates:
        try:
            m = materialize(op, w)
        except WindowTooSmall:
            continue
        if any(m.image.values()):
            family.append(m)
    return tuple(family)


class TestExpectedFamily:
    def test_witt_one_sided_shift_range(self):
        alg = witt_one_sided()
        w = window_from_ranges(alg, (-1, 5), (-1, 12))
        family = expected_family(alg, w)
        assert len(family) == 8  # t = 0..7

    def test_wab_identity_only_off_minus_one(self):
        alg = wab(0, 0)
        w = window_from_ranges(alg, (-2, 2), (-4, 4))
        family = expected_family(alg, w)
        assert len(family) == 1
        ident = identity_map(w)
        assert family.basis[0].image == ident.image

    def test_wab_alpha_beta_family_at_minus_one(self):
        alg = wab(0, -1)
        w = window_from_ranges(alg, (-2, 2), (-4, 4))
        family = expected_family(alg, w)
        assert len(family) == 10  # alpha and beta generators, t = -2..2

    def test_thin_generators_fit(self):
        alg = thin()
        w = window_from_ranges(alg, (1, 6), (1, 10))
        family = expected_family(alg, w)
        assert len(family) == 15  # alpha_1..10 plus beta_2..6

    @pytest.mark.parametrize(
        "alg, dim",
        [
            # alpha_1, beta_2..6; alpha_2..10 act on e1 alone
            (thin(), 6),
            # alpha_1; alpha_2..6 act on e1 alone
            (solv_abelian(), 1),
        ],
    )
    def test_no_zero_generators_off_the_floor(self, alg, dim):
        w = window_from_ranges(alg, (3, 6), (1, 10 if alg == thin() else 6))
        family = expected_family(alg, w)
        assert len(family) == RowSpace(map(flatten, family.basis)).dim == dim

    @pytest.mark.parametrize("alg", FAMILY_ALGEBRAS, ids=lambda alg: alg.label())
    def test_matches_generate_and_filter(self, alg):
        for in_range, out_range in range_windows(alg):
            w = window_from_ranges(alg, in_range, out_range)
            windows = [w, gapped_input(w)] if in_range[1] - in_range[0] >= 2 else [w]
            for v in windows:
                assert expected_family(alg, v).basis == generate_and_filter(alg, v), v

    @pytest.mark.parametrize("alg", FAMILY_ALGEBRAS, ids=lambda alg: alg.label())
    def test_one_generator_beyond_each_range_overflows(self, alg):
        record = alg.record
        for in_range, out_range in range_windows(alg):
            ops = dersolve._GENERATORS[record.heads[0]](alg, in_range, out_range)
            beyond = []
            if record.heads[0] == "shift":
                ts = [op.t for op in ops]
                beyond.append(ShiftOp(max(ts) + 1, 1, alg))
                if record.floor is None or min(ts) > 0:
                    beyond.append(ShiftOp(min(ts) - 1, 1, alg))
            elif record.heads[0] == "wab" and alg.b == -1:
                for side in ("alpha", "beta"):
                    ts = [t for op in ops for t in getattr(op, side)]
                    beyond += [WabHalfDer(**{side: {t: 1}}) for t in (min(ts) - 1, max(ts) + 1)]
            elif record.heads[0] == "thin" and in_range[1] >= 2:  # beta_i acts from e2 on
                last = max(len(op.beta) for op in ops)
                beyond.append(ThinHalfDer(beta=(0,) * last + (1,)))
            w = window_from_ranges(alg, in_range, out_range)
            for op in beyond:
                with pytest.raises(WindowTooSmall, match="outside the output window$"):
                    materialize(op, w)

    @pytest.mark.parametrize("alg", FAMILY_ALGEBRAS, ids=lambda alg: alg.label())
    def test_other_range_pairs_are_refused(self, alg):
        nested = set(range_windows(alg))
        for in_range in grid_ranges(alg):
            for out_range in grid_ranges(alg):
                if (in_range, out_range) not in nested:
                    with pytest.raises(ValueError, match="input window must be contained"):
                        window_from_ranges(alg, in_range, out_range)

    def test_gapped_output_window_raises(self):
        # the shift by 1 sends e2 to e3, which the output window lacks
        alg = witt_z()
        w = Window(tuple(E(i) for i in range(0, 3)), tuple(E(i) for i in (-2, -1, 0, 1, 2, 4)))
        with pytest.raises(WindowTooSmall, match="outside the output window$"):
            expected_family(alg, w)


class TestReach:
    @pytest.mark.parametrize(
        "alg, ranges",
        [(thin(), ((1, 8), (1, 10))), (wab(0, -1), ((-3, 3), (-6, 6)))],
        ids=["thin", "wab"],
    )
    def test_reach_is_the_union_of_image_supports(self, alg, ranges):
        family = solve_half_derivations(alg, window_from_ranges(alg, *ranges))
        assert list(family.reach) == list(family.window.keys)
        for key in family.window.keys:
            supports = (m.image[key].support() for m in family.basis)
            assert family.reach[key] == frozenset().union(*supports)

    def test_reach_is_built_once_and_ignored_by_equality(self):
        alg = thin()
        family = solve_half_derivations(alg, window_from_ranges(alg, (1, 6), (1, 8)))
        other = family_of(family.window, family.basis)
        reach = family.reach
        assert family.reach is reach
        assert "reach" not in vars(other)
        assert family == other
        assert other.reach == reach and other.reach is not reach


class TestColumnVectors:
    @pytest.mark.parametrize(
        "alg, in_range, out_range",
        [(witt_z(), (-3, 3), (-9, 9)), (thin(), (1, 8), (1, 11)), (wab(0, -1), (-2, 2), (-4, 4))],
        ids=["wittz", "thin", "wab"],
    )
    def test_vectors_are_the_block_nullspace_and_maps_are_built_on_first_read(
        self, alg, in_range, out_range
    ):
        w = window_from_ranges(alg, in_range, out_range)
        family = solve_half_derivations(alg, w)
        blocks = dersolve._GradedEquations(alg, HALF, w).blocks()
        assert list(family.vectors) == nullspace_by_blocks(blocks)
        assert "basis" not in vars(family)
        basis = family.basis
        assert "basis" in vars(family) and family.basis is basis
        assert len(basis) == len(family.vectors) == len(family)
        assert [flatten(m) for m in basis] == list(family.vectors)
        expected = expected_family(alg, w)
        assert [flatten(m) for m in expected.basis] == list(expected.vectors)

    def test_families_and_maps_are_unhashable(self):
        alg = thin()
        w = window_from_ranges(alg, (1, 4), (1, 6))
        family = solve_half_derivations(alg, w)
        with pytest.raises(TypeError, match="unhashable type: 'FamilyBasis'"):
            hash(family)
        with pytest.raises(TypeError, match="unhashable type: 'WindowedMap'"):
            hash(family.basis[0])
        # the solve memo keys on these instead
        assert hash((alg, w)) == hash((thin(), window_from_ranges(alg, (1, 4), (1, 6))))


class TestGradingGuard:
    @pytest.mark.parametrize("off", [E(4), E(1)], ids=["output-only-key", "input-key"])
    def test_a_degree_that_is_not_a_grading_is_refused(self, monkeypatch, off):
        # the record's degree is the one place the solver reads the grading;
        # specs built under the patch resolve the mutated record
        record = witt_z().record
        monkeypatch.setitem(
            algebras._RECORDS,
            record.name,
            record._replace(degree=lambda key: key.index + (key == off)),
        )
        alg = witt_z()
        w = window_from_ranges(alg, (-2, 2), (-4, 4))
        with pytest.raises(ValueError, match="degree is not a grading of wittz"):
            solve_half_derivations(alg, w)

    def test_the_pair_check_refuses_it_at_delta_zero(self, monkeypatch):
        # at delta 0 no [phi(x), y] term is read, so only the bracket of a
        # pair can show the bad degree: [e-1, e1] is a multiple of e0, of
        # degree 0, not -1 + 2
        record = witt_z().record
        monkeypatch.setitem(
            algebras._RECORDS,
            record.name,
            record._replace(degree=lambda key: key.index + (key == E(1))),
        )
        alg = witt_z()
        w = window_from_ranges(alg, (-2, 2), (-4, 4))
        with pytest.raises(ValueError, match=r"degree is not a grading of wittz at \[e-1, e1\]"):
            solve_derivations(alg, w, 0)


class TestCompareFamilies:
    def test_equal_spans(self):
        alg = solv_abelian()
        w = window_from_ranges(alg, (1, 6), (1, 6))
        solved = solve_half_derivations(alg, w)
        family = expected_family(alg, w)
        report = compare_families(solved, family, 0)
        assert report.expected_contained is True
        assert report.solved_interior_contained is True
        assert report.dim_solved == report.dim_expected == report.dim_interior == 6

    def test_boundary_junk_absorbed_by_margin(self):
        # Append a vector supported only at the boundary input key; a margin
        # of one hides it from the interior comparison.
        alg = witt_z()
        w = window_from_ranges(alg, (-3, 3), (-6, 6))
        solved = solve_half_derivations(alg, w)
        junk = WindowedMap(
            w,
            {k: (SparseVec({E(-6): 1}) if k == E(3) else SparseVec()) for k in w.keys},
        )
        padded = family_of(w, solved.basis + (junk,))
        family = expected_family(alg, w)
        loose = compare_families(padded, family, 0)
        assert not loose.solved_interior_contained
        tight = compare_families(padded, family, 1)
        assert tight.solved_interior_contained
        assert tight.expected_contained

    def test_corrupted_expected_detected(self):
        alg = witt_z()
        w = window_from_ranges(alg, (-3, 3), (-6, 6))
        solved = solve_half_derivations(alg, w)
        family = expected_family(alg, w)
        bad_map = WindowedMap(
            w,
            {
                k: (SparseVec({E(k.index + 1): 7}) if k == E(0) else family.basis[4].image[k])
                for k in w.keys
            },
        )
        corrupted = family_of(w, family.basis[:4] + (bad_map,) + family.basis[5:])
        report = compare_families(solved, corrupted, 0)
        assert report.expected_contained is False

    def test_interior_keys_margins(self):
        w = window_from_ranges(wab(0, 0), (-3, 3), (-6, 6))
        inner = interior_input_keys(w, 1)
        assert E(-3) not in inner and F(3) not in inner
        assert E(0) in inner and F(0) in inner

    def test_window_mismatch_rejected(self):
        alg = witt_z()
        a = solve_half_derivations(alg, window_from_ranges(alg, (-2, 2), (-4, 4)))
        b = expected_family(alg, window_from_ranges(alg, (-2, 2), (-3, 3)))
        with pytest.raises(ValueError):
            compare_families(a, b, 0)


def interior_reference(solved, expected, margin):
    """``(expected_contained, solved_interior_contained, dim_interior)``, with
    each map restricted to the inner input keys as a map of the inner window
    and flattened on that window's own columns."""
    w = solved.window
    space = RowSpace(map(flatten, solved.basis))
    expected_contained = all(space.contains(flatten(m)) for m in expected.basis)
    inner = Window(interior_input_keys(w, margin), w.out_keys)

    def restrict(m):
        return flatten(WindowedMap(inner, {k: m.image[k] for k in inner.keys}))

    expected_space = RowSpace(map(restrict, expected.basis))
    restricted = list(map(restrict, solved.basis))
    return (
        expected_contained,
        all(map(expected_space.contains, restricted)),
        RowSpace(restricted).dim,
    )


class TestInteriorRestriction:
    @given(algebra_windows(wide=True), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_restricted_maps(self, case, margin):
        alg, in_range, out_range = case
        w = window_from_ranges(alg, in_range, out_range)
        solved = solve_half_derivations(alg, w)
        family = expected_family(alg, w)
        # both orders, so that either containment can fail
        for first, second in ((solved, family), (family, solved)):
            report = compare_families(first, second, margin)
            observed = (
                report.expected_contained,
                report.solved_interior_contained,
                report.dim_interior,
            )
            assert observed == interior_reference(first, second, margin)


class TestAnalyticContainment:
    @given(
        a=st.fractions(min_value=-2, max_value=2, max_denominator=3),
        b=st.fractions(min_value=-2, max_value=2, max_denominator=3),
    )
    @settings(max_examples=12, deadline=None)
    def test_wab_expected_always_inside_solved(self, a, b):
        alg = wab(a, b)
        w = window_from_ranges(alg, (-2, 2), (-4, 4))
        solved = solve_half_derivations(alg, w)
        family = expected_family(alg, w)
        report = compare_families(solved, family, 0)
        assert report.expected_contained


class TestFindViolationWitness:
    def test_probe_keys_give_canonical_pair(self):
        witness = find_violation_witness(thin(), ThinLocalDelta(), HALF, [E(1), E(3)])
        assert witness == ((E(1), E(3)), SparseVec({E(4): HALF}))

    def test_full_scan_finds_earliest_pair(self):
        witness = find_violation_witness(
            thin(), ThinLocalDelta(), HALF, [E(i) for i in range(1, 9)]
        )
        assert witness == ((E(1), E(2)), SparseVec({E(3): HALF}))

    def test_identity_shift_clean(self):
        witness = find_violation_witness(
            witt_z(), ShiftOp(0, 1), HALF, [E(i) for i in range(-3, 4)]
        )
        assert witness is None

    def test_solv_probe(self):
        witness = find_violation_witness(
            solv_abelian(), SolvDeltaBar(), HALF, [E(i) for i in range(1, 5)]
        )
        assert witness == ((E(1), E(2)), SparseVec({E(2): HALF}))
