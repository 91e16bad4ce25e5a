"""Windowed maps and the closed-form operator families."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltader.algebras import E, F, KeyOutOfDomain, solv_abelian, thin, wab, witt_pos, witt_z
from deltader.dersolve import check_delta_derivation, derivation_pairs
from deltader.exactlin import SparseVec
from deltader.operators import (
    ShiftOp,
    SolvDeltaBar,
    SolvHalfDer,
    SupportOverflow,
    ThinHalfDer,
    ThinLocalDelta,
    ThinNabla,
    WabHalfDer,
    Window,
    WindowedMap,
    WindowTooSmall,
    commutator,
    evaluate,
    materialize,
    window_from_ranges,
)

HALF = Fraction(1, 2)


def identity_map(w):
    return WindowedMap(w, {k: SparseVec({k: 1}) for k in w.keys})


class TestWindow:
    def test_requires_inclusion(self):
        with pytest.raises(ValueError):
            Window((E(0), E(1)), (E(0),))

    def test_requires_sorted_unique(self):
        with pytest.raises(ValueError):
            Window((E(1), E(0)), (E(0), E(1)))

    def test_ranges_constructor(self):
        w = window_from_ranges(wab(0, 0), (-1, 1), (-2, 2))
        assert len(w.keys) == 6 and len(w.out_keys) == 10
        with pytest.raises(KeyOutOfDomain, match="e0 is not a basis key of thin"):
            window_from_ranges(thin(), (0, 3))
        for in_range, out_range in (((2, 1), None), ((0, 1), (3, 2))):
            with pytest.raises(ValueError, match="empty index range"):
                window_from_ranges(witt_z(), in_range, out_range)

    def test_columns_canonical(self):
        w = window_from_ranges(witt_z(), (0, 1), (0, 2))
        assert w.columns()[0] == (E(0), E(0))
        assert len(w.columns()) == 2 * 3


class TestWindowedMap:
    def test_rejects_partial_image(self):
        w = window_from_ranges(witt_z(), (0, 1), (0, 2))
        with pytest.raises(ValueError):
            WindowedMap(w, {E(0): SparseVec()})

    def test_rejects_escaping_support(self):
        w = window_from_ranges(witt_z(), (0, 1), (0, 2))
        with pytest.raises(ValueError):
            WindowedMap(w, {E(0): SparseVec({E(5): 1}), E(1): SparseVec()})

    def test_sum_needs_one_window(self):
        m = identity_map(window_from_ranges(witt_z(), (0, 1), (0, 2)))
        other = identity_map(window_from_ranges(witt_z(), (0, 1), (0, 3)))
        with pytest.raises(ValueError, match="window mismatch"):
            m + other

    def test_evaluate_off_window(self):
        w = window_from_ranges(witt_z(), (0, 1), (0, 2))
        m = identity_map(w)
        with pytest.raises(WindowTooSmall, match="^e7 outside input window$"):
            m.evaluate(SparseVec({E(7): 1}))

    def test_linearity(self):
        w = window_from_ranges(witt_z(), (0, 2), (0, 4))
        m = materialize(ShiftOp(1, Fraction(2)), w)
        v = SparseVec({E(0): 1, E(2): -3})
        assert m.evaluate(v) == SparseVec({E(1): 2, E(3): -6})


class TestShiftOp:
    def test_evaluate_shift(self):
        assert evaluate(ShiftOp(2, 1), SparseVec({E(3): 1})) == SparseVec({E(5): 1})

    def test_one_sided_rejects_negative(self):
        with pytest.raises(ValueError):
            ShiftOp(-1, 1, witt_pos())
        ShiftOp(0, 1, witt_pos())

    def test_witt_family_only(self):
        with pytest.raises(ValueError):
            ShiftOp(1, 1, thin())

    def test_materialize_window(self):
        w = window_from_ranges(witt_z(), (-2, 2), (-4, 4))
        m = materialize(ShiftOp(1, 1), w)
        assert m.image[E(2)] == SparseVec({E(3): 1})

    def test_materialize_overflow(self):
        w = window_from_ranges(witt_z(), (-2, 2), (-4, 4))
        with pytest.raises(SupportOverflow):
            materialize(ShiftOp(5, 1), w)


class TestThinHalfDer:
    def test_unit_alpha_value(self):
        op = ThinHalfDer(alpha=(1,))
        assert evaluate(op, SparseVec({E(5): 1})) == SparseVec({E(5): Fraction(7, 8)})

    def test_beta_tail_shifts(self):
        op = ThinHalfDer(beta=(0, 1))  # beta_3 = 1
        # e_j -> 2^(2-j) e_{j+1} for j >= 3
        assert op.value_at(E(4)) == SparseVec({E(5): Fraction(1, 4)})
        assert op.value_at(E(2)) == SparseVec({E(3): 1})
        assert op.value_at(E(1)).is_zero()

    def test_is_half_derivation_on_window(self):
        alg = thin()
        w = window_from_ranges(alg, (1, 7), (1, 12))
        op = ThinHalfDer(alpha=(2, 0, 1), beta=(Fraction(1, 2), 3))
        table = materialize(op, w)
        pairs = derivation_pairs(alg, w.keys)
        assert check_delta_derivation(alg, table, HALF, pairs) == []

    @given(
        alpha=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=3),
        beta=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=2),
    )
    @settings(max_examples=25, deadline=None)
    def test_family_members_always_pass(self, alpha, beta):
        alg = thin()
        w = window_from_ranges(alg, (1, 6), (1, 10))
        table = materialize(ThinHalfDer(tuple(alpha), tuple(beta)), w)
        pairs = derivation_pairs(alg, w.keys)
        assert check_delta_derivation(alg, table, HALF, pairs) == []


class TestSolvOperators:
    def test_materialize_example(self):
        w = window_from_ranges(solv_abelian(), (1, 4), (1, 4))
        m = materialize(SolvHalfDer(alpha=(2, 0, 3)), w)
        assert m.image[E(1)] == SparseVec({E(1): 2, E(3): 3})
        for k in (E(2), E(3), E(4)):
            assert m.image[k] == SparseVec({k: 2})

    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_family_members_always_pass(self, alpha):
        alg = solv_abelian()
        w = window_from_ranges(alg, (1, 6), (1, 8))
        table = materialize(SolvHalfDer(tuple(alpha)), w)
        pairs = derivation_pairs(alg, w.keys)
        assert check_delta_derivation(alg, table, HALF, pairs) == []

    def test_delta_bar_values(self):
        op = SolvDeltaBar()
        assert op.value_at(E(1)).is_zero()
        assert op.value_at(E(4)) == SparseVec({E(4): 1})


class TestWabHalfDer:
    def test_action_on_both_lines(self):
        op = WabHalfDer(alpha={1: 2}, beta={0: 1})
        assert op.value_at(E(3)) == SparseVec({E(4): 2, F(3): 1})
        assert op.value_at(F(3)) == SparseVec({F(4): 2})

    def test_b_minus_one_members_pass(self):
        alg = wab(Fraction(1, 2), -1)
        w = window_from_ranges(alg, (-2, 2), (-4, 4))
        pairs = derivation_pairs(alg, w.keys)
        for op in (WabHalfDer(alpha={-1: 1}), WabHalfDer(alpha={2: 3}), WabHalfDer(beta={1: 1})):
            table = materialize(op, w)
            assert check_delta_derivation(alg, table, HALF, pairs) == []

    def test_nonzero_shift_fails_off_minus_one(self):
        alg = wab(0, 0)
        w = window_from_ranges(alg, (-2, 2), (-4, 4))
        pairs = derivation_pairs(alg, w.keys)
        table = materialize(WabHalfDer(alpha={1: 1}), w)
        assert check_delta_derivation(alg, table, HALF, pairs) != []


class TestThinLocalDelta:
    def test_values(self):
        op = ThinLocalDelta()
        assert op.value_at(E(1)).is_zero()
        assert op.value_at(E(2)).is_zero()
        assert op.value_at(E(3)) == SparseVec({E(3): HALF})
        assert op.value_at(E(5)) == SparseVec({E(5): Fraction(7, 8)})

    def test_matches_unit_alpha_family_away_from_e1(self):
        unit = ThinHalfDer(alpha=(1,))
        delta = ThinLocalDelta()
        for j in range(3, 12):
            assert delta.value_at(E(j)) == unit.value_at(E(j))
        assert delta.value_at(E(2)) == unit.value_at(E(2))
        assert delta.value_at(E(1)) != unit.value_at(E(1))


class TestThinNabla:
    def test_case_split(self):
        nabla = ThinNabla()
        assert evaluate(nabla, SparseVec({E(1): 1, E(2): 1})) == SparseVec({E(2): 1})
        assert evaluate(nabla, SparseVec({E(2): 2})).is_zero()
        assert evaluate(nabla, SparseVec({E(1): 1, E(4): 8})) == SparseVec({E(4): 2})

    def test_not_materializable(self):
        w = window_from_ranges(thin(), (1, 4), (1, 4))
        with pytest.raises(TypeError):
            materialize(ThinNabla(), w)

    @given(
        lam=st.fractions(min_value=-4, max_value=4, max_denominator=3),
        coeffs=st.dictionaries(st.integers(1, 8), st.fractions(min_value=-3, max_value=3, max_denominator=3), max_size=4),
    )
    @settings(max_examples=60)
    def test_homogeneous(self, lam, coeffs):
        nabla = ThinNabla()
        x = SparseVec({E(i): c for i, c in coeffs.items()})
        assert evaluate(nabla, x.scaled(lam)) == evaluate(nabla, x).scaled(lam)

    def test_not_additive(self):
        nabla = ThinNabla()
        x = SparseVec({E(1): 1, E(2): 1})
        y = SparseVec({E(1): -1, E(2): 1})
        assert evaluate(nabla, x + y) != evaluate(nabla, x) + evaluate(nabla, y)


@pytest.mark.parametrize(
    "op, v, message",
    [
        (ShiftOp(1, 1, witt_pos()), SparseVec({E(0): 1}), "e0 is not a basis key of wittpos"),
        (ThinHalfDer((1,)), SparseVec({E(0): 1}), "e0 is not a basis key of thin"),
        (SolvHalfDer((1,)), SparseVec({F(1): 1}), "f1 is not a basis key of solv"),
        (ThinLocalDelta(), SparseVec({E(-1): 1}), "e-1 is not a basis key of thin"),
        (SolvDeltaBar(), SparseVec({E(0): 1}), "e0 is not a basis key of solv"),
        # a nonzero e1, or thin-nabla returns 0 before it reads any other key
        (ThinNabla(), SparseVec({E(0): 1, E(1): 1}), "e0 is not a basis key of thin"),
    ],
    ids=["shift", "thin-half-der", "solv-half-der", "thin-delta", "solv-deltabar", "thin-nabla"],
)
def test_a_key_outside_the_domain_is_refused(op, v, message):
    with pytest.raises(KeyOutOfDomain, match=f"^{message}$"):
        evaluate(op, v)


class TestComposition:
    def test_commutator_of_thin_maps(self):
        # a: e2 -> e3, e_j -> 2^(2-j) e_(j+1); b: e1 -> e1 + e2, e_j -> (1 - 2^(2-j)) e_j
        a = materialize(ThinHalfDer(beta=(0, 1)), window_from_ranges(thin(), (1, 5), (1, 6)))
        b = materialize(ThinHalfDer(alpha=(1, 1)), window_from_ranges(thin(), (1, 3), (1, 4)))
        comm = commutator(a, b)
        # e3 is an input of both, but a(e3) = e4/2 leaves b's inputs; e4 and
        # e5 are not inputs of b.
        assert comm.window.keys == (E(1), E(2))
        assert comm.window.out_keys == a.window.out_keys
        for k in comm.window.keys:
            assert comm.image[k] == a.evaluate(b.image[k]) - b.evaluate(a.image[k])
        assert comm.image[E(1)] == SparseVec({E(3): 1})
        assert comm.image[E(2)] == SparseVec({E(3): Fraction(-1, 2)})
        assert commutator(b, a).image == {k: -v for k, v in comm.image.items()}

    def test_commutator_of_shifts_vanishes(self):
        wz = witt_z()
        a = materialize(ShiftOp(1, 1), window_from_ranges(wz, (-4, 4), (-6, 6)))
        b = materialize(ShiftOp(2, 5), window_from_ranges(wz, (-6, 6), (-8, 8)))
        comm = commutator(b, a)
        assert all(comm.image[k].is_zero() for k in comm.window.keys)


def reference_commutator(a, b):
    """The window and images of ``a b - b a`` composed with ``evaluate``, on
    the keys where both compositions are defined."""
    a_in, b_in = a.window.key_set(), b.window.key_set()
    keys = tuple(
        k
        for k in a.window.keys
        if k in b_in and set(b.image[k].support()) <= a_in and set(a.image[k].support()) <= b_in
    )
    out = tuple(sorted(a.window.out_key_set() | b.window.out_key_set()))
    return Window(keys, out), {k: a.evaluate(b.image[k]) - b.evaluate(a.image[k]) for k in keys}


@st.composite
def ranged_maps(draw, alg):
    """A map with Fraction entries, or the zero map, on a range window of ``alg``."""
    lo = draw(st.integers(-2, 0))
    hi = lo + draw(st.integers(1, 4))
    w = window_from_ranges(alg, (lo, hi), (lo - draw(st.integers(0, 1)), hi + draw(st.integers(0, 1))))
    entries = st.dictionaries(
        st.sampled_from(w.out_keys), st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=2
    )
    if draw(st.integers(0, 5)) == 0:
        entries = st.just({})
    return WindowedMap(w, {k: draw(entries) for k in w.keys})


class TestCommutatorOracle:
    @given(data=st.data(), alg=st.sampled_from([witt_z(), wab(0, -1)]))
    @settings(max_examples=200, deadline=None)
    def test_commutator_matches_the_composed_formula(self, data, alg):
        a, b = data.draw(ranged_maps(alg)), data.draw(ranged_maps(alg))
        comm = commutator(a, b)
        assert (comm.window, comm.image) == reference_commutator(a, b)
        entries = [x for v in comm.image.values() for x in v.entries.values()]
        assert all(x != 0 and (type(x) is int or x.denominator > 1) for x in entries)
