"""The canonical exact scalar: an int when integral, a Fraction only otherwise.

``as_scalar`` picks that form wherever a scalar enters: every public producer
of exact values stores its entries in it, algebra parameters, parsed literals
and operator fields are in it, and a report prints the same text for ``n``
and ``Fraction(n)``. No module in ``src/deltader`` writes an integral
``Fraction`` literal. The results of vector and map arithmetic and of the
solver skip the constructors' checks, and each equals its checked twin.
"""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltader.algebras import (
    AlgebraSpec,
    E,
    F,
    solv_abelian,
    thin,
    wab,
    witt_one_sided,
    witt_pos,
    witt_z,
)
from deltader.cli import _serialize_params, _tsv_text
from deltader.dersolve import expected_family, solve_derivations, solve_half_derivations
from deltader.exactlin import SparseVec, as_scalar, nullspace, solve_feasible
from deltader.literals import (
    format_element,
    format_operator,
    parse_element,
    parse_operator,
    parse_scalar,
)
from deltader.locality import local_feasible_at, two_local_feasible_at
from deltader.operators import (
    ShiftOp,
    SolvHalfDer,
    SupportOverflow,
    ThinHalfDer,
    ThinLocalDelta,
    WabHalfDer,
    WindowedMap,
    commutator,
    materialize,
    window_from_ranges,
)

from test_exactlin import apply, augmented, dot, pack, split
from test_golden import SOLVE_GOLDEN_PATHS, golden_window


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
# The coefficient of an element term: none, an integer, or ``p/q``
# (unreduced coefficients such as 4/2 among them).
COEFFICIENT_TEXT = st.one_of(
    st.just(""),
    st.builds("{}*".format, st.integers(0, 12)),
    st.builds("{}/{}*".format, st.integers(0, 12), st.integers(1, 4)),
)


class TestAsScalar:
    @given(SCALARS)
    def test_canonical_and_equal(self, value):
        scalar = as_scalar(value)
        assert is_canonical(scalar)
        assert scalar == Fraction(value)

    @given(st.integers(-10**30, 10**30))
    def test_an_int_is_returned_as_is(self, n):
        assert as_scalar(n) is n
        assert type(as_scalar(Fraction(n))) is int

    @given(FRACTIONS.filter(lambda q: q.denominator > 1))
    def test_a_non_integral_fraction_is_not_copied(self, q):
        # a copy per entry would cost memory wherever vectors share a scalar
        assert as_scalar(q) is q

    @pytest.mark.parametrize("value", [0.5, 1.0, True, None, [1], 1j])
    def test_anything_else_is_refused(self, value):
        with pytest.raises(TypeError):
            as_scalar(value)


class TestParsedLiterals:
    @given(st.integers(-12, 12), st.integers(1, 4))
    def test_parse_scalar(self, p, q):
        for text in (f"{p}/{q}", f"{p * q}/{q}", str(p), f" {p} "):
            value = parse_scalar(text)
            assert is_canonical(value)
            assert value == Fraction(text.strip())


class TestSparseVec:
    @given(VECTORS, VECTORS, SCALARS)
    def test_every_operation_is_canonical(self, a, b, factor):
        v, w = SparseVec(a), SparseVec(b)
        for result in (v, w, v + w, v - w, -v, v.scaled(factor)):
            assert canonical(result)
        # the form changes no value
        for k in set(a) | set(b):
            assert (v + w).get(k) == Fraction(a.get(k, 0)) + Fraction(b.get(k, 0))

    @given(st.lists(st.tuples(st.booleans(), COEFFICIENT_TEXT, KEYS), min_size=1))
    def test_parse_element(self, terms):
        text = "".join(
            f"{'-' if negative else '+' if i else ''}{coef}{key.kind}{key.index}"
            for i, (negative, coef, key) in enumerate(terms)
        )
        v = parse_element(text)
        assert canonical(v)
        assert parse_element(format_element(v)) == v


SHIFT_ALGEBRAS = [witt_z(), witt_pos(), witt_one_sided()]


class TestParametersAndFields:
    @given(SCALARS, SCALARS)
    def test_algebra_parameters(self, a, b):
        for alg in (AlgebraSpec("wab", a, b), wab(a, b)):
            assert is_canonical(alg.a) and is_canonical(alg.b)
            assert (alg.a, alg.b) == (Fraction(a), Fraction(b))

    @given(st.sampled_from(SHIFT_ALGEBRAS), st.integers(0, 3), SCALARS)
    def test_shift_weight(self, alg, t, weight):
        assert is_canonical(ShiftOp(t, weight, alg).weight)

    @given(st.lists(SCALARS, max_size=4), st.lists(SCALARS, max_size=4))
    def test_thin_and_solv_coefficients(self, alpha, beta):
        op = ThinHalfDer(alpha=alpha, beta=beta)
        assert all(map(is_canonical, op.alpha + op.beta))
        assert is_canonical(op.alpha_at(1)) and is_canonical(op.beta_at(2))
        solv = SolvHalfDer(alpha=alpha)
        assert all(map(is_canonical, solv.alpha))

    @given(st.dictionaries(st.integers(-2, 2), SCALARS), st.dictionaries(st.integers(-2, 2), SCALARS))
    def test_wab_coefficients(self, alpha, beta):
        op = WabHalfDer(alpha=alpha, beta=beta)
        for given_, stored in ((alpha, op.alpha), (beta, op.beta)):
            assert all(map(is_canonical, stored.values()))
            assert stored == {t: Fraction(v) for t, v in given_.items() if Fraction(v)}

    @pytest.mark.parametrize(
        "literal",
        ["shift:t=1,w=4/2", "thin:a=[4/2,0,-3/3];b=[6/2,1/2]", "solv:a=[2/2,-1]", "wab:a={-1:4/2,0:1};b={0:-3/3}"],
    )
    def test_parsed_operator_fields(self, literal):
        op = parse_operator(literal)
        fields = [op.weight] if isinstance(op, ShiftOp) else []
        for coeffs in (getattr(op, "alpha", ()), getattr(op, "beta", ())):
            fields += coeffs.values() if isinstance(coeffs, dict) else coeffs
        assert fields and all(map(is_canonical, fields))


INTEGRAL = st.integers(-5, 5)


class TestSameTextForIntegralForms:
    @given(INTEGRAL, INTEGRAL, st.lists(INTEGRAL, max_size=3), st.integers(-2, 2))
    def test_operator_literals(self, n, m, coeffs, t):
        fractions = [Fraction(c) for c in coeffs]
        pairs = [
            (ShiftOp(1, n), ShiftOp(1, Fraction(n))),
            (ThinHalfDer(alpha=coeffs, beta=coeffs), ThinHalfDer(alpha=fractions, beta=fractions)),
            (SolvHalfDer(alpha=coeffs), SolvHalfDer(alpha=fractions)),
            (WabHalfDer(alpha={t: n}, beta={t: m}), WabHalfDer(alpha={t: Fraction(n)}, beta={t: Fraction(m)})),
        ]
        for plain, legacy in pairs:
            assert plain == legacy
            assert format_operator(plain) == format_operator(legacy)

    @given(INTEGRAL, INTEGRAL)
    def test_labels_and_tsv(self, a, b):
        plain, legacy = wab(a, b), wab(Fraction(a), Fraction(b))
        assert plain == legacy and hash(plain) == hash(legacy)
        assert plain.label() == legacy.label() == f"wab(a={a},b={b})"
        row = ("wab", a, b, 14, 26, 3, 1)
        assert _tsv_text([row]) == _tsv_text([("wab", Fraction(a), Fraction(b), *row[3:])])


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
        matrix = pack([dict(enumerate(row)) for row in grid], 3)
        assert all(is_canonical(v) for row in matrix.rows for v in row.values())
        for v in nullspace(matrix):
            assert canonical(v)
            assert apply(matrix, v).is_zero()

    @given(
        st.lists(st.lists(SCALARS, min_size=3, max_size=3), min_size=1, max_size=4),
        st.lists(SCALARS, min_size=4, max_size=4),
    )
    def test_solutions_and_certificates(self, grid, rhs):
        rows = augmented(grid, rhs)
        matrix, b = split(rows, 3)
        result = solve_feasible(rows, 3)
        if result.feasible:
            assert canonical(result.solution)
            assert apply(matrix, result.solution) == b
        else:
            u = result.certificate
            assert canonical(u)
            for col in range(matrix.ncols):
                assert sum(u.get(i) * row.get(col, 0) for i, row in enumerate(matrix.rows)) == 0
            assert dot(u, b) == 1


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


def assert_checked(v: SparseVec) -> None:
    """``v`` holds only nonzero canonical entries, and equals what the
    checking constructor makes of them."""
    entries = v.entries
    assert all(c and is_canonical(c) for c in entries.values())
    assert SparseVec(entries) == v


def assert_checked_map(m: WindowedMap) -> None:
    """Every image of ``m`` passes ``assert_checked``, and ``m`` equals the
    map that the checking constructor builds from its window and images."""
    for v in m.image.values():
        assert_checked(v)
    assert WindowedMap(m.window, {k: v.entries for k, v in m.image.items()}) == m


HALF = Fraction(1, 2)
FACTORS = (0, 1, -3, Fraction(2, 3), Fraction(4, 2), Fraction(-3, 1))
# One input window with two output windows: equal to it, so every
# commutator key survives, and larger, so a commutator's output window is
# the union of its factors'.
MAP_WINDOWS = [window_from_ranges(witt_z(), (0, 2)), window_from_ranges(witt_z(), (0, 2), (-1, 3))]
IMAGES = st.lists(st.dictionaries(st.integers(-1, 3), SCALARS, max_size=3), min_size=3, max_size=3)


def random_map(w, images) -> WindowedMap:
    """The map of ``w`` whose image of ``keys[i]`` is ``images[i]`` (over
    e-indices), kept to the output window."""
    out = w.out_key_set()
    return WindowedMap(
        w, {k: {E(i): c for i, c in im.items() if E(i) in out} for k, im in zip(w.keys, images)}
    )


class TestTrustedResults:
    @given(VECTORS, VECTORS, SCALARS)
    def test_vector_arithmetic(self, a, b, factor):
        v, w = SparseVec(a), SparseVec(b)
        for result in (v + w, v - w, w - v, -v, v - v, v.scaled(factor)):
            assert_checked(result)
        for f in FACTORS:
            assert_checked(v.scaled(f))
            assert_checked((v + w).scaled(f))

    def test_cancellations(self):
        x = SparseVec({E(0): HALF, E(1): Fraction(2, 3), F(0): 5})
        cases = [
            (SparseVec({E(0): HALF}) + SparseVec({E(0): HALF}), {E(0): 1}),
            (SparseVec({E(0): HALF}).scaled(2), {E(0): 1}),
            (SparseVec({E(0): Fraction(2, 3)}).scaled(Fraction(3, 2)), {E(0): 1}),
            (x.scaled(6), {E(0): 3, E(1): 4, F(0): 30}),
            (x - x, {}),
            (x + -x, {}),
            (x.scaled(0), {}),
            (x.scaled(1), x.entries),
            (x + SparseVec({E(1): Fraction(1, 3), F(0): -5}), {E(0): HALF, E(1): 1}),
        ]
        for result, expected in cases:
            assert_checked(result)
            assert result.entries == expected  # an int where integral, by assert_checked

    @pytest.mark.parametrize("w, other", [MAP_WINDOWS, MAP_WINDOWS[::-1]], ids=["in=out", "in<out"])
    @settings(deadline=None)
    @given(IMAGES, IMAGES, SCALARS)
    def test_map_arithmetic(self, w, other, first, second, factor):
        a, b, c = random_map(w, first), random_map(w, second), random_map(other, second)
        for result in (a + b, a.scaled(factor), commutator(a, b), commutator(a, c), commutator(c, a)):
            assert_checked_map(result)
        for f in FACTORS:
            assert_checked_map(a.scaled(f))

    @pytest.mark.parametrize("path", SOLVE_GOLDEN_PATHS, ids=lambda p: p.name)
    def test_families_on_every_solve_golden_window(self, path):
        alg, w = golden_window(json.loads(path.read_text()))
        for family in (solve_half_derivations(alg, w), expected_family(alg, w)):
            assert family.vectors
            for v in family.vectors:
                assert_checked(v)
                for image in family.images(v).values():
                    assert_checked(image)
            for m in family.basis:
                assert_checked_map(m)

    def test_materialize_still_checks_the_output_window(self):
        w = window_from_ranges(thin(), (1, 4), (1, 5))
        assert_checked_map(materialize(ThinLocalDelta(), w))
        # e4 -> e6, e4 -> e6 and e1 -> e6: each leaves the output window
        escaping = (ShiftOp(2, 1, witt_pos()), ThinHalfDer(beta=(0, 0, 1)), SolvHalfDer((0,) * 5 + (1,)))
        for op in escaping:
            with pytest.raises(SupportOverflow):
                materialize(op, w)


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


def _integral_fraction_literals(source: str) -> list:
    """Line numbers of ``Fraction(<integer literal>)`` and ``Fraction(x, 1)``
    calls in ``source``: integral scalars spelled as ``Fraction``s."""

    def integer_literal(node) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) is int

    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or node.keywords:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "Fraction":
            continue
        args = node.args
        if (len(args) == 1 and integer_literal(args[0])) or (
            len(args) == 2 and integer_literal(args[1]) and abs(ast.literal_eval(args[1])) == 1
        ):
            lines.append(node.lineno)
    return lines


class TestSource:
    @pytest.mark.parametrize(
        "source, found",
        [
            ("x = Fraction(0)\n", [1]),
            ("x = Fraction(-1)\n", [1]),
            ("y = 2\nx = fractions.Fraction(y, 1)\n", [2]),
            ("x = Fraction(1, 2)\ny = Fraction(n, d)\nz = Fraction(t)\n", []),
        ],
    )
    def test_the_guard_sees_integral_fractions(self, source, found):
        assert _integral_fraction_literals(source) == found

    def test_no_integral_fraction_literal_in_src(self):
        src = Path(__file__).resolve().parent.parent / "src" / "deltader"
        found = {
            path.name: lines
            for path in sorted(src.glob("*.py"))
            if (lines := _integral_fraction_literals(path.read_text()))
        }
        assert found == {}
