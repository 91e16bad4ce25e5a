"""Algebra catalogue: index domains, brackets, antisymmetry, Jacobi, grading."""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deltader
from deltader.algebras import (
    ALGEBRA_NAMES,
    CATALOGUE,
    AlgebraSpec,
    E,
    F,
    KeyOutOfDomain,
    bracket,
    bracket_term,
    degree,
    in_domain,
    solv_abelian,
    structure_table,
    thin,
    wab,
    witt_one_sided,
    witt_pos,
    witt_z,
)
from deltader.acceptance import WAB_ACCEPTANCE_PARAMS, acceptance_window
from deltader.exactlin import SparseVec
from deltader.literals import ParseError, parse_operator
from deltader.operators import window_from_ranges
from residual_oracle import bracket_vec

ALL_PARAMLESS = [witt_z(), witt_pos(), witt_one_sided(), thin(), solv_abelian()]
WAB_SAMPLES = [wab(0, 0), wab(1, -1), wab(Fraction(1, 2), -1), wab(0, 2)]
ACCEPTANCE_ALGEBRAS = ALL_PARAMLESS + [wab(a, b) for a, b in WAB_ACCEPTANCE_PARAMS]
ONE_PER_RECORD = [witt_z(), witt_pos(), witt_one_sided(), wab(0, -1), thin(), solv_abelian()]

# The algebras each operator-literal head is defined on, and a literal per head.
DEFINED_ON = {
    "shift": ("wittz", "wittpos", "witt1"),
    "wab": ("wab",),
    "thin": ("thin",),
    "thin-delta": ("thin",),
    "thin-nabla": ("thin",),
    "solv": ("solv",),
    "solv-deltabar": ("solv",),
}
HEAD_LITERALS = {
    "shift": "shift:t=1,w=2",
    "wab": "wab:a={0:1};b={1:1}",
    "thin": "thin:a=[1];b=[0,2]",
    "thin-delta": "thin-delta",
    "thin-nabla": "thin-nabla",
    "solv": "solv:a=[1,2]",
    "solv-deltabar": "solv-deltabar",
}


class TestDomains:
    def test_one_sided_contains_minus_one(self):
        assert in_domain(witt_one_sided(), E(-1))

    def test_positive_starts_at_one(self):
        assert not in_domain(witt_pos(), E(0))
        assert in_domain(witt_pos(), E(1))

    def test_f_keys_only_on_wab(self):
        assert not in_domain(witt_z(), F(0))
        assert in_domain(wab(0, 0), F(0))

    def test_thin_and_solv_start_at_one(self):
        for alg in (thin(), solv_abelian()):
            assert not in_domain(alg, E(0))
            assert in_domain(alg, E(1))

    def test_bracket_rejects_out_of_domain(self):
        with pytest.raises(KeyOutOfDomain):
            bracket(witt_pos(), E(0), E(1))
        with pytest.raises(KeyOutOfDomain):
            bracket(thin(), F(1), E(1))


class TestBracketRules:
    def test_witt_rule(self):
        assert bracket(witt_z(), E(2), E(3)) == SparseVec({E(5): 1})
        assert bracket(witt_z(), E(3), E(2)) == SparseVec({E(5): -1})
        assert bracket(witt_z(), E(1), E(1)).is_zero()

    def test_wab_e_f_rule(self):
        # [e_i, f_j] = -(j + a + b*i) f_{i+j}; at a=b=0 and (i,j)=(1,2) this is -2 f_3
        assert bracket(wab(0, 0), E(1), F(2)) == SparseVec({F(3): -2})
        assert bracket(wab(1, -1), E(2), F(3)) == SparseVec({F(5): -2})
        assert bracket(wab(0, 0), F(2), F(5)).is_zero()

    def test_wab_e_e_rule(self):
        assert bracket(wab(0, 0), E(1), E(2)) == SparseVec({E(3): -1})

    def test_thin_rule(self):
        assert bracket(thin(), E(2), E(3)).is_zero()
        assert bracket(thin(), E(1), E(2)) == SparseVec({E(3): 1})
        assert bracket(thin(), E(5), E(1)) == SparseVec({E(6): -1})

    def test_solv_rule(self):
        assert bracket(solv_abelian(), E(1), E(7)) == SparseVec({E(7): 1})
        assert bracket(solv_abelian(), E(2), E(7)).is_zero()

    def test_self_bracket_vanishes_everywhere(self):
        for alg in ALL_PARAMLESS + WAB_SAMPLES:
            keys = [E(3)] + ([F(2)] if alg.name == "wab" else [])
            for k in keys:
                assert bracket(alg, k, k).is_zero()


def box_keys(alg, radius=6):
    if alg.name in ("wittz", "wab"):
        idx = range(-radius, radius + 1)
    elif alg.name == "witt1":
        idx = range(-1, radius + 1)
    else:
        idx = range(1, radius + 2)
    keys = [E(i) for i in idx]
    if alg.name == "wab":
        keys += [F(i) for i in idx]
    return keys


def jacobi_defect(alg, k1, k2, k3):
    u = lambda k: SparseVec({k: 1})
    return (
        bracket_vec(alg, u(k1), bracket(alg, k2, k3))
        + bracket_vec(alg, u(k2), bracket(alg, k3, k1))
        + bracket_vec(alg, u(k3), bracket(alg, k1, k2))
    )


@pytest.mark.parametrize("alg", ALL_PARAMLESS + WAB_SAMPLES, ids=lambda a: a.label())
def test_antisymmetry_box(alg):
    keys = box_keys(alg, radius=5)
    for k1, k2 in itertools.product(keys, repeat=2):
        assert (bracket(alg, k1, k2) + bracket(alg, k2, k1)).is_zero()


@pytest.mark.parametrize("alg", ALL_PARAMLESS + WAB_SAMPLES, ids=lambda a: a.label())
def test_jacobi_box(alg):
    keys = box_keys(alg, radius=4)
    for trip in itertools.combinations_with_replacement(keys, 3):
        assert jacobi_defect(alg, *trip).is_zero()


@given(
    a=st.fractions(min_value=-2, max_value=2, max_denominator=3),
    b=st.fractions(min_value=-2, max_value=2, max_denominator=3),
    i=st.integers(-5, 5),
    j=st.integers(-5, 5),
    k=st.integers(-5, 5),
)
@settings(max_examples=80)
def test_wab_jacobi_generic_parameters(a, b, i, j, k):
    alg = wab(a, b)
    assert jacobi_defect(alg, E(i), E(j), F(k)).is_zero()
    assert jacobi_defect(alg, E(i), F(j), F(k)).is_zero()


class TestGrading:
    def test_witt_supported_at_sum(self):
        v = bracket(witt_z(), E(2), E(5))
        assert v.support() == [E(7)]

    def test_wab_ef_supported_on_f_line(self):
        v = bracket(wab(0, 1), E(2), F(3))
        assert all(key.kind == "f" and key.index == 5 for key in v.support())

    def test_thin_step(self):
        assert bracket(thin(), E(1), E(9)).support() == [E(10)]


    def test_degrees(self):
        assert degree(witt_z(), E(-3)) == -3
        assert degree(wab(0, 1), F(4)) == 4
        assert degree(thin(), E(7)) == 7
        # [e1, e_i] = e_i: the index is no grading of solv
        assert [degree(solv_abelian(), E(i)) for i in (1, 2, 9)] == [0, 1, 1]

    @given(
        alg=st.one_of(
            st.sampled_from(ACCEPTANCE_ALGEBRAS),
            st.builds(
                wab,
                st.fractions(min_value=-3, max_value=3, max_denominator=5),
                st.fractions(min_value=-3, max_value=3, max_denominator=5),
            ),
        ),
        k1=st.tuples(st.sampled_from("ef"), st.integers(-12, 12)),
        k2=st.tuples(st.sampled_from("ef"), st.integers(-12, 12)),
    )
    @settings(max_examples=400)
    def test_bracket_adds_degrees(self, alg, k1, k2):
        k1, k2 = _domain_key(alg, *k1), _domain_key(alg, *k2)
        term = bracket_term(alg, k1, k2)
        if term is not None:
            assert degree(alg, term[0]) == degree(alg, k1) + degree(alg, k2)


class TestBracketVec:
    def test_bilinear_expansion(self):
        # [e0 + e1, e2] on the Witt algebra: (2-0)e2 + (2-1)e3
        v = SparseVec({E(0): 1, E(1): 1})
        w = SparseVec({E(2): 1})
        assert bracket_vec(witt_z(), v, w) == SparseVec({E(2): 2, E(3): 1})

    def test_alternating_and_zero(self):
        v = SparseVec({E(1): 2, E(3): -1})
        assert bracket_vec(witt_z(), v, v).is_zero()
        assert bracket_vec(witt_z(), SparseVec(), v).is_zero()


class TestSpecValidation:
    def test_wab_requires_parameters(self):
        with pytest.raises(ValueError):
            AlgebraSpec("wab")
        with pytest.raises(ValueError):
            AlgebraSpec("thin", a=Fraction(1))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            AlgebraSpec("virasoro")

    @pytest.mark.parametrize("a, b", [(0.5, -1), (0, -1.0), (0.5, 2.5)])
    def test_float_parameters_are_refused_at_construction(self, a, b):
        with pytest.raises(TypeError):
            AlgebraSpec("wab", a, b)
        with pytest.raises(TypeError):
            wab(a, b)

    def test_parameters_are_exact_in_any_form(self):
        alg = AlgebraSpec("wab", "1/2", -1)
        for same in (wab("1/2", -1), wab(Fraction(1, 2), Fraction(-1)), wab("2/4", "-2/2")):
            assert alg == same
            assert hash(alg) == hash(same)
            assert alg.label() == same.label() == "wab(a=1/2,b=-1)"
        assert bracket_term(alg, E(1), F(2)) == (F(3), Fraction(-3, 2))
        assert wab(Fraction(3), Fraction(-1)).label() == wab(3, -1).label() == "wab(a=3,b=-1)"


def _domain_key(alg, kind, index):
    """A key of ``alg`` built from arbitrary draws: f only on wab, shifted into the domain."""
    if alg.name != "wab":
        kind = "e"
    low = {"wittpos": 1, "thin": 1, "solv": 1, "witt1": -1}.get(alg.name)
    if low is not None:
        index = low + abs(index)
    return E(index) if kind == "e" else F(index)


keys_of = st.tuples(st.sampled_from("ef"), st.integers(-12, 12))
WAB_PARAMETERS = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


class TestBracketTerm:
    """``bracket_term`` holds the structure constants; the vector forms wrap it."""

    @given(
        alg=st.one_of(
            st.sampled_from(ALL_PARAMLESS + WAB_SAMPLES),
            # parameters as ints, integral Fractions and non-integral Fractions
            st.builds(AlgebraSpec, st.just("wab"), WAB_PARAMETERS, WAB_PARAMETERS),
        ),
        k1=keys_of,
        k2=keys_of,
        coeffs=st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=4, max_size=4
        ),
    )
    @settings(max_examples=300)
    def test_term_bracket_and_bracket_vec_agree(self, alg, k1, k2, coeffs):
        k1, k2 = _domain_key(alg, *k1), _domain_key(alg, *k2)
        term = bracket_term(alg, k1, k2)
        if term is None:
            assert bracket(alg, k1, k2).is_zero()
        else:
            key, coeff = term
            assert coeff != 0
            assert type(coeff) is int or coeff.denominator != 1
            assert bracket(alg, k1, k2) == SparseVec({key: coeff})
        u1, u2 = SparseVec({k1: 1}), SparseVec({k2: 1})
        assert bracket_vec(alg, u1, u2) == bracket(alg, k1, k2)
        # bilinearity over two-term vectors, against term-by-term brackets
        k3, k4 = _domain_key(alg, "e", k1.index + 1), _domain_key(alg, "f", k2.index - 1)
        v = SparseVec({k1: coeffs[0], k3: coeffs[1]})
        w = SparseVec({k2: coeffs[2], k4: coeffs[3]})
        expected = SparseVec()
        for a, ca in v.items():
            for b, cb in w.items():
                expected = expected + bracket(alg, a, b).scaled(ca * cb)
        assert bracket_vec(alg, v, w) == expected

    def test_witt_coefficients_are_ints(self):
        assert bracket_term(witt_z(), E(2), E(5)) == (E(7), 3)
        assert type(bracket_term(witt_z(), E(2), E(5))[1]) is int
        assert bracket_term(witt_z(), E(4), E(4)) is None

    def test_wab_coefficients_exact(self):
        assert bracket_term(wab(Fraction(1, 2), -1), E(1), F(2)) == (F(3), Fraction(-3, 2))
        key, coeff = bracket_term(wab(1, -1), E(2), F(3))
        assert (key, coeff, type(coeff)) == (F(5), -2, int)
        assert bracket_term(wab(0, 0), F(2), F(5)) is None

    def test_term_rejects_out_of_domain(self):
        with pytest.raises(KeyOutOfDomain):
            bracket_term(witt_pos(), E(0), E(1))
        with pytest.raises(KeyOutOfDomain):
            bracket_term(solv_abelian(), E(1), F(1))


def _assert_table_is_scaled_definition(alg):
    """On the axiom box and the acceptance window, every entry of
    ``structure_table`` is an int constant equal to ``bracket_term`` times
    ``alg.scale``, square tables and mixed ones alike."""
    key_sets = (window_from_ranges(alg, alg.record.axiom_box).keys, acceptance_window(alg).out_keys)
    for left, right in itertools.product(key_sets, repeat=2):
        table = structure_table(alg, left, right)
        assert [len(row) for row in table] == [len(right)] * len(left)
        for k1, row in zip(left, table):
            for k2, entry in zip(right, row):
                term = bracket_term(alg, k1, k2)
                if entry is None:
                    assert term is None
                    continue
                key, c = entry
                assert type(c) is int and c != 0
                assert term == (key, Fraction(c, alg.scale))


class TestStructureTable:
    """``structure_table`` is ``bracket_term`` times the spec's scale, in ints."""

    @pytest.mark.parametrize("alg", ONE_PER_RECORD + WAB_SAMPLES, ids=lambda a: a.label())
    def test_table_is_the_definition_times_the_scale(self, alg):
        _assert_table_is_scaled_definition(alg)

    @given(alg=st.builds(AlgebraSpec, st.just("wab"), WAB_PARAMETERS, WAB_PARAMETERS))
    @settings(max_examples=40, deadline=None)
    def test_table_is_the_definition_times_the_scale_on_any_wab(self, alg):
        _assert_table_is_scaled_definition(alg)

    @pytest.mark.parametrize(
        "a, b, scale, scaled_a, scaled_b",
        [
            (0, -1, 1, 0, -1),
            (Fraction(1, 2), -1, 2, 1, -2),
            (Fraction(4, 2), Fraction(-1, 3), 3, 6, -1),
            (Fraction(1, 4), Fraction(5, 6), 12, 3, 10),
        ],
    )
    def test_scale_clears_the_parameter_denominators(self, a, b, scale, scaled_a, scaled_b):
        alg = wab(a, b)
        assert (alg.scale, alg.scaled_a, alg.scaled_b) == (scale, scaled_a, scaled_b)
        assert type(alg.scaled_a) is int and type(alg.scaled_b) is int
        for other in ALL_PARAMLESS:
            assert (other.scale, other.scaled_a, other.scaled_b) == (1, None, None)


def _name_dispatch_lines(source):
    """Lines that compare (==, !=, in, not in) a ``.name`` or an algebra name
    spelled as a literal, alone or in a tuple, list or set, or subscript by a
    ``.name``."""

    def is_name(node):
        return isinstance(node, ast.Attribute) and node.attr == "name"

    def is_name_literal(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(is_name_literal, node.elts))
        return isinstance(node, ast.Constant) and node.value in ALGEBRA_NAMES

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            dispatch_ops = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
            if any(isinstance(op, dispatch_ops) for op in node.ops) and any(
                is_name(x) or is_name_literal(x) for x in (node.left, *node.comparators)
            ):
                yield node.lineno
        elif isinstance(node, ast.Subscript) and any(is_name(x) for x in ast.walk(node.slice)):
            yield node.lineno


class TestCatalogueRecords:
    """Each algebra is one ``AlgebraRecord``; other modules read it, not the name."""

    @pytest.mark.parametrize(
        "source, dispatches",
        [
            ('if alg.name == "wab": pass', True),
            ('ok = "thin" != spec.name', True),
            ('ok = alg.name in ("wittz", "wab")', True),
            ("margin = MARGINS[alg.name]", True),
            ('if name == "wab": pass', True),
            ('ok = "thin" != algebra', True),
            ('ok = name in ("wittz", "wab")', True),
            ('ok = name not in {"solv"}', True),
            ('ok = key.kind == "e" or head in ("shift",)', False),
            ('entry = COUNTEREXAMPLES["thin"]', False),
            ('print(f"{alg.name}: ok", alg.name)', False),
            ('inputs["algebra"] = alg.name', False),
            ("row = [alg.name, str(alg.a)]", False),
        ],
    )
    def test_the_guard_sees_name_dispatch(self, source, dispatches):
        assert bool(list(_name_dispatch_lines(source))) == dispatches

    @pytest.mark.parametrize(
        "path",
        sorted(p for p in Path(deltader.__file__).parent.glob("*.py") if p.name != "algebras.py"),
        ids=lambda p: p.name,
    )
    def test_no_module_outside_the_catalogue_dispatches_on_the_name(self, path):
        assert list(_name_dispatch_lines(path.read_text())) == [], path.name

    def test_one_record_per_algebra_name(self):
        assert ALGEBRA_NAMES == ("wittz", "wittpos", "witt1", "wab", "thin", "solv")
        assert tuple(record.name for record in CATALOGUE) == ALGEBRA_NAMES
        for alg in ALL_PARAMLESS + WAB_SAMPLES:
            assert alg.record is CATALOGUE[ALGEBRA_NAMES.index(alg.name)]

    @pytest.mark.parametrize("alg", ONE_PER_RECORD, ids=lambda a: a.name)
    def test_suite_windows_and_axiom_box_lie_in_the_domain(self, alg):
        reference = set(box_keys(alg, radius=20))
        record = alg.record
        assert set(acceptance_window(alg).out_keys) <= reference
        assert set(window_from_ranges(alg, record.axiom_box).keys) <= reference
        assert record.margin >= 0

    @pytest.mark.parametrize("alg", ONE_PER_RECORD, ids=lambda a: a.name)
    def test_operator_heads_parse_on_their_algebra_only(self, alg):
        assert set(alg.record.heads) == {h for h, names in DEFINED_ON.items() if alg.name in names}
        for head, literal in HEAD_LITERALS.items():
            if alg.name in DEFINED_ON[head]:
                parse_operator(literal, alg)
                continue
            with pytest.raises(ParseError) as err:
                parse_operator(literal, alg)
            assert str(err.value) == (
                f"{head} operators are defined on {', '.join(DEFINED_ON[head])}, "
                f"not on {alg.label()} (at position 0)"
            )

    @pytest.mark.parametrize("alg", ONE_PER_RECORD, ids=lambda a: a.name)
    def test_bracket_term_rejects_keys_outside_the_record(self, alg):
        for key, pair in _outside_pairs(alg):
            with pytest.raises(KeyOutOfDomain) as err:
                bracket_term(alg, *pair)
            assert str(err.value) == f"{key} is not a basis key of {alg.label()}"

    @pytest.mark.parametrize("alg", ONE_PER_RECORD, ids=lambda a: a.name)
    def test_structure_table_rejects_keys_outside_the_record(self, alg):
        for key, pair in _outside_pairs(alg):
            inside = [k for k in pair if k != key]
            for left, right in ((pair, inside), (inside, pair), (pair, pair)):
                with pytest.raises(KeyOutOfDomain) as err:
                    structure_table(alg, left, right)
                assert str(err.value) == f"{key} is not a basis key of {alg.label()}"


def _outside_pairs(alg):
    """(key, pair) for each key just outside the record's domain, paired
    with a key inside it in both orders."""
    floor = alg.record.floor
    outside = [] if floor is None else [E(floor - 1)]
    inside = E(1 if floor is None else floor)
    assert inside in box_keys(alg, radius=20)
    if "f" not in alg.record.lines:
        outside.append(F(inside.index))
    assert outside or alg.name == "wab"
    for key in outside:
        assert not in_domain(alg, key) and key not in box_keys(alg, radius=20)
        for pair in ((key, inside), (inside, key)):
            yield key, pair
