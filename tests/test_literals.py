"""Element and operator literal parsing and canonical serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltader import literals
from deltader.algebras import CATALOGUE, E, F, witt_one_sided, witt_pos, witt_z
from deltader.exactlin import SparseVec
from deltader.literals import (
    ParseError,
    format_element,
    format_operator,
    parse_element,
    parse_operator,
    parse_range,
    parse_scalar,
)
from deltader.operators import (
    ShiftOp,
    SolvDeltaBar,
    SolvHalfDer,
    ThinHalfDer,
    ThinLocalDelta,
    ThinNabla,
    WabHalfDer,
)


class TestParseElement:
    def test_plain_sum(self):
        assert parse_element("e1+e2") == SparseVec({E(1): 1, E(2): 1})

    def test_coefficients_and_negative_indices(self):
        got = parse_element("3/4*e-1 - f2")
        assert got == SparseVec({E(-1): Fraction(3, 4), F(2): -1})

    def test_collects_repeated_keys(self):
        assert parse_element("e3+e3-2*e3").is_zero()

    def test_trailing_operator_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_element("e0+")
        assert err.value.position == 2

    def test_garbage_rejected_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_element("e1 + g4")
        assert err.value.position >= 3

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_element("   ")

    def test_missing_separator_rejected(self):
        with pytest.raises(ParseError):
            parse_element("e1 e2")


key_st = st.builds(
    lambda kind, idx: E(idx) if kind == "e" else F(idx),
    st.sampled_from("ef"),
    st.integers(-20, 20),
)
element_st = st.dictionaries(
    key_st,
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    max_size=6,
).map(SparseVec)


@given(element_st)
@settings(max_examples=200)
def test_format_parse_roundtrip(v):
    assert parse_element(format_element(v)) == v


class TestFormatElement:
    def test_zero(self):
        assert parse_element(format_element(SparseVec())).is_zero()

    def test_canonical_order_and_signs(self):
        v = SparseVec({F(2): -1, E(-1): Fraction(3, 4)})
        assert format_element(v) == "3/4*e-1-f2"

    def test_unit_coefficients_bare(self):
        assert format_element(SparseVec({E(3): 1, E(5): -1})) == "e3-e5"


class TestOperatorLiterals:
    def test_shift(self):
        op = parse_operator("shift:t=2,w=3/4", witt_z())
        assert op == ShiftOp(2, Fraction(3, 4), witt_z())
        assert format_operator(op) == "shift:t=2,w=3/4"

    def test_shift_respects_algebra(self):
        with pytest.raises(ValueError):
            parse_operator("shift:t=-1,w=1", witt_pos())

    def test_thin(self):
        op = parse_operator("thin:a=[1,0,2];b=[0,5]")
        assert op == ThinHalfDer(alpha=(1, 0, 2), beta=(0, 5))
        assert op.beta_at(3) == 5
        assert format_operator(op) == "thin:a=[1,0,2];b=[0,5]"

    def test_solv(self):
        op = parse_operator("solv:a=[2,0,3]")
        assert op == SolvHalfDer(alpha=(2, 0, 3))

    def test_wab(self):
        op = parse_operator("wab:a={-1:2,0:1};b={0:1}")
        assert op == WabHalfDer(alpha={-1: 2, 0: 1}, beta={0: 1})
        assert format_operator(op) == "wab:a={-1:2,0:1};b={0:1}"

    def test_wab_fraction_values_roundtrip(self):
        op = parse_operator("wab:a={2:-3/4};b={}")
        assert op == WabHalfDer(alpha={2: Fraction(-3, 4)})
        assert parse_operator(format_operator(op)) == op

    def test_fixed_maps(self):
        assert parse_operator("thin-delta") == ThinLocalDelta()
        assert parse_operator("solv-deltabar") == SolvDeltaBar()
        assert parse_operator("thin-nabla") == ThinNabla()
        for text in ("thin-delta", "solv-deltabar", "thin-nabla"):
            assert format_operator(parse_operator(text)) == text

    @pytest.mark.parametrize(
        "text",
        [
            "shift:t",
            "shift:t=x",
            "shift:t=1.5",
            "shift:q=1",
            "thin:a",
            "thin:c=[1]",
            "solv:a=[1];b=[2]",
            "wab:a={x:1}",
            "wab:a={1:x}",
        ],
    )
    def test_malformed_fields_are_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_operator(text, witt_z())

    @pytest.mark.parametrize(
        "text, message",
        [
            ("nonsense", "unknown operator literal: 'nonsense'"),
            ("shift", "unknown operator literal: 'shift'"),
            ("thin-delta:", "unknown operator kind: 'thin-delta'"),
            ("bogus:a=[1]", "unknown operator kind: 'bogus'"),
            ("shift:q=1", "unknown field 'q'; expected one of t, w"),
            ("shift:t=1,t=2", "field 't' given twice"),
            ("shift:t=1, t =1", "field 't' given twice"),
            ("thin:a=[1];a=[2]", "field 'a' given twice"),
            ("solv:a=[1];a=[1]", "field 'a' given twice"),
            ("wab:a={1:1,1:2}", "repeated key 1 in '{1:1,1:2}'"),
            ("wab:b={0:1,+0:1}", "repeated key 0 in '{0:1,+0:1}'"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_operator(text)
        assert str(err.value) == f"{message} (at position 0)"

    def test_the_table_has_a_row_for_every_catalogued_head(self):
        assert set(literals._LITERALS) == {head for record in CATALOGUE for head in record.heads}

    def test_blank_after_separator_is_accepted(self):
        assert parse_operator("wab:a={1:1};") == WabHalfDer(alpha={1: 1})
        assert parse_operator("shift:t=2, w=3/4", witt_z()) == ShiftOp(2, Fraction(3, 4), witt_z())

    def test_inadmissible_shift_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_operator("shift:t=-1,w=1", witt_pos())

    def test_unknown_rejected(self):
        with pytest.raises(ParseError):
            parse_operator("bogus:a=[1]")
        with pytest.raises(ParseError):
            parse_operator("nonsense")


scalar_st = st.fractions(min_value=-9, max_value=9, max_denominator=12)
coeffs_st = st.lists(scalar_st, max_size=4).map(tuple)
int_map_st = st.dictionaries(st.integers(-6, 6), scalar_st, max_size=4)
one_sided = (witt_pos(), witt_one_sided())
operator_st = st.one_of(
    st.builds(ShiftOp, st.integers(-6, 6), scalar_st, st.just(witt_z())),
    st.builds(ShiftOp, st.integers(0, 6), scalar_st, st.sampled_from(one_sided)),
    st.builds(ThinHalfDer, coeffs_st, coeffs_st),
    st.builds(SolvHalfDer, coeffs_st),
    st.builds(WabHalfDer, int_map_st, int_map_st),
    st.sampled_from([ThinLocalDelta(), SolvDeltaBar(), ThinNabla()]),
)


@given(operator_st)
@settings(max_examples=200)
def test_operator_format_parse_roundtrip(op):
    assert parse_operator(format_operator(op), getattr(op, "algebra", None)) == op


class TestScalarsAndRanges:
    def test_scalar_forms(self):
        assert parse_scalar("3/4") == Fraction(3, 4)
        assert parse_scalar("-2") == Fraction(-2)
        with pytest.raises(ParseError):
            parse_scalar("1.5")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_scalar("1/0")
        with pytest.raises(ParseError) as exc:
            parse_element("e1 + 3/0*e2")
        assert exc.value.position == 5

    def test_range(self):
        assert parse_range("-3..3") == (-3, 3)
        assert parse_range("1..8") == (1, 8)
        with pytest.raises(ParseError):
            parse_range("3")
