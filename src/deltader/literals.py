"""Text forms for elements, operators, scalars and index ranges.

Element grammar:  term (+- term)*  with  term = [coef*]e<i> | [coef*]f<i>
and coef a rational written ``p/q`` or an integer. Example: ``3/4*e-1 - f2``.

Operator literals: ``shift:t=2,w=3/4``, ``thin:a=[1,0,2];b=[0,5]`` (the beta
list starts at index 2), ``solv:a=[...]``, ``wab:a={-1:2,0:1};b={0:1}``,
``thin-delta``, ``solv-deltabar``, ``thin-nabla``.
"""

from __future__ import annotations

import re
from typing import Tuple

from .algebras import CATALOGUE, AlgebraSpec, BasisKey
from .exactlin import Scalar, SparseVec, as_scalar
from .operators import (
    ShiftOp,
    SolvDeltaBar,
    SolvHalfDer,
    ThinHalfDer,
    ThinLocalDelta,
    ThinNabla,
    WabHalfDer,
)


class ParseError(ValueError):
    """Malformed literal; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?")
_INTEGER = re.compile(r"[+-]?\d+")
_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:(?P<coef>\d+(?:/\d+)?)\s*\*?\s*)?"
    r"(?P<kind>[ef])(?P<index>-?\d+)"
)


def _rational(text: str, position: int) -> Scalar:
    """The canonical scalar of a ``p/q`` or integer literal; a zero
    denominator is a ParseError."""
    try:
        return as_scalar(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}", position) from None


def parse_scalar(text: str) -> Scalar:
    text = text.strip()
    if not _RATIONAL.fullmatch(text):
        raise ParseError(f"not a rational: {text!r}", 0)
    return _rational(text, 0)


def parse_range(text: str) -> Tuple[int, int]:
    m = re.fullmatch(r"\s*(-?\d+)\.\.(-?\d+)\s*", text)
    if not m:
        raise ParseError(f"not an index range lo..hi: {text!r}", 0)
    return int(m.group(1)), int(m.group(2))


def parse_element(text: str) -> SparseVec:
    """Parse an element literal into a sparse vector."""
    pos = 0
    entries = {}
    first = True
    n = len(text)
    while pos < n and text[pos].isspace():
        pos += 1
    if pos == n:
        raise ParseError("empty element", pos)
    while pos < n:
        m = _TERM.match(text, pos)
        if not m:
            raise ParseError("expected a term like 3/4*e-1", pos)
        sign = m.group("sign")
        if first and sign == "+":
            raise ParseError("leading + not allowed", pos)
        if not first and sign is None:
            raise ParseError("missing + or - between terms", pos)
        coef = _rational(m.group("coef"), m.start("coef")) if m.group("coef") else 1
        if sign == "-":
            coef = -coef
        key = BasisKey(m.group("kind"), int(m.group("index")))
        entries[key] = entries.get(key, 0) + coef
        pos = m.end()
        first = False
        while pos < n and text[pos].isspace():
            pos += 1
    return SparseVec(entries)


def format_terms(terms) -> str:
    """The canonical text of the sum of ``(label, coef)`` terms, each coef a
    nonzero canonical scalar, in the order given; ``0*e0`` when there are
    none."""
    text = "".join(
        [
            ("+" if coef > 0 else "-") + (label if coef in (1, -1) else f"{abs(coef)}*{label}")
            for label, coef in terms
        ]
    )
    return text.removeprefix("+") or "0*e0"


def format_element(v: SparseVec) -> str:
    """Canonical form; round-trips through parse_element."""
    return format_terms((str(key), coef) for key, coef in v.items())


def _items(text: str, brackets: str, form: str) -> list:
    """The comma-separated items between ``brackets``; none when blank."""
    text = text.strip()
    if not (text.startswith(brackets[0]) and text.endswith(brackets[1])):
        raise ParseError(f"expected {form}: {text!r}", 0)
    body = text[1:-1].strip()
    return body.split(",") if body else []


def _parse_list(text: str) -> tuple:
    return tuple(parse_scalar(p) for p in _items(text, "[]", "[..] list"))


def _parse_int(text: str) -> int:
    text = text.strip()
    if not _INTEGER.fullmatch(text):
        raise ParseError(f"not an integer: {text!r}", 0)
    return int(text)


def _parse_int_map(text: str) -> dict:
    out = {}
    for part in _items(text, "{}", "{t:v,..} map"):
        if ":" not in part:
            raise ParseError(f"expected t:v entry: {part!r}", 0)
        t, v = part.split(":", 1)
        t = _parse_int(t)
        if t in out:
            raise ParseError(f"repeated key {t} in {text.strip()!r}", 0)
        out[t] = parse_scalar(v)
    return out


# Operator head -> (class, field separator, fields). A field is (name in the
# literal, constructor argument, parser, formatter, default text). A fixed map
# has no separator and no fields, and is written as the bare head.
_LIST = (_parse_list, lambda values: f"[{','.join(map(str, values))}]", "[]")
_MAP = (
    _parse_int_map, lambda m: "{" + ",".join(f"{t}:{v}" for t, v in sorted(m.items())) + "}", "{}"
)
_LITERALS = {
    "shift": (
        ShiftOp, ",", (("t", "t", _parse_int, str, "0"), ("w", "weight", parse_scalar, str, "1"))
    ),
    "thin": (ThinHalfDer, ";", (("a", "alpha", *_LIST), ("b", "beta", *_LIST))),
    "solv": (SolvHalfDer, ";", (("a", "alpha", *_LIST),)),
    "wab": (WabHalfDer, ";", (("a", "alpha", *_MAP), ("b", "beta", *_MAP))),
    "thin-delta": (ThinLocalDelta, None, ()),
    "solv-deltabar": (SolvDeltaBar, None, ()),
    "thin-nabla": (ThinNabla, None, ()),
}
_HEAD_OF = {cls: head for head, (cls, _, _) in _LITERALS.items()}


def _parse_fields(body: str, sep: str, fields) -> dict:
    """Constructor arguments from ``name=value`` parts separated by ``sep``:
    each name at most once and one of ``fields``, an absent one its default."""
    names = [name for name, *_ in fields]
    given = {}
    for part in body.split(sep):
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"expected name=value field: {part!r}", 0)
        name, value = part.split("=", 1)
        name = name.strip()
        if name not in names:
            raise ParseError(f"unknown field {name!r}; expected one of {', '.join(names)}", 0)
        if name in given:
            raise ParseError(f"field {name!r} given twice", 0)
        given[name] = value
    return {arg: parse(given.get(name, default)) for name, arg, parse, _, default in fields}


def parse_operator(text: str, alg: AlgebraSpec = None):
    """Parse an operator literal.

    With an algebra, a literal defined only on other algebras (by their
    ``record.heads``) is a ParseError, and shift operators are built on that
    algebra.
    """
    text = text.strip()
    head, colon, body = text.partition(":")
    allowed = [record.name for record in CATALOGUE if head in record.heads]
    if alg is not None and allowed and head not in alg.record.heads:
        raise ParseError(
            f"{head} operators are defined on {', '.join(allowed)}, not on {alg.label()}", 0
        )
    row = _LITERALS.get(head)
    if not colon and (row is None or row[2]):
        raise ParseError(f"unknown operator literal: {text!r}", 0)
    if colon and (row is None or not row[2]):
        raise ParseError(f"unknown operator kind: {head!r}", 0)
    cls, sep, fields = row
    args = _parse_fields(body, sep, fields)
    if cls is ShiftOp and alg is not None:
        args["algebra"] = alg
    try:
        return cls(**args)
    except ValueError as exc:
        raise ParseError(str(exc), 0) from None


def format_operator(op) -> str:
    """Canonical operator literal: the head, then each field formatted."""
    head = _HEAD_OF.get(type(op))
    if head is None:
        raise TypeError(f"no literal form for {type(op).__name__}")
    _, sep, fields = _LITERALS[head]
    if not fields:
        return head
    parts = (f"{name}={fmt(getattr(op, arg))}" for name, arg, _, fmt, _ in fields)
    return f"{head}:{sep.join(parts)}"
