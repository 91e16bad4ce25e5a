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


def format_element(v: SparseVec) -> str:
    """Canonical form; round-trips through parse_element."""
    if v.is_zero():
        return "0*e0"
    parts = []
    for key, coef in v.items():
        mag = abs(coef)
        body = f"{key.kind}{key.index}" if mag == 1 else f"{mag}*{key.kind}{key.index}"
        if not parts:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(("+" if coef > 0 else "-") + body)
    return "".join(parts)


def _parse_list(text: str) -> tuple:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"expected [..] list: {text!r}", 0)
    body = text[1:-1].strip()
    if not body:
        return ()
    return tuple(parse_scalar(p) for p in body.split(","))


def _parse_int(text: str) -> int:
    text = text.strip()
    if not _INTEGER.fullmatch(text):
        raise ParseError(f"not an integer: {text!r}", 0)
    return int(text)


def _parse_int_map(text: str) -> dict:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"expected {{t:v,..}} map: {text!r}", 0)
    body = text[1:-1].strip()
    out = {}
    if not body:
        return out
    for part in body.split(","):
        if ":" not in part:
            raise ParseError(f"expected t:v entry: {part!r}", 0)
        t, v = part.split(":", 1)
        out[_parse_int(t)] = parse_scalar(v)
    return out


def _parse_fields(body: str, sep: str, names: Tuple[str, ...]) -> dict:
    """``name=value`` fields separated by ``sep``; only the given names."""
    fields = {}
    for part in body.split(sep):
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"expected name=value field: {part!r}", 0)
        name, value = part.split("=", 1)
        name = name.strip()
        if name not in names:
            raise ParseError(f"unknown field {name!r}; expected one of {', '.join(names)}", 0)
        fields[name] = value
    return fields


def parse_operator(text: str, alg: AlgebraSpec = None):
    """Parse an operator literal.

    With an algebra, a literal defined only on other algebras (by their
    ``record.heads``) is a ParseError, and shift operators are built on that
    algebra.
    """
    text = text.strip()
    head = text.split(":", 1)[0]
    allowed = [record.name for record in CATALOGUE if head in record.heads]
    if alg is not None and allowed and head not in alg.record.heads:
        raise ParseError(
            f"{head} operators are defined on {', '.join(allowed)}, not on {alg.label()}", 0
        )
    if text == "thin-delta":
        return ThinLocalDelta()
    if text == "solv-deltabar":
        return SolvDeltaBar()
    if text == "thin-nabla":
        return ThinNabla()
    if ":" not in text:
        raise ParseError(f"unknown operator literal: {text!r}", 0)
    head, body = text.split(":", 1)
    if head == "shift":
        fields = _parse_fields(body, ",", ("t", "w"))
        t = _parse_int(fields.get("t", "0"))
        w = parse_scalar(fields.get("w", "1"))
        if alg is not None:
            try:
                return ShiftOp(t, w, alg)
            except ValueError as exc:
                raise ParseError(str(exc), 0) from None
        return ShiftOp(t, w)
    if head == "thin":
        sections = _parse_fields(body, ";", ("a", "b"))
        return ThinHalfDer(
            alpha=_parse_list(sections.get("a", "[]")),
            beta=_parse_list(sections.get("b", "[]")),
        )
    if head == "solv":
        sections = _parse_fields(body, ";", ("a",))
        return SolvHalfDer(alpha=_parse_list(sections.get("a", "[]")))
    if head == "wab":
        sections = _parse_fields(body, ";", ("a", "b"))
        return WabHalfDer(
            alpha=_parse_int_map(sections.get("a", "{}")),
            beta=_parse_int_map(sections.get("b", "{}")),
        )
    raise ParseError(f"unknown operator kind: {head!r}", 0)


def format_operator(op) -> str:
    """Canonical operator literal: kind tag plus sorted coefficient lists."""
    if isinstance(op, ThinLocalDelta):
        return "thin-delta"
    if isinstance(op, SolvDeltaBar):
        return "solv-deltabar"
    if isinstance(op, ThinNabla):
        return "thin-nabla"
    if isinstance(op, ShiftOp):
        return f"shift:t={op.t},w={op.weight}"
    if isinstance(op, ThinHalfDer):
        a = ",".join(str(x) for x in op.alpha)
        b = ",".join(str(x) for x in op.beta)
        return f"thin:a=[{a}];b=[{b}]"
    if isinstance(op, SolvHalfDer):
        a = ",".join(str(x) for x in op.alpha)
        return f"solv:a=[{a}]"
    if isinstance(op, WabHalfDer):
        a = ",".join(f"{t}:{v}" for t, v in sorted(op.alpha.items()))
        b = ",".join(f"{t}:{v}" for t, v in sorted(op.beta.items()))
        return f"wab:a={{{a}}};b={{{b}}}"
    raise TypeError(f"no literal form for {type(op).__name__}")
