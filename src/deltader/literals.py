"""Text forms for elements, operators, scalars and index ranges.

Element grammar:  term (+- term)*  with  term = [coef*]e<i> | [coef*]f<i>
and coef a rational written ``p/q`` or an integer. Example: ``3/4*e-1 - f2``.

Operator literals: ``shift:t=2,w=3/4``, ``thin:a=[1,0,2];b=[0,5]`` (the beta
list starts at index 2), ``solv:a=[...]``, ``wab:a={-1:2,0:1};b={0:1}``,
``thin-delta``, ``solv-deltabar``, ``thin-nabla``.

One scanner reads every literal. Spaces may stand between any two tokens; a
separator may follow every item of a field list, ``[..]`` list or ``{..}`` map,
the last included, and an empty item is an error. ``ParseError.position`` is
the offset of the token rejected (of the bad term, in an element), so
``0 <= position <= len(text)``.
"""

from __future__ import annotations

import math
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


_TOKEN = re.compile(r"\d+(?:/\d+)?|[ef]-?\d+|[a-z]+(?:-[a-z]+)*|\.\.|\S")


class _Scan:
    """Reads the tokens of ``text`` in order (numbers ``p/q``, keys ``e-1``,
    names such as ``thin-delta``, ``..``, single other characters): ``token``
    is the next one, ``''`` at the end, and ``at`` its offset."""

    def __init__(self, text: str):
        self.text = text
        self.rest = ((m.group(), m.start()) for m in _TOKEN.finditer(text))
        self.token, self.at = next(self.rest, ("", len(text)))

    def take(self, *options: str):
        """Consume and return the next token if it is in ``options`` (any if none); else None."""
        token = self.token
        if options and token not in options:
            return None
        self.token, self.at = next(self.rest, ("", len(self.text)))
        return token

    def expect(self, token: str) -> None:
        if self.take(token) is None:
            raise ParseError(f"expected {token or 'the end'!r}, got {self.token!r}", self.at)

    def scalar(self, integer: bool = False) -> Scalar:
        """A signed rational ``p/q`` or integer (only an integer if ``integer``)."""
        sign = self.take("+", "-") or ""
        at, number = self.at, self.take()
        if not (number.isdecimal() if integer else number[:1].isdecimal()):
            raise ParseError(f"not {'an integer' if integer else 'a rational'}: {number!r}", at)
        try:
            return as_scalar(sign + number)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {sign + number!r}", at) from None
        except ValueError:  # over the interpreter's limit on int digits
            raise ParseError(f"number too long: {len(number)} characters", at) from None

    def integer(self) -> int:
        return self.scalar(integer=True)

    def items(self, open_: str, sep: str, close: str, read):
        """``read``'s items from ``open_`` to ``close`` (``''``: the end), each
        followed by ``sep``, which is optional after the last."""
        self.expect(open_)
        while self.take(close) is None:
            if self.token == sep:
                raise ParseError("empty item", self.at)
            yield read(self)
            if self.take(sep) is None:
                self.expect(close)
                return

    def scalars(self) -> tuple:
        return tuple(self.items("[", ",", "]", _Scan.scalar))

    def entry(self) -> tuple:
        at, t = self.at, self.integer()
        self.expect(":")
        return at, t, self.scalar()

    def int_map(self) -> dict:
        start, out = self.at, {}
        for at, t, v in list(self.items("{", ",", "}", _Scan.entry)):
            if t in out:
                raise ParseError(f"repeated key {t} in {self.text[start:self.at].rstrip()!r}", at)
            out[t] = v
        return out

    def field(self, read: dict) -> tuple:
        at, name = self.at, self.take()
        if name not in read:
            raise ParseError(f"unknown field {name!r}; expected one of {', '.join(read)}", at)
        self.expect("=")
        return at, name, read[name](self)

    def fields(self, sep: str, fields) -> dict:
        """Constructor arguments from ``:name=value`` items: each name at most
        once and one of ``fields``, an absent one its default."""
        read = {name: reader for name, _, reader, _, _ in fields}
        given = {}
        for at, name, value in self.items(":", sep, "", lambda s: s.field(read)):
            if name in given:
                raise ParseError(f"field {name!r} given twice", at)
            given[name] = value
        return {arg: given.get(name, default) for name, arg, _, _, default in fields}


def parse_scalar(text: str) -> Scalar:
    s = _Scan(text)
    value = s.scalar()
    s.expect("")
    return value


def parse_range(text: str) -> Tuple[int, int]:
    s = _Scan(text)
    lo = s.integer()
    s.expect("..")
    hi = s.integer()
    s.expect("")
    return lo, hi


def parse_element(text: str) -> SparseVec:
    """Parse an element literal into a sparse vector."""
    s = _Scan(text)
    entries = {}
    while s.token or not entries:
        at, coef = s.at, 1
        sign = s.take("+", "-")
        if s.token[:1].isdecimal():
            coef = s.scalar()
            s.take("*")
        key = s.take()
        if not (key[:1] in ("e", "f") and key[-1:].isdecimal()):
            raise ParseError("expected a term like 3/4*e-1", at)
        if not entries and sign == "+":
            raise ParseError("leading + not allowed", at)
        if entries and sign is None:
            raise ParseError("missing + or - between terms", at)
        key = BasisKey(key[0], int(key[1:]))
        entries[key] = entries.get(key, 0) + (-coef if sign == "-" else coef)
    return SparseVec(entries)


class ResultTooLong(ValueError):
    """An exact value with more digits than the interpreter turns into text."""


def _digits(n: int) -> int:
    """The number of decimal digits of the int ``n`` != 0, without ``str``."""
    n = abs(n)
    d = int(math.log10(n)) + 1  # the float logarithm is off by at most one digit
    return d + 1 if n >= 10**d else d - 1 if n < 10 ** (d - 1) else d


def format_scalar(value: Scalar) -> str:
    """``str`` of the exact scalar ``value``; ResultTooLong, naming its
    size, when it has more digits than the interpreter converts."""
    try:
        return str(value)
    except ValueError:  # over the interpreter's limit on int digits
        digits = max(_digits(value.numerator), _digits(value.denominator))
        raise ResultTooLong(f"result too long to print: a coefficient of {digits} digits") from None


def format_terms(terms) -> str:
    """The canonical text of the sum of the sequence of ``(label, coef)``
    terms, each coef a nonzero canonical scalar, in the order given;
    ``0*e0`` when there are none."""
    try:
        text = "".join(
            [
                ("+" if coef > 0 else "-") + (label if coef in (1, -1) else f"{abs(coef)}*{label}")
                for label, coef in terms
            ]
        )
    except ValueError:  # a coefficient over the interpreter's limit on int digits
        for _, coef in terms:
            format_scalar(coef)
        raise
    return text.removeprefix("+") or "0*e0"


def format_element(v: SparseVec) -> str:
    """Canonical form; round-trips through parse_element."""
    return format_terms([(str(key), coef) for key, coef in v.items()])


# Operator head -> (class, field separator, fields). A field is (name in the
# literal, constructor argument, reader, formatter, default value). A fixed
# map has no separator and no fields, and is written as the bare head.
_LIST = (_Scan.scalars, lambda values: f"[{','.join(map(str, values))}]", ())
_MAP = (_Scan.int_map, lambda m: "{" + ",".join(f"{t}:{v}" for t, v in sorted(m.items())) + "}", {})
_LITERALS = {
    "shift": (
        ShiftOp, ",", (("t", "t", _Scan.integer, str, 0), ("w", "weight", _Scan.scalar, str, 1))
    ),
    "thin": (ThinHalfDer, ";", (("a", "alpha", *_LIST), ("b", "beta", *_LIST))),
    "solv": (SolvHalfDer, ";", (("a", "alpha", *_LIST),)),
    "wab": (WabHalfDer, ";", (("a", "alpha", *_MAP), ("b", "beta", *_MAP))),
    "thin-delta": (ThinLocalDelta, None, ()),
    "solv-deltabar": (SolvDeltaBar, None, ()),
    "thin-nabla": (ThinNabla, None, ()),
}
_HEAD_OF = {cls: head for head, (cls, _, _) in _LITERALS.items()}


def parse_operator(text: str, alg: AlgebraSpec = None):
    """Parse an operator literal.

    With an algebra, a literal defined only on other algebras (by their
    ``record.heads``) is a ParseError, and shift operators are built on that
    algebra.
    """
    s = _Scan(text)
    at, head = s.at, s.take()
    allowed = [record.name for record in CATALOGUE if head in record.heads]
    if alg is not None and allowed and head not in alg.record.heads:
        raise ParseError(
            f"{head} operators are defined on {', '.join(allowed)}, not on {alg.label()}", at
        )
    row = _LITERALS.get(head)
    if s.token != ":" and (row is None or row[2] or s.token):
        raise ParseError(f"unknown operator literal: {text.strip()!r}", at)
    if s.token == ":" and (row is None or not row[2]):
        raise ParseError(f"unknown operator kind: {head!r}", at)
    cls, sep, fields = row
    args = s.fields(sep, fields) if fields else {}
    if cls is ShiftOp and alg is not None:
        args["algebra"] = alg
    try:
        return cls(**args)
    except ValueError as exc:
        raise ParseError(str(exc), at) from None


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
