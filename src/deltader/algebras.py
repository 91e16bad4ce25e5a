"""Catalogue of basis-indexed graded Lie algebras.

Each algebra is one ``AlgebraRecord``: its index domain, its structure
constant rule for brackets of basis elements e_i (and f_i for the semidirect
product family), its grading, the operator literals defined on it and the
verification suite's frozen box and window. Supported algebras:

* ``wittz``     two-sided Witt algebra, [e_i, e_j] = (j - i) e_{i+j}, i in Z
* ``wittpos``   positive Witt subalgebra, indices i >= 1
* ``witt1``     one-sided Witt subalgebra, indices i >= -1
* ``wab``       W(a, b) = Witt + tensor density module span{f_j}:
                [e_i, e_j] = (i - j) e_{i+j}, [e_i, f_j] = -(j + a + b*i) f_{i+j}
* ``thin``      thin algebra, [e_1, e_n] = e_{n+1} for n >= 2
* ``solv``      solvable algebra with abelian radical, [e_1, e_i] = e_i, i >= 2
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .exactlin import Scalar, SparseVec, as_scalar


class KeyOutOfDomain(Exception):
    """A basis key falls outside the algebra's index domain."""


class BasisKey(NamedTuple):
    """Tagged basis index: kind 'e' or 'f', integer index.

    Ordering is the canonical one used everywhere: all e-keys before all
    f-keys, then by index. As a tuple, its hash, equality and ordering run
    in C; it equals the plain tuple ``(kind, index)``.
    """

    kind: str
    index: int

    def __repr__(self) -> str:
        return f"{self.kind}{self.index}"


_new_key = tuple.__new__  # skips the namedtuple's Python-level __new__


def E(i: int) -> BasisKey:
    return _new_key(BasisKey, ("e", i))


def F(i: int) -> BasisKey:
    return _new_key(BasisKey, ("f", i))


Term = Optional[Tuple[BasisKey, Scalar]]
Range = Tuple[int, int]


def _witt_rule(alg: "AlgebraSpec", k1: BasisKey, k2: BasisKey) -> Term:
    i, j = k1.index, k2.index
    return (E(i + j), j - i) if i != j else None


def _wab_rule(alg: "AlgebraSpec", k1: BasisKey, k2: BasisKey) -> Term:
    i, j, scale = k1.index, k2.index, alg.scale
    if k1.kind == "e" and k2.kind == "e":
        return (E(i + j), (i - j) * scale) if i != j else None
    if k1.kind == "e" and k2.kind == "f":
        coeff = -(j * scale + alg.scaled_a + alg.scaled_b * i)
    elif k1.kind == "f" and k2.kind == "e":
        coeff = i * scale + alg.scaled_a + alg.scaled_b * j
    else:
        return None  # [f, f] = 0
    return (F(i + j), coeff) if coeff else None


def _thin_rule(alg: "AlgebraSpec", k1: BasisKey, k2: BasisKey) -> Term:
    i, j = k1.index, k2.index
    if i == 1 and j >= 2:
        return E(j + 1), 1
    if j == 1 and i >= 2:
        return E(i + 1), -1
    return None


def _solv_rule(alg: "AlgebraSpec", k1: BasisKey, k2: BasisKey) -> Term:
    i, j = k1.index, k2.index
    if i == 1 and j >= 2:
        return E(j), 1
    if j == 1 and i >= 2:
        return E(i), -1
    return None


# [e_1, e_i] = e_i forces degree 0 at e_1 and degree 1 on the abelian radical.
def _solv_degree(key: BasisKey) -> int:
    return 0 if key.index == 1 else 1


class AlgebraRecord(NamedTuple):
    """Everything the engine knows about one catalogued algebra.

    Basis keys have a kind in ``lines`` (``e``, or ``e`` and ``f``) and an
    index of at least ``floor`` (None: any). ``rule(alg, k1, k2)`` is the
    structure constant of [k1, k2] as ``(key, c)`` or None, with ``c`` the
    int constant times ``alg.scale``; it reads ``alg.scale``,
    ``alg.scaled_a`` and ``alg.scaled_b`` on a ``parametric`` algebra and
    assumes both keys lie in the domain. ``bracket_term`` divides it by the
    scale; ``structure_table`` reads it as it is. ``degree(key)`` is the
    grading. A shift maps a one-sided domain (``floor`` not None) into itself
    exactly when it is at least 0. ``heads`` are the operator-literal
    heads defined on the algebra; the first names its closed-form
    half-derivation family. The verification suite's constants are
    criterion 1's ``axiom_box`` index range and the (input, output) index
    ranges of the acceptance ``window``, which criterion 3 certifies at the
    one frozen ``acceptance.INTERIOR_MARGIN``.
    """

    name: str
    floor: Optional[int]
    rule: Callable[["AlgebraSpec", BasisKey, BasisKey], Term]
    heads: Tuple[str, ...]
    axiom_box: Range
    window: Tuple[Range, Range]
    lines: Tuple[str, ...] = ("e",)
    parametric: bool = False
    degree: Callable[[BasisKey], int] = attrgetter("index")


CATALOGUE = (
    AlgebraRecord(
        "wittz", floor=None, rule=_witt_rule, heads=("shift",),
        axiom_box=(-8, 8), window=((-4, 4), (-12, 12)),
    ),
    AlgebraRecord(
        "wittpos", floor=1, rule=_witt_rule, heads=("shift",),
        axiom_box=(1, 16), window=((1, 9), (1, 17)),
    ),
    AlgebraRecord(
        "witt1", floor=-1, rule=_witt_rule, heads=("shift",),
        axiom_box=(-1, 15), window=((-1, 7), (-1, 15)),
    ),
    AlgebraRecord(
        "wab", floor=None, lines=("e", "f"), parametric=True, rule=_wab_rule, heads=("wab",),
        axiom_box=(-8, 8), window=((-3, 3), (-6, 6)),
    ),
    AlgebraRecord(
        "thin", floor=1, rule=_thin_rule, heads=("thin", "thin-delta", "thin-nabla"),
        axiom_box=(1, 16), window=((1, 10), (1, 14)),
    ),
    AlgebraRecord(
        "solv", floor=1, rule=_solv_rule, degree=_solv_degree, heads=("solv", "solv-deltabar"),
        axiom_box=(1, 16), window=((1, 8), (1, 8)),
    ),
)

ALGEBRA_NAMES = tuple(record.name for record in CATALOGUE)

_RECORDS = {record.name: record for record in CATALOGUE}


@dataclass(frozen=True)
class AlgebraSpec:
    """An algebra from the catalogue, with exact rational parameters for W(a,b).

    ``a`` and ``b`` may be given in any form ``as_scalar`` accepts and are
    stored in canonical form, so ``wab("1/2", -1) == wab(Fraction(1, 2), -1)``;
    a float raises TypeError here.

    ``scale`` is the least positive int that makes every structure constant
    an int: ``lcm(den a, den b)`` on W(a, b), 1 on every other algebra. The
    rule reads ``scaled_a = a*scale`` and ``scaled_b = b*scale``, computed
    here once.
    """

    name: str
    a: Optional[Scalar] = None
    b: Optional[Scalar] = None
    # Resolved once, from the name and the parameters.
    record: AlgebraRecord = field(init=False, repr=False, compare=False)
    scale: int = field(init=False, repr=False, compare=False)
    scaled_a: Optional[int] = field(init=False, repr=False, compare=False)
    scaled_b: Optional[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        record = _RECORDS.get(self.name)
        if record is None:
            raise ValueError(f"unknown algebra {self.name!r}")
        scale, scaled_a, scaled_b = 1, None, None
        if record.parametric:
            if self.a is None or self.b is None:
                raise ValueError(f"{self.name} requires parameters a and b")
            a, b = as_scalar(self.a), as_scalar(self.b)
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)
            scale = lcm(a.denominator, b.denominator)
            scaled_a, scaled_b = as_scalar(a * scale), as_scalar(b * scale)
        elif self.a is not None or self.b is not None:
            raise ValueError(f"{self.name} takes no parameters")
        object.__setattr__(self, "record", record)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "scaled_a", scaled_a)
        object.__setattr__(self, "scaled_b", scaled_b)

    def label(self) -> str:
        if self.record.parametric:
            return f"{self.name}(a={self.a},b={self.b})"
        return self.name


def witt_z() -> AlgebraSpec:
    return AlgebraSpec("wittz")


def witt_pos() -> AlgebraSpec:
    return AlgebraSpec("wittpos")


def witt_one_sided() -> AlgebraSpec:
    return AlgebraSpec("witt1")


def wab(a, b) -> AlgebraSpec:
    return AlgebraSpec("wab", a, b)


def thin() -> AlgebraSpec:
    return AlgebraSpec("thin")


def solv_abelian() -> AlgebraSpec:
    return AlgebraSpec("solv")


def in_domain(alg: AlgebraSpec, key: BasisKey) -> bool:
    """True iff key is a basis key of the algebra."""
    record = alg.record
    return key.kind in record.lines and (record.floor is None or key.index >= record.floor)


def require_in_domain(alg: AlgebraSpec, keys: Iterable[BasisKey]) -> None:
    """Raise KeyOutOfDomain, naming the first of ``keys`` that is no basis key of ``alg``."""
    for key in keys:
        if not in_domain(alg, key):
            raise KeyOutOfDomain(f"{key} is not a basis key of {alg.label()}")


def bracket_term(alg: AlgebraSpec, k1: BasisKey, k2: BasisKey) -> Term:
    """Structure constant of [k1, k2] as ``(key, coeff)``, or None when it vanishes.

    Every catalogued bracket of two basis keys is a single monomial, so the
    record's rule is the whole definition of each algebra: this is the rule
    divided by ``alg.scale``. ``bracket`` wraps it, and the delta-derivation
    check reads it once per image entry.
    Coefficients are ints whenever they are integral. The catalogued
    algebras are closed under bracket, so results never leave the domain;
    out-of-domain inputs raise KeyOutOfDomain.
    """
    require_in_domain(alg, (k1, k2))
    term = alg.record.rule(alg, k1, k2)
    if term is None or alg.scale == 1:
        return term
    key, coeff = term
    return key, as_scalar(Fraction(coeff, alg.scale))


def structure_table(
    alg: AlgebraSpec, left: Sequence[BasisKey], right: Sequence[BasisKey]
) -> List[List[Term]]:
    """The rule on every pair of ``left`` x ``right``, by position.

    ``table[i][j]`` is ``bracket_term(alg, left[i], right[j])`` times
    ``alg.scale``: ``(key, c)`` with ``c`` an int, or None. The domain is
    checked once for both key sets, with ``bracket_term``'s error.
    """
    require_in_domain(alg, (*left, *right))
    rule = alg.record.rule
    return [[rule(alg, k1, k2) for k2 in right] for k1 in left]


def bracket(alg: AlgebraSpec, k1: BasisKey, k2: BasisKey) -> SparseVec:
    """Exact bracket [k1, k2] of two basis keys as a sparse vector."""
    term = bracket_term(alg, k1, k2)
    if term is None:
        return SparseVec()
    key, coeff = term
    return SparseVec({key: coeff})

