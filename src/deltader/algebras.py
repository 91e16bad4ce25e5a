"""Catalogue of basis-indexed graded Lie algebras.

Each algebra is presented through an index-domain predicate plus a structure
constant rule, ``bracket_term``, for brackets of basis elements e_i (and f_i
for the semidirect product family). Supported algebras:

* ``wittz``     two-sided Witt algebra, [e_i, e_j] = (j - i) e_{i+j}, i in Z
* ``wittpos``   positive Witt subalgebra, indices i >= 1
* ``witt1``     one-sided Witt subalgebra, indices i >= -1
* ``wab``       W(a, b) = Witt + tensor density module span{f_j}:
                [e_i, e_j] = (i - j) e_{i+j}, [e_i, f_j] = -(j + a + b*i) f_{i+j}
* ``thin``      thin algebra, [e_1, e_n] = e_{n+1} for n >= 2
* ``solv``      solvable algebra with abelian radical, [e_1, e_i] = e_i, i >= 2
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .exactlin import Scalar, SparseVec, as_scalar, int_if_integral

WITT_Z = "wittz"
WITT_POS = "wittpos"
WITT_ONE_SIDED = "witt1"
WAB = "wab"
THIN = "thin"
SOLV_ABELIAN = "solv"

ALGEBRA_NAMES = (WITT_Z, WITT_POS, WITT_ONE_SIDED, WAB, THIN, SOLV_ABELIAN)


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


def E(i: int) -> BasisKey:
    return BasisKey("e", i)


def F(i: int) -> BasisKey:
    return BasisKey("f", i)


@dataclass(frozen=True)
class AlgebraSpec:
    """An algebra from the catalogue, with exact rational parameters for W(a,b)."""

    name: str
    a: Optional[Fraction] = None
    b: Optional[Fraction] = None

    def __post_init__(self):
        if self.name not in ALGEBRA_NAMES:
            raise ValueError(f"unknown algebra {self.name!r}")
        if self.name == WAB:
            if self.a is None or self.b is None:
                raise ValueError("wab requires parameters a and b")
        elif self.a is not None or self.b is not None:
            raise ValueError(f"{self.name} takes no parameters")

    def label(self) -> str:
        if self.name == WAB:
            return f"wab(a={self.a},b={self.b})"
        return self.name


def witt_z() -> AlgebraSpec:
    return AlgebraSpec(WITT_Z)


def witt_pos() -> AlgebraSpec:
    return AlgebraSpec(WITT_POS)


def witt_one_sided() -> AlgebraSpec:
    return AlgebraSpec(WITT_ONE_SIDED)


def wab(a, b) -> AlgebraSpec:
    return AlgebraSpec(WAB, as_scalar(a), as_scalar(b))


def thin() -> AlgebraSpec:
    return AlgebraSpec(THIN)


def solv_abelian() -> AlgebraSpec:
    return AlgebraSpec(SOLV_ABELIAN)


def in_domain(alg: AlgebraSpec, key: BasisKey) -> bool:
    """True iff key is a basis key of the algebra."""
    if key.kind == "f":
        return alg.name == WAB
    if alg.name in (WITT_Z, WAB):
        return True
    if alg.name == WITT_ONE_SIDED:
        return key.index >= -1
    return key.index >= 1  # wittpos, thin, solv


def degree(alg: AlgebraSpec, key: BasisKey) -> int:
    """Degree of a basis key in the algebra's grading, deg [x, y] = deg x + deg y.

    The index on every algebra but ``solv``, where [e_1, e_i] = e_i forces
    degree 0 at e_1 and degree 1 on the abelian radical.
    """
    if alg.name == SOLV_ABELIAN:
        return 0 if key.index == 1 else 1
    return key.index


def _require_in_domain(alg: AlgebraSpec, key: BasisKey) -> None:
    if not in_domain(alg, key):
        raise KeyOutOfDomain(f"{key} is not a basis key of {alg.label()}")


def bracket_term(alg: AlgebraSpec, k1: BasisKey, k2: BasisKey) -> Optional[Tuple[BasisKey, Scalar]]:
    """Structure constant of [k1, k2] as ``(key, coeff)``, or None when it vanishes.

    Every catalogued bracket of two basis keys is a single monomial, so this
    is the whole definition of each algebra; ``bracket`` and ``bracket_vec``
    wrap it. Coefficients are ints whenever they are integral. The catalogued
    algebras are closed under bracket, so results never leave the domain;
    out-of-domain inputs raise KeyOutOfDomain.
    """
    _require_in_domain(alg, k1)
    _require_in_domain(alg, k2)
    i, j = k1.index, k2.index
    if alg.name in (WITT_Z, WITT_POS, WITT_ONE_SIDED):
        return (E(i + j), j - i) if i != j else None
    if alg.name == WAB:
        if k1.kind == "e" and k2.kind == "e":
            return (E(i + j), i - j) if i != j else None
        if k1.kind == "e" and k2.kind == "f":
            coeff = -(j + alg.a + alg.b * i)
        elif k1.kind == "f" and k2.kind == "e":
            coeff = i + alg.a + alg.b * j
        else:
            return None  # [f, f] = 0
        return (F(i + j), int_if_integral(coeff)) if coeff else None
    if alg.name == THIN:
        if i == 1 and j >= 2:
            return E(j + 1), 1
        if j == 1 and i >= 2:
            return E(i + 1), -1
        return None
    # solvable with abelian radical
    if i == 1 and j >= 2:
        return E(j), 1
    if j == 1 and i >= 2:
        return E(i), -1
    return None


def bracket(alg: AlgebraSpec, k1: BasisKey, k2: BasisKey) -> SparseVec:
    """Exact bracket [k1, k2] of two basis keys as a sparse vector."""
    term = bracket_term(alg, k1, k2)
    if term is None:
        return SparseVec()
    key, coeff = term
    return SparseVec({key: coeff})


def bracket_vec(alg: AlgebraSpec, v: SparseVec, w: SparseVec) -> SparseVec:
    """Bilinear extension of ``bracket`` to sparse vectors."""
    out: dict = {}
    for k1, c1 in v.items():
        for k2, c2 in w.items():
            term = bracket_term(alg, k1, k2)
            if term is not None:
                key, coeff = term
                out[key] = out.get(key, 0) + coeff * c1 * c2
    return SparseVec(out)
