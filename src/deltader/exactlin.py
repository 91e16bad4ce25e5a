"""Exact rational sparse linear algebra.

Vectors are stored sparsely with ``fractions.Fraction`` entries, matrices
with exact rational entries (``int`` or ``Fraction``), so every result below
is exact: reduced row echelon form, nullspace bases, feasibility of
``A x = b`` with Farkas-style infeasibility certificates, and span
membership. No floating point is used anywhere.

Elimination is fraction-free: each row enters as a primitive integer row and
is reduced by integer row operations by one kernel, which serves echelon
forms, nullspaces, span membership and feasibility alike. ``Fraction``
appears only when a result is read off by back-substitution: once per pivot
row of a reduced row echelon form, once per unknown of a solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Optional

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def as_scalar(value) -> Fraction:
    """Coerce ints, strings like ``3/4`` and Fractions to an exact Scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def int_if_integral(value):
    """An exact scalar as an int when its denominator is 1, else unchanged."""
    return value.numerator if value.denominator == 1 else value


class SparseVec:
    """Finitely supported map key -> nonzero Scalar.

    Keys may be any orderable hashable values (basis keys, column indices).
    Zero entries are never stored; equality is entrywise.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[Mapping] = None):
        cleaned = {}
        if entries:
            for k, v in entries.items():
                v = as_scalar(v)
                if v:
                    cleaned[k] = v
        self._entries = cleaned

    @property
    def entries(self) -> dict:
        return dict(self._entries)

    def get(self, key) -> Fraction:
        return self._entries.get(key, ZERO)

    def __getitem__(self, key) -> Fraction:
        return self._entries.get(key, ZERO)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def support(self) -> list:
        return sorted(self._entries)

    def items(self) -> list:
        return sorted(self._entries.items())

    def is_zero(self) -> bool:
        return not self._entries

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVec):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __add__(self, other: "SparseVec") -> "SparseVec":
        out = dict(self._entries)
        for k, v in other._entries.items():
            nv = out.get(k, ZERO) + v
            if nv:
                out[k] = nv
            else:
                out.pop(k, None)
        return SparseVec(out)

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        return self + (-other)

    def __neg__(self) -> "SparseVec":
        return SparseVec({k: -v for k, v in self._entries.items()})

    def scaled(self, factor) -> "SparseVec":
        factor = as_scalar(factor)
        if not factor:
            return SparseVec()
        return SparseVec({k: factor * v for k, v in self._entries.items()})

    def __rmul__(self, factor) -> "SparseVec":
        return self.scaled(factor)

    def __mul__(self, factor) -> "SparseVec":
        return self.scaled(factor)

    def dot(self, other: "SparseVec") -> Fraction:
        if len(other._entries) < len(self._entries):
            self, other = other, self
        total = ZERO
        for k, v in self._entries.items():
            w = other._entries.get(k)
            if w is not None:
                total += v * w
        return total

    def __repr__(self) -> str:
        if not self._entries:
            return "SparseVec(0)"
        body = ", ".join(f"{k}: {v}" for k, v in self.items())
        return f"SparseVec({{{body}}})"


def _is_clean(values) -> bool:
    """True iff every value is a nonzero int or Fraction."""
    return set(map(type, values)) <= {int, Fraction} and all(values)


def _exact_row(row: Mapping) -> dict:
    """The row as a dict of nonzero exact scalars: itself when it already is
    one, else a cleaned copy."""
    if type(row) is dict and _is_clean(row.values()):
        return row
    cleaned = {}
    for c, v in row.items():
        if type(v) is not int:
            v = as_scalar(v)
        if v:
            cleaned[c] = v
    return cleaned


@dataclass(frozen=True)
class RatMatrix:
    """Sparse rational matrix: rows are column -> exact rational maps.

    Entries are ``int`` or ``Fraction``; ints are kept as they are, so an
    integer matrix costs no ``Fraction`` arithmetic.

    ``blocks`` optionally declares a block-diagonal structure, one
    ``(columns, start, stop)`` per block: ``rows[start:stop]`` are supported
    in ``columns``, the blocks cover the rows in order and every column
    exactly once. Empty means a single block of all rows and columns.
    """

    rows: tuple
    ncols: int
    blocks: tuple = ()

    @staticmethod
    def from_rows(rows: Iterable[Mapping], ncols: int, blocks: tuple = ()) -> "RatMatrix":
        """A checked matrix: every row inside its block's columns (so inside
        ``0..ncols-1``), the blocks a partition of the rows and columns.

        A row that already is a dict of nonzero ints and Fractions is kept
        as it is; any other row is copied with exact entries and its zeros
        dropped.
        """
        rows = list(rows)
        spans = blocks or ((range(ncols), 0, len(rows)),)
        if sorted(c for columns, _, _ in spans for c in columns) != list(range(ncols)):
            raise ValueError(f"blocks must cover the columns 0..{ncols - 1} once each")
        packed = []
        for columns, start, stop in spans:
            if start != len(packed) or not start <= stop <= len(rows):
                raise ValueError("blocks must cover the rows in order")
            block = rows[start:stop]
            allowed = set(columns)
            if not allowed.issuperset(chain.from_iterable(block)):
                i, c = next(
                    (i, c) for i, row in enumerate(block, start) for c in row if c not in allowed
                )
                raise ValueError(f"column index {c} of row {i} outside its block")
            # One check of a whole block costs far less than one per row.
            if set(map(type, block)) <= {dict} and _is_clean(
                list(chain.from_iterable(map(dict.values, block)))
            ):
                packed.extend(block)
            else:
                packed.extend(map(_exact_row, block))
        if len(packed) != len(rows):
            raise ValueError("blocks must cover the rows in order")
        return RatMatrix(tuple(packed), ncols, tuple(blocks))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def apply(self, x: SparseVec) -> SparseVec:
        """Matrix-vector product; x is indexed by column, result by row."""
        out = {}
        for i, row in enumerate(self.rows):
            total = ZERO
            for c, v in row.items():
                xc = x.get(c)
                if xc:
                    total += v * xc
            if total:
                out[i] = total
        return SparseVec(out)


def _primitive(row: Mapping) -> dict:
    """The nonzero exact row as a new dict of coprime ints.

    Scaling a row by a nonzero rational changes neither its span nor its
    pivot, so the kernel below works on these rows alone.
    """
    try:
        g = gcd(*row.values())
    except TypeError:  # a Fraction entry: clear the denominators first
        den = lcm(*[v.denominator for v in row.values()])
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
        g = gcd(*row.values())
    return dict(row) if g == 1 else {c: v // g for c, v in row.items()}


def _eliminate(row: dict, prow: dict, col) -> dict:
    """Clear column ``col`` of the int row ``row`` with the int row ``prow``.

    The step is ``row <- a*row - b*prow`` with ``a/b`` the ratio of the two
    entries at ``col`` in lowest terms, after which the row's content (the
    gcd of its entries) is divided out. Like Bareiss's fraction-free
    elimination (Math. Comp. 22, 1968) this keeps every entry an integer,
    and dividing by the content keeps them small. ``row`` may be mutated.
    """
    a = prow[col]
    b = row[col]
    if a != 1:
        g = gcd(a, b)
        if g != 1:
            a //= g
            b //= g
        if a != 1:
            row = {c: a * v for c, v in row.items()}
    for c, v in prow.items():
        nv = row.get(c, 0) - b * v
        if nv:
            row[c] = nv
        else:
            del row[c]
    if row:
        g = gcd(*row.values())
        if g != 1:
            row = {c: v // g for c, v in row.items()}
    return row


def _reduce(row: dict, pivots: dict) -> dict:
    """What is left of the int row ``row`` (mutated) once every pivot column
    of the echelon form ``pivots`` is eliminated from it."""
    while row:
        lead = min(row)
        prow = pivots.get(lead)
        if prow is None:
            break
        row = _eliminate(row, prow, lead)
    return row


def _insert(row: dict, pivots: dict) -> bool:
    """Add the primitive int row ``row`` to the echelon form ``pivots``
    (pivot col -> int row leading there with a positive entry); True if the
    row space grew.

    Of two rows leading in the same column the shorter one is kept as the
    pivot and the other is reduced by it, so that pivot rows stay sparse and
    their entries small.
    """
    while row:
        lead = min(row)
        prow = pivots.get(lead)
        if prow is None or len(row) < len(prow):
            pivots[lead] = row if row[lead] > 0 else {c: -v for c, v in row.items()}
            if prow is None:
                return True
            row = prow
        row = _eliminate(row, pivots[lead], lead)
    return False


def _forward_eliminate(rows: Iterable[Mapping]) -> dict:
    """Echelon form; returns pivot-col -> int row leading there."""
    pivots: dict = {}
    for row in rows:
        if row:
            _insert(_primitive(row), pivots)
    return pivots


def _rref_rows(pivots: dict) -> dict:
    """Reduced rows of an echelon form: pivot-col -> Fraction row, pivot 1.

    Works through the pivots in decreasing order. Every row below the
    current one is already reduced, so it is nonzero only at its own pivot
    and at free columns, and clearing one pivot column of the current row
    brings in free columns alone: one pass over the row's own entries
    suffices. The division to ``Fraction`` happens once per row, at the end.
    """
    reduced: dict = {}
    out: dict = {}
    for p in sorted(pivots, reverse=True):
        row = dict(pivots[p])
        for q in [c for c in row if c != p and c in reduced]:
            row = _eliminate(row, reduced[q], q)
        reduced[p] = row
        lead = row[p]
        out[p] = {c: Fraction(v, lead) for c, v in row.items()}
    return out


def rref(matrix: RatMatrix) -> tuple:
    """Reduced row echelon form. Returns (RatMatrix, rank).

    The output has the same shape as the input, zero rows collected at the
    bottom. Pivots are the lowest-index nonzero column of each row, so the
    result is the (unique) canonical RREF, with ``Fraction`` entries.
    """
    reduced = _rref_rows(_forward_eliminate(matrix.rows))
    ordered = [reduced[c] for c in sorted(reduced)]
    rank = len(ordered)
    ordered.extend({} for _ in range(matrix.nrows - rank))
    return RatMatrix(tuple(ordered), matrix.ncols), rank


def rank(matrix: RatMatrix) -> int:
    return len(_forward_eliminate(matrix.rows))


# A block whose nullity is at most this tests each further row against its
# null vectors before inserting it.
TESTED_NULLITY = 2


def _null_vectors(pivots: dict, columns) -> dict:
    """Free column -> canonical null vector (entry 1 there) of the echelon
    form ``pivots``, whose rows are supported in ``columns``."""
    reduced = _rref_rows(pivots)
    basis = {free: {free: ONE} for free in columns if free not in reduced}
    for p, prow in reduced.items():
        for c, v in prow.items():
            if c != p:
                basis[c][p] = -v
    return basis


def _block_nullspace(rows, columns) -> dict:
    """``_null_vectors`` of the row space of ``rows``, all supported in ``columns``.

    Rows enter the echelon form one by one, and reading stops once its rank
    equals the number of columns. Once the nullity is at most
    ``TESTED_NULLITY``, a row is first dotted with the current null vectors,
    made primitive: a row orthogonal to all of them lies in
    ``(U^perp)^perp = U``, the span of the rows so far, and is skipped. Any
    other row enlarges the span, so it is inserted and the null vectors are
    recomputed, at most ``TESTED_NULLITY`` times. The row space, and with it
    the canonical RREF and the null vectors, is that of all the rows.
    """
    width = len(columns)
    zeros = dict.fromkeys(columns, 0)
    pivots: dict = {}
    null = None
    for row in rows:
        if width - len(pivots) > TESTED_NULLITY:
            if row:
                _insert(_primitive(row), pivots)
            continue
        if null is None:
            null = _null_vectors(pivots, columns)
            # dense over the block's columns, so a dot product needs no default
            probes = [{**zeros, **_primitive(v)} for v in null.values()]
        if any(sum(map(mul, row.values(), map(p.__getitem__, row))) for p in probes):
            _insert(_primitive(row), pivots)
            if len(pivots) == width:
                return {}
            null = None
    return _null_vectors(pivots, columns) if null is None else null


def nullspace(matrix: RatMatrix) -> list:
    """Basis of the right nullspace, one SparseVec per free column.

    Vectors are emitted in increasing free-column order; each has entry 1 at
    its free column, making the basis canonical for a fixed column order.
    Each block of ``matrix.blocks`` is solved alone: the canonical RREF of a
    block-diagonal matrix is the union of its blocks' RREFs.
    """
    basis: dict = {}
    for columns, start, stop in matrix.blocks or ((range(matrix.ncols), 0, matrix.nrows),):
        basis.update(_block_nullspace(matrix.rows[start:stop], columns))
    return [SparseVec(basis[free]) for free in sorted(basis)]


@dataclass(frozen=True)
class LinearSolveResult:
    """Outcome of ``solve_feasible``: a solution or a Farkas certificate.

    When infeasible, ``certificate`` is a row combination u (indexed by row)
    with u.A = 0 and u.b = 1.
    """

    feasible: bool
    solution: Optional[SparseVec] = None
    certificate: Optional[SparseVec] = None


def _particular_solution(rows: Iterable[Mapping], rhs: Mapping, ncols: int) -> Optional[dict]:
    """The solution of ``rows x = rhs`` with every free unknown at 0, as
    col -> nonzero Fraction, or None when the system is inconsistent.

    Each augmented row ``row | rhs_i`` enters the shared kernel as a primitive
    int row. The augmented column ``ncols`` comes last, so it leads a row
    only when the system is inconsistent. The pivot columns are then the
    column rank profile of ``[A|b]``, which fixes the solution. It is read
    off by back-substitution in decreasing pivot order: with the free
    unknowns at 0, a pivot row reduced by the rows below it keeps only its
    pivot and augmented entries, so each unknown costs one ``Fraction``.
    """
    aug = ncols
    pivots: dict = {}
    for i, row in enumerate(rows):
        bi = rhs.get(i)
        if bi:
            row = dict(row)
            row[aug] = bi
        if row:
            _insert(_primitive(row), pivots)
            if aug in pivots:
                return None
    reduced: dict = {}
    solution = {}
    for p in sorted(pivots, reverse=True):
        row = {c: v for c, v in pivots[p].items() if c == p or c == aug or c in reduced}
        for q in [c for c in row if c != p and c != aug]:
            row = _eliminate(row, reduced[q], q)
        reduced[p] = row
        if aug in row:
            solution[p] = Fraction(row[aug], row[p])
    return solution


def solve_feasible(matrix: RatMatrix, b: SparseVec) -> LinearSolveResult:
    """Solve A x = b exactly, or certify infeasibility.

    A feasible system returns its solution with every free unknown at 0.
    Otherwise, by the Fredholm alternative, ``A^T u = 0, b.u = 1`` is
    feasible, and its solution is the Farkas certificate.
    """
    solution = _particular_solution(matrix.rows, b._entries, matrix.ncols)
    if solution is not None:
        return LinearSolveResult(True, solution=SparseVec(solution))
    columns = [{} for _ in range(matrix.ncols)]
    for i, row in enumerate(matrix.rows):
        for c, v in row.items():
            columns[c][i] = v
    columns.append({i: v for i, v in b._entries.items() if i < matrix.nrows})
    u = _particular_solution(columns, {matrix.ncols: 1}, matrix.nrows)
    return LinearSolveResult(False, certificate=SparseVec(u))


class RowSpace:
    """Incrementally built row space supporting exact membership queries."""

    def __init__(self, vectors: Iterable[SparseVec] = ()):
        self._pivots: dict = {}
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def add(self, v: SparseVec) -> bool:
        """Insert v; returns True if it enlarged the space."""
        return bool(v) and _insert(_primitive(v._entries), self._pivots)

    def contains(self, v: SparseVec) -> bool:
        return not v or not _reduce(_primitive(v._entries), self._pivots)


def in_span(v: SparseVec, basis: Iterable[SparseVec]) -> bool:
    """True iff v is an exact rational combination of the basis vectors."""
    return RowSpace(basis).contains(v)


def span_dim(vectors: Iterable[SparseVec]) -> int:
    return RowSpace(vectors).dim

