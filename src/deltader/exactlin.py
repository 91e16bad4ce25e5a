"""Exact rational sparse linear algebra.

An exact scalar has one canonical form: an ``int`` when it is integral, a
``fractions.Fraction`` (denominator > 1) only otherwise. ``as_scalar`` is the
one function that picks it, wherever a scalar enters: sparse vectors, matrix
rows, algebra parameters, parsed literals and operator fields. So integral
data costs no ``Fraction`` arithmetic, and every result below is exact:
nullspace bases, feasibility of ``A x = b`` with Farkas-style infeasibility
certificates, and span membership. No floating point is used anywhere.

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
from typing import Iterable, Mapping, Optional, Union

# An exact scalar in canonical form: int when integral, Fraction otherwise.
Scalar = Union[int, Fraction]


def as_scalar(value) -> Scalar:
    """The exact scalar ``value`` in canonical form.

    An int is returned as is, and a Fraction with denominator > 1 as the same
    object; an integral Fraction becomes its numerator, and a string like
    ``3/4`` or ``4/2`` is parsed. Anything else, such as a float or a bool,
    raises TypeError.
    """
    if type(value) is int:
        return value
    if isinstance(value, str):
        value = Fraction(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"not an exact scalar: {value!r}")


def _exact_row(row: Mapping) -> dict:
    """The row as a new dict of its nonzero entries in canonical form: ints
    are kept, any other value goes through ``as_scalar``."""
    cleaned = {}
    for c, v in row.items():
        if type(v) is not int:
            v = as_scalar(v)
        if v:
            cleaned[c] = v
    return cleaned


class SparseVec:
    """Finitely supported map key -> nonzero canonical Scalar.

    Keys may be any orderable hashable values (basis keys, column indices).
    Entries may be given as ints, Fractions or strings like ``3/4``; the
    constructor stores each in canonical form (``_exact_row``), so an entry
    is an int exactly when it is integral. Zero entries are never stored;
    equality is entrywise.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[Mapping] = None):
        self._entries = _exact_row(entries) if entries else {}

    @property
    def entries(self) -> dict:
        return dict(self._entries)

    def get(self, key) -> Scalar:
        return self._entries.get(key, 0)

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVec):
            return NotImplemented
        return self._entries == other._entries

    def __add__(self, other: "SparseVec") -> "SparseVec":
        out = dict(self._entries)
        for k, v in other._entries.items():
            nv = out.get(k, 0) + v
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

    def dot(self, other: "SparseVec") -> Scalar:
        if len(other._entries) < len(self._entries):
            self, other = other, self
        total = 0
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


@dataclass(frozen=True)
class RatMatrix:
    """Sparse rational matrix: rows are column -> exact rational maps.

    ``from_rows`` stores entries in canonical form, as ``SparseVec`` does: an
    integral entry is an int, so an integer matrix costs no ``Fraction``
    arithmetic.
    """

    rows: tuple
    ncols: int

    @staticmethod
    def from_rows(rows: Iterable[Mapping], ncols: int) -> "RatMatrix":
        """A checked matrix: every row inside the columns ``0..ncols-1``,
        copied by ``_exact_row``."""
        rows = list(rows)
        allowed = set(range(ncols))
        if not allowed.issuperset(chain.from_iterable(rows)):
            i, c = next((i, c) for i, row in enumerate(rows) for c in row if c not in allowed)
            raise ValueError(f"column index {c} of row {i} outside 0..{ncols - 1}")
        return RatMatrix(tuple(map(_exact_row, rows)), ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def apply(self, x: SparseVec) -> SparseVec:
        """Matrix-vector product; x is indexed by column, result by row."""
        out = {}
        for i, row in enumerate(self.rows):
            total = 0
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


def _reduced_rows(pivots: dict) -> dict:
    """Reduced rows of an echelon form: pivot-col -> int row, zero at every
    other pivot column.

    Works through the pivots in decreasing order. Every row below the
    current one is already reduced, so it is nonzero only at its own pivot
    and at free columns, and clearing one pivot column of the current row
    brings in free columns alone: one pass over the row's own entries
    suffices.
    """
    reduced: dict = {}
    for p in sorted(pivots, reverse=True):
        row = dict(pivots[p])
        for q in [c for c in row if c != p and c in reduced]:
            row = _eliminate(row, reduced[q], q)
        reduced[p] = row
    return reduced


def _rref_rows(pivots: dict) -> dict:
    """Reduced rows of an echelon form: pivot-col -> Fraction row, pivot 1.

    The division to ``Fraction`` happens once per entry, at the end.
    """
    return {
        p: {c: Fraction(v, row[p]) for c, v in row.items()}
        for p, row in _reduced_rows(pivots).items()
    }


# Once a block's nullity is at most this, each further unit of its rows is
# tested against the block's null vectors instead of being inserted.
TESTED_NULLITY = 2


def _integer_null_vectors(pivots: dict, columns) -> list:
    """The canonical null vectors of the echelon form ``pivots``, whose rows
    are supported in ``columns``, one per free column, with their
    denominators cleared: primitive int vectors, dense over
    ``columns``, read off the integer reduced rows without a ``Fraction``."""
    reduced = _reduced_rows(pivots)
    vectors = []
    for free in columns:
        if free not in reduced:
            rows = [(p, row) for p, row in reduced.items() if free in row]
            scale = lcm(*(row[p] for p, row in rows))
            v = dict.fromkeys(columns, 0)
            v[free] = scale
            for p, row in rows:
                v[p] = -row[free] * (scale // row[p])
            vectors.append(_primitive(v))
    return vectors


def _combined(vectors: list, coeffs: dict) -> dict:
    """The primitive int vector ``sum(coeffs[i] * vectors[i])`` of int vectors
    dense over the same columns."""
    terms = list(zip(coeffs.values(), vectors))
    return _primitive({col: sum(c * v[col] for c, v in terms) for col in vectors[0]})


def _canonical_null_vectors(vectors: list) -> dict:
    """Free column -> canonical null vector (``Fraction`` entries, 1 at the
    free column) of the row space whose null space the int vectors
    ``vectors`` span.

    The canonical null vector of free column ``f`` is 1 at ``f``, 0 at every
    other free column and nonzero only at pivot columns below ``f``: these
    vectors are the reduced echelon form of the null space with the column
    order reversed. The shared kernel computes it on negated columns.
    """
    reduced = _rref_rows(_forward_eliminate({-c: x for c, x in v.items() if x} for v in vectors))
    return {-p: {-c: x for c, x in sorted(row.items())} for p, row in reduced.items()}


def _block_nullspace(units, columns, rows, residuals) -> dict:
    """``_canonical_null_vectors`` of the rows of one block, supported in
    ``columns``.

    The rows come in units. ``rows(unit)`` builds a unit's rows, and
    ``residuals(unit, probes)`` evaluates them on vectors without building
    them: for each probe, the list of the rows' dot products with it.

    While the nullity is above ``TESTED_NULLITY``, every unit's rows enter
    the echelon form. After that no row is built. The probes are primitive
    int vectors spanning the null space of the rows so far, and each unit is
    tested by its residuals on them. A unit orthogonal to every probe lies
    in ``(U^perp)^perp = U``, the span of the rows so far, and changes
    nothing. Any other unit cuts the null space down to the combinations of
    the probes that its rows annihilate, ``U * null(R)`` for its residual
    matrix ``R``, so the probes are recombined; no echelon form is updated.
    Reading stops when no probe is left, at full rank. The null space is
    that of all the rows, and the canonical basis is read off it at the end.
    """
    width = len(columns)
    pivots: dict = {}
    units = iter(units)
    for unit in units:
        for row in rows(unit):
            _insert(_primitive(row), pivots)
        if width - len(pivots) <= TESTED_NULLITY:
            break
    probes = _integer_null_vectors(pivots, columns)
    for unit in units:
        if not probes:
            break
        values = residuals(unit, probes)
        if any(map(any, values)):
            cut = _forward_eliminate({i: x for i, x in enumerate(r) if x} for r in zip(*values))
            probes = [_combined(probes, c) for c in _integer_null_vectors(cut, range(len(probes)))]
    return _canonical_null_vectors(probes)


def _matrix_rows(row) -> tuple:
    """A matrix row as a unit of ``_block_nullspace``."""
    return (row,) if row else ()


def _matrix_residuals(row, probes) -> list:
    return [[sum(map(mul, row.values(), map(p.__getitem__, row)))] for p in probes]


def nullspace_by_blocks(blocks: Iterable) -> list:
    """Basis of the null space of a block-diagonal system given block by
    block, as ``(columns, units, rows, residuals)`` for ``_block_nullspace``.

    Vectors are emitted in increasing free-column order; each has entry 1 at
    its free column, making the basis canonical for a fixed column order.
    The canonical RREF of a block-diagonal matrix is the union of its
    blocks' RREFs, so each block is solved alone.
    """
    basis: dict = {}
    for columns, units, rows, residuals in blocks:
        basis.update(_block_nullspace(units, columns, rows, residuals))
    return [SparseVec(basis[free]) for free in sorted(basis)]


def nullspace(matrix: RatMatrix) -> list:
    """Basis of the right nullspace, one SparseVec per free column, as in
    ``nullspace_by_blocks``: the whole matrix solved as one block, each row a
    unit of its own."""
    return nullspace_by_blocks(
        [(range(matrix.ncols), matrix.rows, _matrix_rows, _matrix_residuals)]
    )


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


def span_dim(vectors: Iterable[SparseVec]) -> int:
    return RowSpace(vectors).dim

