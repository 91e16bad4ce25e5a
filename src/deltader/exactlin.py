"""Exact rational sparse linear algebra.

An exact scalar has one canonical form: an ``int`` when it is integral, a
``fractions.Fraction`` (denominator > 1) only otherwise. ``as_scalar`` is the
one function that picks it, wherever a scalar enters: the ``SparseVec``
constructor, algebra parameters, parsed literals and operator fields; matrix
rows are built from entries already in that form. A producer whose output is
canonical by construction wraps its dict unchecked (``SparseVec._wrap``):
``+``, ``-`` and ``scaled`` here, which put each sum or product through
``as_scalar`` alone, and ``nullspace_by_blocks``; the map sums, multiples and
commutators, a solved family's images and maps, ``expected_family``'s
vectors, ``compare_families``' interior restriction and ``ShiftOp.value_at``
elsewhere. Results may share entries, as nothing mutates a vector once it is
built. So integral data costs no ``Fraction`` arithmetic, and every result
below is exact: nullspace bases, feasibility of ``A x = b`` with
Farkas-style infeasibility certificates, and span membership. No floating
point is used anywhere.

Elimination is fraction-free: each row enters as a primitive integer row and
is reduced by integer row operations by one kernel, which serves echelon
forms, nullspaces, span membership and feasibility alike. Results are read
off the unreduced echelon form by one integer back-substitution, which
serves null vectors and solutions alike; ``Fraction`` appears only in its
last division, once per entry of a null vector or a solution where that
division is not exact. A feasibility system is given as its augmented rows
``[A|b]``, and its solution is read off like a null vector.

Two nullspace solvers share that kernel. ``nullspace_by_blocks`` solves a
block-diagonal system block by block, each block reading its units of rows
with one cursor; once a block's nullity is small, the block scans on from
that cursor, testing each unit against its null vectors held as dense
lists, for the units that cut them (``_block_nullspace``). ``nullspace``
eliminates every row of one matrix, with no scan: it is the reference the
block solver is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

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
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, str):
        return as_scalar(Fraction(value))
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
    equality is entrywise. ``_wrap`` takes a dict already in that form as is.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Optional[Mapping] = None):
        self._entries = _exact_row(entries) if entries else {}

    @classmethod
    def _wrap(cls, entries: dict) -> "SparseVec":
        """``entries`` as a vector; the caller guarantees their form."""
        v = object.__new__(cls)
        v._entries = entries
        return v

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
            if nv:  # a Fraction sum may be integral
                out[k] = as_scalar(nv)
            else:
                del out[k]
        return SparseVec._wrap(out)

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        return self + (-other)

    def __neg__(self) -> "SparseVec":
        return SparseVec._wrap({k: -v for k, v in self._entries.items()})

    def scaled(self, factor) -> "SparseVec":
        return self._times(as_scalar(factor))

    def _times(self, factor: Scalar) -> "SparseVec":
        """This vector times ``factor``, a scalar already in canonical form."""
        if not factor:
            return SparseVec()
        # each product is nonzero, and a Fraction product may be integral
        return SparseVec._wrap({k: as_scalar(factor * v) for k, v in self._entries.items()})

    def __repr__(self) -> str:
        if not self._entries:
            return "SparseVec(0)"
        body = ", ".join(f"{k}: {v}" for k, v in self.items())
        return f"SparseVec({{{body}}})"


@dataclass(frozen=True)
class RatMatrix:
    """Sparse rational matrix: each row maps columns in ``0..ncols-1`` to
    nonzero scalars in canonical form, as ``SparseVec`` stores them, so an
    integer matrix costs no ``Fraction`` arithmetic. It is built unchecked,
    by ``dersolve.assemble`` only, from rows already in that form, and is
    what ``nullspace`` solves.
    """

    rows: tuple
    ncols: int

    @property
    def nrows(self) -> int:
        return len(self.rows)


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


# Once a block's nullity is at most this, each further unit of its rows is
# tested against the block's null vectors and inserted only if it cuts them.
TESTED_NULLITY = 2


def _back_substitute(pivots: dict, free) -> dict:
    """The null vector of the echelon form ``pivots`` at the free column
    ``free``, as a nonzero int multiple: nonzero at ``free``, zero at every
    other free column, so nonzero only at ``free`` and pivot columns below it.

    It is read straight off the unreduced rows in decreasing pivot order: the
    row of pivot ``p`` fixes ``v[p] = -s/row[p]``, ``s`` its dot product with
    the entries found so far. When that division is not exact, ``v`` is first
    scaled by ``row[p]/gcd(row[p], s)``. Entries come in decreasing column
    order, and none is zero.
    """
    v = {free: 1}
    for p in sorted((p for p in pivots if p < free), reverse=True):
        row = pivots[p]
        s = sum(x * v[c] for c, x in row.items() if c in v)
        if s:
            g = gcd(row[p], s)
            if g != row[p]:
                k = row[p] // g
                v = {c: k * x for c, x in v.items()}
            v[p] = -s // g
    return v


def _canonical(v: dict, free) -> dict:
    """The int null vector ``v`` divided by its entry at ``free``: an entry
    stays an int where the division is exact, and is a Fraction otherwise."""
    d = v[free]
    if d == 1:
        return v
    return {c: x // d if not x % d else Fraction(x, d) for c, x in v.items()}


def _block_nullspace(block) -> dict:
    """Free column -> canonical null vector (1 at the free column, 0 at every
    other) of the rows of one block, as columns of the whole system.

    ``block.columns`` maps the ids that the block's rows use to the columns
    of the whole system, in increasing order of both, so the block's
    canonical basis is the same in either. The rows come in units, read once
    each with one cursor: ``block.next_unit()`` returns the next unit, or
    None once there are no more, and ``block.next_unit(probes)`` reads on
    and returns the first unit whose rows are nonzero on some probe, without
    building rows. ``block.rows(unit)`` builds a unit's rows.

    The block keeps one echelon form. While its nullity is above
    ``TESTED_NULLITY``, checked before each unit is read, every unit's rows
    enter it. After that the probes are the null vectors of the rows so far,
    held as dense lists over the ids, and the rest of the units are scanned
    for the first that cuts them. A unit orthogonal to every probe lies in
    ``(U^perp)^perp = U``, the span of the rows so far, and is passed over.
    The cutting unit's rows are inserted like any other, the probes are read
    again, and the scan goes on from the next unit. Reading stops at full
    rank. When a scan finds no cut, the echelon form spans all the rows, so
    the probes are the block's null vectors, and each is divided by its
    entry at its free column. When the units run out while the nullity is
    still above ``TESTED_NULLITY``, the null vectors are read off the
    echelon form once, in the same way.
    """
    columns = block.columns
    size = max(columns, default=-1) + 1
    pivots: dict = {}
    nulls = None
    while True:
        probes = []
        if len(columns) - len(pivots) <= TESTED_NULLITY:
            nulls = {f: _back_substitute(pivots, f) for f in columns if f not in pivots}
            if not nulls:
                return {}
            for v in nulls.values():
                probe = [0] * size
                for c, x in v.items():
                    probe[c] = x
                probes.append(probe)
        unit = block.next_unit(probes)
        if unit is None:
            break
        for row in block.rows(unit):
            _insert(_primitive(row), pivots)
    if nulls is None:
        nulls = {f: _back_substitute(pivots, f) for f in columns if f not in pivots}
    return {
        columns[f]: {columns[c]: x for c, x in _canonical(v, f).items()} for f, v in nulls.items()
    }


def nullspace_by_blocks(blocks: Iterable) -> list:
    """Basis of the null space of a block-diagonal system given block by
    block, each as ``_block_nullspace`` reads it.

    Vectors are emitted in increasing free-column order; each has entry 1 at
    its free column and 0 at every other, making the basis canonical for a
    fixed column order. The canonical RREF of a block-diagonal matrix is the
    union of its blocks' RREFs, so each block is solved alone.
    """
    basis: dict = {}
    for block in blocks:
        basis.update(_block_nullspace(block))
    return [SparseVec._wrap(basis[free]) for free in sorted(basis)]


def nullspace(matrix: RatMatrix) -> list:
    """Basis of the right nullspace, one SparseVec per free column, as in
    ``nullspace_by_blocks``, by one plain elimination: every nonzero row
    enters the echelon form, and each free column's null vector is read off
    it. It shares no scan with ``_block_nullspace``, so it can check it."""
    pivots: dict = {}
    for row in matrix.rows:
        if row:
            _insert(_primitive(row), pivots)
    free = (f for f in range(matrix.ncols) if f not in pivots)
    return [SparseVec(_canonical(_back_substitute(pivots, f), f)) for f in free]


@dataclass(frozen=True)
class LinearSolveResult:
    """Outcome of ``solve_feasible``: a solution or a Farkas certificate.

    When infeasible, ``certificate`` is a row combination u (indexed by row)
    with u.A = 0 and u.b = 1, zero past the shortest inconsistent row prefix.
    """

    feasible: bool
    solution: Optional[SparseVec] = None
    certificate: Optional[SparseVec] = None


def _particular_solution(rows: Iterable[Mapping], ncols: int) -> tuple:
    """``(x, 0)`` with x the solution of the augmented rows ``[A|b]`` (b in
    column ``ncols``) with every free unknown at 0, as col -> nonzero scalar;
    or ``(None, n)`` when the first n rows, and no fewer, are inconsistent.

    Each row enters the shared kernel as a primitive int row. Column
    ``ncols`` comes last, so it leads a row only when the rows so far are
    inconsistent. Otherwise it is a free column of ``[A|b]``, and its
    canonical null vector is zero at every free unknown, so minus its other
    entries is the solution.
    """
    pivots: dict = {}
    for i, row in enumerate(rows):
        if row:
            _insert(_primitive(row), pivots)
            if ncols in pivots:
                return None, i + 1
    v = _canonical(_back_substitute(pivots, ncols), ncols)
    return {c: -x for c, x in v.items() if c != ncols}, 0


def solve_feasible(rows: Sequence[Mapping], ncols: int) -> LinearSolveResult:
    """Solve A x = b exactly, or certify infeasibility, for the augmented
    rows ``[A|b]``: each row maps the columns ``0..ncols-1`` of A, and column
    ``ncols`` for b, to nonzero exact scalars in canonical form.

    A feasible system returns its solution with every free unknown at 0.
    Otherwise, by the Fredholm alternative, ``A_p^T u = 0, b_p.u = 1`` is
    feasible for the shortest inconsistent row prefix ``[A_p|b_p]``; its
    solution, zero on the other rows, is the Farkas certificate.
    """
    solution, prefix = _particular_solution(rows, ncols)
    if solution is not None:
        return LinearSolveResult(True, solution=SparseVec(solution))
    columns = [{} for _ in range(ncols + 1)]
    for i, row in enumerate(rows[:prefix]):
        for c, v in row.items():
            columns[c][i] = v
    columns[ncols][prefix] = 1
    u, _ = _particular_solution(columns, prefix)
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

