"""Assembling and solving the delta-derivation equations on a window.

A linear map phi is a delta-derivation when

    phi([x, y]) = delta * ([phi(x), y] + [x, phi(y)])

for all x, y. On a window the images phi(e_i), i in I, are unknowns supported
in O, and every unordered pair of input keys whose bracket stays inside I
contributes one equation per reachable output coordinate, including
coordinates outside O where the unknown images contribute nothing but
brackets of images may. That makes the windowed system a strict truncation of
the infinite one: no constraint of the infinite problem restricted to the
window is dropped. The price is boundary-killed solutions, which the interior
comparison in ``compare_families`` absorbs.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .algebras import AlgebraSpec, BasisKey, Term, bracket, bracket_vec, degree, structure_table
from .exactlin import (
    RatMatrix,
    RowSpace,
    Scalar,
    SparseVec,
    as_scalar,
    nullspace_by_blocks,
    span_dim,
)
from .operators import (
    ShiftOp,
    SolvHalfDer,
    ThinHalfDer,
    WabHalfDer,
    Window,
    WindowedMap,
    WindowTooSmall,
    KeyOutsideWindow,
    evaluate,
    require_inside,
)

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ConstraintSystem:
    """Linearized delta-derivation conditions on a window."""

    window: Window
    matrix: RatMatrix
    pair_list: Tuple[Tuple[BasisKey, BasisKey], ...]


@dataclass(frozen=True)
class FamilyBasis:
    """A basis of a space of candidate derivations on a window, as column
    vectors over ``window.columns()``: entry ``i*n + j``, ``n =
    len(window.out_keys)``, is the coefficient of ``out_keys[j]`` in the
    image of ``keys[i]``. Unhashable, as ``SparseVec`` is.

    ``basis`` holds the same maps as ``WindowedMap``s, for evaluating; it is
    built on first use, from ``images``, and left out of equality. The
    solve report prints the vectors without either (``cli._basis_texts``).
    """

    window: Window
    vectors: Tuple[SparseVec, ...]

    __hash__ = None

    def __len__(self) -> int:
        return len(self.vectors)

    def images(self, v: SparseVec) -> Dict[BasisKey, SparseVec]:
        """Per input key, its image under the map whose column vector is
        ``v``: entry ``col`` is the coefficient of ``out_keys[col % n]`` in the
        image of ``keys[col // n]``. ``basis`` builds its maps from these."""
        keys, out_keys = self.window.keys, self.window.out_keys
        n = len(out_keys)
        images: Dict[BasisKey, Dict[BasisKey, Scalar]] = {k: {} for k in keys}
        for col, value in v._entries.items():
            images[keys[col // n]][out_keys[col % n]] = value
        return {k: SparseVec._wrap(image) for k, image in images.items()}

    @cached_property
    def basis(self) -> Tuple[WindowedMap, ...]:
        return tuple(WindowedMap._wrap(self.window, self.images(v)) for v in self.vectors)

    @cached_property
    def reach(self) -> Dict[BasisKey, frozenset]:
        """Per input key, the output keys that some basis image reaches there;
        built on first use and left out of equality."""
        images = [m.image for m in self.basis]
        return {k: frozenset().union(*(im[k]._entries for im in images)) for k in self.window.keys}


@dataclass(frozen=True)
class ComparisonReport:
    """Result of comparing a solved family with a closed-form family: the
    two containment verdicts and the three dimensions that reports print.

    ``dim_expected`` is the dimension of the span of the expected maps,
    which may be dependent on a window (thin ``j..j``, j >= 3).
    """

    expected_contained: bool
    solved_interior_contained: bool
    interior_margin: int
    dim_solved: int
    dim_expected: int
    dim_interior: int


def _closed_pairs(
    alg: AlgebraSpec, in_keys: Sequence[BasisKey]
) -> Dict[Tuple[BasisKey, BasisKey], Term]:
    """``derivation_pairs``, each mapped to its scaled term from ``structure_table``."""
    keys = sorted(set(in_keys))
    key_set = set(keys)
    table = structure_table(alg, keys, keys)
    pairs = {}
    for a, b in itertools.combinations(range(len(keys)), 2):
        term = table[a][b]
        if term is None or term[0] in key_set:
            pairs[keys[a], keys[b]] = term
    return pairs


def derivation_pairs(alg: AlgebraSpec, in_keys: Sequence[BasisKey]) -> List[Tuple[BasisKey, BasisKey]]:
    """Unordered pairs of distinct input keys whose bracket stays inside I.

    Zero brackets are trivially inside, so commuting pairs are included; they
    still constrain the right-hand side of the derivation condition.
    """
    return list(_closed_pairs(alg, in_keys))


def residual_at(alg, candidate, delta, k1: BasisKey, k2: BasisKey) -> SparseVec:
    """phi([e_i, e_j]) - delta*([phi(e_i), e_j] + [e_i, phi(e_j)]) for phi = candidate."""
    bv = bracket(alg, k1, k2)
    lhs = evaluate(candidate, bv)
    u1 = SparseVec({k1: 1})
    u2 = SparseVec({k2: 1})
    rhs = bracket_vec(alg, evaluate(candidate, u1), u2) + bracket_vec(
        alg, u1, evaluate(candidate, u2)
    )
    return lhs - rhs.scaled(delta)


def check_delta_derivation(
    alg: AlgebraSpec,
    wmap: WindowedMap,
    delta,
    pairs: Sequence[Tuple[BasisKey, BasisKey]],
) -> List[Tuple[Tuple[BasisKey, BasisKey], SparseVec]]:
    """Residuals of the delta-derivation condition on the given pairs.

    Empty result means the map satisfies the condition on every tested pair.
    Raises WindowTooSmall when a needed image is undefined.
    """
    violations = []
    for k1, k2 in pairs:
        try:
            residual = residual_at(alg, wmap, delta, k1, k2)
        except KeyOutsideWindow as exc:
            raise WindowTooSmall(f"pair ({k1}, {k2}): {exc}") from None
        if residual:
            violations.append(((k1, k2), residual))
    return violations


def find_violation_witness(
    alg: AlgebraSpec,
    candidate,
    delta,
    search_keys: Sequence[BasisKey],
) -> Optional[Tuple[Tuple[BasisKey, BasisKey], SparseVec]]:
    """First pair (in canonical order) of search keys with nonzero residual."""
    pairs = list(itertools.combinations(sorted(set(search_keys)), 2))
    violations = check_delta_derivation(alg, candidate, delta, pairs)
    return violations[0] if violations else None


# Every slot empty: what a unit's table holds at a degree it does not reach.
# ``zip`` stops at the slots of the tables that are there.
_NO_SLOTS = itertools.repeat(())


class _GradedEquations:
    """The delta-derivation equations of a window, one graded block at a time.

    Every catalogued algebra is graded, so the equation of the pair (x, y)
    at coordinate z only touches unknowns (k, o) of shift deg o - deg k =
    deg z - deg x - deg y. Block ``t`` holds the unknowns of shift ``t``.
    Its units are the pairs with an equation there, ordered by ``min(|deg
    x|, |deg y|)`` (pairs with a generator first) and then canonically; a
    unit's rows are its equations at the coordinates of degree ``t + deg x +
    deg y``, in increasing order. The units of every pair are held once, in
    that order, in ``units``, and each block reads its own from them with
    one cursor (``_Block``).

    With ``delta = num/den`` the equation of (x, y) at z is ``den`` times
    the condition, ``den*phi([x, y]) - num*([phi(x), y] + [x, phi(y)])`` at
    z, further scaled by ``alg.scale``, so every entry is an int. It is read
    from ``structure_table``, whose constants carry that scale, built once:
    ``-num*[o, y]`` and ``-num*[x, o]`` over the output keys o, grouped by
    deg o, for every key y and x of a pair, and ``den*[x, y]`` for every
    pair. Each group is split by the slot of z among the coordinates of its
    degree, so an equation is one slot of three tables, and where a degree
    has one coordinate its value is one scalar sum.

    A block numbers its unknown (k, o) ``i*W + slot of o``, with ``i`` the
    index of k and ``W`` the most output keys of one degree, so a unit's
    entries are found from the tables without a look-up by column; its
    ``columns`` map those ids to the window's columns.
    """

    def __init__(self, alg: AlgebraSpec, delta: Scalar, w: Window):
        num, den = delta.numerator, delta.denominator
        out_keys = w.out_keys
        brackets = _closed_pairs(alg, w.keys)
        self.pair_list = tuple(brackets)
        # [phi(x), y] puts -num*[o, y] in column (x, o) and [x, phi(y)]
        # puts -num*[x, o] in column (y, o), for every output key o.
        seconds = list(dict.fromkeys(k for _, k in self.pair_list))
        firsts = list(dict.fromkeys(k for k, _ in self.pair_list))
        o_k = dict(zip(seconds, zip(*structure_table(alg, out_keys, seconds))))
        k_o = dict(zip(firsts, structure_table(alg, firsts, out_keys)))
        terms = [term for table in (*o_k.values(), *k_o.values()) for term in table if term]
        terms += [term for term in brackets.values() if term]

        # Coordinates of each degree, the ``slot`` of each among them.
        coordinates = sorted(set(out_keys).union(z for z, _ in terms))
        deg = {z: degree(alg, z) for z in coordinates}
        slot: Dict[BasisKey, int] = {}
        width: Dict[int, int] = {}
        for z in coordinates:
            slot[z] = width.get(deg[z], 0)
            width[deg[z]] = slot[z] + 1

        def not_graded(*keys):
            return ValueError(f"degree is not a grading of {alg.label()} at {list(keys)}")

        # A group's slots before any entry; out keys' degrees and slots.
        no_entries = {d: [()] * count for d, count in width.items()}
        out_deg = [deg[o] for o in out_keys]
        out_slot = [slot[o] for o in out_keys]

        def grouped(k, table):
            """deg o -> per slot of the coordinates z of degree deg o + deg k,
            the (slot of o, -num*c) over the output keys o with table entry
            (z, c)."""
            groups: Dict[int, list] = {}
            dk = deg[k]
            for o, do, so, term in zip(out_keys, out_deg, out_slot, table):
                if term is not None and num:
                    z, c = term
                    if deg[z] != do + dk:
                        raise not_graded(o, k)
                    group = groups.get(do)
                    if group is None:
                        group = groups[do] = no_entries[deg[z]].copy()
                    group[slot[z]] += ((so, -num * c),)
            return groups

        o_k = {k: grouped(k, table) for k, table in o_k.items()}
        k_o = {k: grouped(k, table) for k, table in k_o.items()}
        # Per degree, per slot: the slot itself when that coordinate is an
        # output key, where phi([x, y]) has its entry; a pair with [x, y] = 0
        # has no such table.
        out_at: Dict[int, list] = {}
        for do, so in zip(out_deg, out_slot):
            out_at.setdefault(do, no_entries[do].copy())[so] = (so,)
        n, most = len(out_keys), 1 + max(out_slot, default=0)
        # Block t's id of (k, o) -> its column i*n + j, in increasing order.
        columns: Dict[int, dict] = defaultdict(dict)
        for i, k in enumerate(w.keys):
            dk, first = deg[k], i * most
            for j, (do, so) in enumerate(zip(out_deg, out_slot), start=i * n):
                columns[do - dk][first + so] = j
        self.columns = dict(sorted(columns.items()))

        base = {k: i * most for i, k in enumerate(w.keys)}
        self.units = []
        for k1, k2 in sorted(self.pair_list, key=lambda p: min(abs(deg[p[0]]), abs(deg[p[1]]))):
            d1, d2 = deg[k1], deg[k2]
            outs, s_base, cs = {}, None, None
            if brackets[k1, k2] is not None:
                s, cs = brackets[k1, k2]
                if deg[s] != d1 + d2:
                    raise not_graded(k1, k2)
                outs, s_base, cs = out_at, base[s], den * cs
            self.units.append((outs, o_k[k2], k_o[k1], d1, d2, base[k1], base[k2], s_base, cs))

    def blocks(self):
        """One ``_Block`` per shift, by increasing shift."""
        for t in self.columns:
            yield _Block(self, t)


class _Block:
    """The equations of one shift block ``t``, read with one cursor over the
    units of ``_GradedEquations``: each unit is read once, by the rank phase
    or by a scan, and a block that reaches full rank reads no further.

    ``next_unit`` returns a unit resolved at ``t``: ``(out, group1, group2,
    base1, base2, s_base, cs)``, with ``out``, ``group1`` and ``group2`` the
    entries of phi([x, y]), [phi(x), y] and [x, phi(y)] at the coordinates of
    degree ``t + deg x + deg y``, slot by slot, and each ``base`` the id of
    the first unknown of its key. A unit is in the block when one of the
    three is there.
    """

    def __init__(self, equations: _GradedEquations, t: int):
        self.t = t
        self.columns = equations.columns[t]
        self.cursor = iter(equations.units)

    def next_unit(self, probes=()):
        """The next unit of the block, resolved, or None at the end. Given
        probes, dense lists over the block's ids, the units whose rows are
        zero on every probe are passed over: each is tested in this loop,
        slot by slot, by summing its entries times the probe straight from
        the tables, and only the unit returned is resolved."""
        t = self.t
        for outs, o_k, k_o, d1, d2, base1, base2, s_base, cs in self.cursor:
            out = outs.get(t + d1 + d2, _NO_SLOTS)
            group1 = o_k.get(t + d1, _NO_SLOTS)
            group2 = k_o.get(t + d2, _NO_SLOTS)
            if out is _NO_SLOTS and group1 is _NO_SLOTS and group2 is _NO_SLOTS:
                continue  # no equation of this pair lies in the block
            if not probes:
                return out, group1, group2, base1, base2, s_base, cs
            for at, at1, at2 in zip(out, group1, group2):
                for p in probes:
                    value = 0
                    for j in at:
                        value += cs * p[s_base + j]
                    for j, c in at1:
                        value += c * p[base1 + j]
                    for j, c in at2:
                        value += c * p[base2 + j]
                    if value:
                        return out, group1, group2, base1, base2, s_base, cs
        return None

    @staticmethod
    def rows(unit) -> list:
        """The resolved unit's nonzero rows, one per slot, by increasing
        coordinate."""
        out, group1, group2, base1, base2, s_base, cs = unit
        rows = []
        for at, at1, at2 in zip(out, group1, group2):
            row = {}
            for j in at:
                row[s_base + j] = cs
            for j, c in at1:
                row[base1 + j] = row.get(base1 + j, 0) + c
            for j, c in at2:
                row[base2 + j] = row.get(base2 + j, 0) + c
            if not all(row.values()):
                row = {col: v for col, v in row.items() if v}
            if row:
                rows.append(row)
        return rows


def assemble(alg: AlgebraSpec, delta, w: Window) -> ConstraintSystem:
    """Constraint matrix whose nullspace is the windowed delta-derivation space.

    One unknown per (input key, output key) coefficient; one row per (pair,
    reachable coordinate). Unknown images are zero outside O by fiat, but
    equations are still imposed on every reachable coordinate.

    The rows are every block's equations from ``_GradedEquations``, built in
    full: block by block in increasing shift, and in each block pair by pair,
    each entry moved from the block's id to its column. They are nonzero int
    rows inside the columns, so the matrix is built from them as they are.
    ``solve_derivations`` builds the same rows of every pair while a block's
    nullity is above ``TESTED_NULLITY`` and, after that, only the rows of the
    rare pairs that cut the null space, which the block's scan finds from
    the tables, so it never builds this matrix.
    ``nullspace(assemble(...).matrix)`` solves it in one plain elimination,
    with no scan, and is its basis. Column ``i`` is the unknown
    ``w.columns()[i]``.
    """
    equations = _GradedEquations(alg, as_scalar(delta), w)
    rows = []
    for block in equations.blocks():
        columns = block.columns
        while (unit := block.next_unit()) is not None:
            rows += ({columns[c]: v for c, v in row.items()} for row in block.rows(unit))
    return ConstraintSystem(w, RatMatrix(tuple(rows), len(w.columns())), equations.pair_list)


def solve_derivations(alg: AlgebraSpec, w: Window, delta) -> FamilyBasis:
    """Windowed space of delta-derivations, solved block by block on demand.

    The basis is ``nullspace(assemble(alg, delta, w).matrix)``, solved
    without building that matrix: ``exactlin.nullspace_by_blocks`` asks each
    block for the rows of a pair while the block's nullity is above
    ``TESTED_NULLITY``. After that the block's scan tests the remaining pairs
    on the block's null vectors, straight from the structure-constant
    tables, and only the first pair that is nonzero on one of them has its
    rows built; the scan then goes on from the next pair. The null vectors
    of the last scan, which found no cut, are the basis.
    """
    equations = _GradedEquations(alg, as_scalar(delta), w)
    return FamilyBasis(w, tuple(nullspace_by_blocks(equations.blocks())))


def solve_half_derivations(alg: AlgebraSpec, w: Window) -> FamilyBasis:
    """Windowed space of half-derivations: ``solve_derivations`` at delta = 1/2."""
    return solve_derivations(alg, w, HALF)


def _index_bounds(keys: Sequence[BasisKey], kind: str) -> Optional[Tuple[int, int]]:
    indices = [k.index for k in keys if k.kind == kind]
    if not indices:
        return None
    return min(indices), max(indices)


def _shifts(alg: AlgebraSpec, in_e, out_e) -> range:
    """The shifts t that carry the input range into the output range."""
    t_lo = out_e[0] - in_e[0]
    if alg.record.least_shift is not None:
        t_lo = max(t_lo, alg.record.least_shift)
    return range(t_lo, out_e[1] - in_e[1] + 1)


def _shift_generators(alg: AlgebraSpec, in_e, out_e) -> list:
    return [ShiftOp(t, 1, alg) for t in _shifts(alg, in_e, out_e)]


def _wab_generators(alg: AlgebraSpec, in_e, out_e) -> list:
    if alg.b != -1:
        return [WabHalfDer(alpha={0: 1})]
    shifts = _shifts(alg, in_e, out_e)
    return [WabHalfDer(alpha={t: 1}) for t in shifts] + [WabHalfDer(beta={t: 1}) for t in shifts]


def _thin_generators(alg: AlgebraSpec, in_e, out_e) -> list:
    # beta_i sends e_j to e_{i+j-2} for j >= 3 and e_2 to e_i.
    alphas = [ThinHalfDer(alpha=tuple([0] * (k - 1) + [1])) for k in range(1, out_e[1] + 1)]
    beta_hi = out_e[1] - max(in_e[1] - 2, 0)
    return alphas + [ThinHalfDer(beta=tuple([0] * (i - 2) + [1])) for i in range(2, beta_hi + 1)]


def _solv_generators(alg: AlgebraSpec, in_e, out_e) -> list:
    return [SolvHalfDer(alpha=tuple([0] * (k - 1) + [1])) for k in range(1, out_e[1] + 1)]


# Closed-form half-derivation generators by operator head, ``record.heads[0]``,
# from the e-index ranges (lo, hi) of the input and output windows.
_GENERATORS = {
    "shift": _shift_generators,
    "wab": _wab_generators,
    "thin": _thin_generators,
    "solv": _solv_generators,
}


def expected_family(alg: AlgebraSpec, w: Window) -> FamilyBasis:
    """The closed-form generators that fit the window, without those that
    vanish on it, each written as a column vector from its own ``value_at``.

    Witt family: shifts (t >= the record's ``least_shift``). Thin: unit alpha
    and beta generators. Solvable: unit alpha generators. W(a, b): shift and
    e->f generators for b = -1, the identity alone otherwise. The generators
    are chosen for an output window whose lines are index ranges; a window's
    input lies inside its output, so those are all the range windows. On an
    output window with a gap, a generator that escapes raises SupportOverflow.
    """
    generators = _GENERATORS[alg.record.heads[0]]
    candidates = generators(alg, _index_bounds(w.keys, "e"), _index_bounds(w.out_keys, "e"))
    n = len(w.out_keys)
    out_col = {o: j for j, o in enumerate(w.out_keys)}
    vectors = []
    for op in candidates:
        flat = {}
        for i, k in enumerate(w.keys):
            image = op.value_at(k)._entries
            for o, c in image.items():
                if o not in out_col:
                    require_inside(k, image, out_col)
                flat[i * n + out_col[o]] = c
        if flat:
            vectors.append(SparseVec._wrap(flat))
    return FamilyBasis(w, tuple(vectors))


def interior_input_keys(w: Window, margin: int) -> Tuple[BasisKey, ...]:
    """Input keys at distance >= margin from each end of their kind's range."""
    keep = []
    for kind in ("e", "f"):
        bounds = _index_bounds(w.keys, kind)
        if bounds is None:
            continue
        lo, hi = bounds
        keep.extend(
            k for k in w.keys if k.kind == kind and lo + margin <= k.index <= hi - margin
        )
    return tuple(sorted(keep))


def compare_families(
    solved: FamilyBasis, expected: FamilyBasis, interior_margin: int
) -> ComparisonReport:
    """Span comparison of solved and expected families.

    Both work on the families' column vectors, in window-wide ``RowSpace``s.
    ``expected_contained`` checks exact span membership of every expected
    vector in the solved space. ``solved_interior_contained`` restricts both
    sides to input keys at least ``interior_margin`` away from the
    input-window boundary, keeping the entries whose input row ``col //
    len(out_keys)`` is such a key, and checks the reverse containment there,
    discarding truncation artifacts that live near the boundary. The report
    holds the two verdicts and the three dimensions; it does not name the
    maps that fail.
    """
    if solved.window != expected.window:
        raise ValueError("families must share a window")
    w = solved.window
    n = len(w.out_keys)
    inner = set(interior_input_keys(w, interior_margin))
    inner_rows = {i for i, k in enumerate(w.keys) if k in inner}

    def interior(v: SparseVec) -> SparseVec:
        return SparseVec._wrap({c: x for c, x in v._entries.items() if c // n in inner_rows})

    restricted_vecs = list(map(interior, solved.vectors))
    return ComparisonReport(
        expected_contained=all(map(RowSpace(solved.vectors).contains, expected.vectors)),
        solved_interior_contained=all(
            map(RowSpace(map(interior, expected.vectors)).contains, restricted_vecs)
        ),
        interior_margin=interior_margin,
        dim_solved=len(solved),
        dim_expected=span_dim(expected.vectors),
        dim_interior=span_dim(restricted_vecs),
    )
