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
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .algebras import AlgebraSpec, BasisKey, bracket, bracket_term, bracket_vec, degree
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
    materialize,
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
    """A list of windowed maps spanning a space of candidate derivations."""

    window: Window
    basis: Tuple[WindowedMap, ...]

    def __len__(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class ComparisonReport:
    """Result of comparing a solved family with a closed-form family.

    ``dim_expected`` is the dimension of the span of the expected maps,
    which may be dependent on a window (thin ``j..j``, j >= 3).
    """

    expected_contained: bool
    solved_interior_contained: bool
    interior_margin: int
    dim_solved: int
    dim_expected: int
    dim_interior: int
    offending_vectors: Tuple[Tuple[str, WindowedMap], ...]


def derivation_pairs(alg: AlgebraSpec, in_keys: Sequence[BasisKey]) -> List[Tuple[BasisKey, BasisKey]]:
    """Unordered pairs of distinct input keys whose bracket stays inside I.

    Zero brackets are trivially inside, so commuting pairs are included; they
    still constrain the right-hand side of the derivation condition.
    """
    keys = sorted(set(in_keys))
    key_set = set(keys)
    pairs = []
    for k1, k2 in itertools.combinations(keys, 2):
        term = bracket_term(alg, k1, k2)
        if term is None or term[0] in key_set:
            pairs.append((k1, k2))
    return pairs


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


class _GradedEquations:
    """The delta-derivation equations of a window, one graded block at a time.

    Every catalogued algebra is graded, so the equation of the pair (x, y)
    at coordinate z only touches unknowns (k, o) of shift deg o - deg k =
    deg z - deg x - deg y. Block ``t`` holds the unknowns of shift ``t``.
    Its units are the pairs with an equation there, ordered by ``min(|deg
    x|, |deg y|)`` (pairs with a generator first) and then canonically; a
    unit's rows are its equations at the coordinates of degree ``t + deg x +
    deg y``, in increasing order.

    With ``delta = num/den`` the equation of (x, y) at z is ``den`` times
    the condition, ``den*phi([x, y]) - num*([phi(x), y] + [x, phi(y)])`` at
    z, so the entries are ints whenever the structure constants are. It is
    read from tables of the structure constants, built once:
    ``-num*[o, y]`` and ``-num*[x, o]`` over the output keys o, grouped by
    deg o, for every key y and x of a pair, and ``den*[x, y]`` for every
    pair. Every equation is further scaled by the lcm of the denominators of
    the structure constants, so every entry is an int. A unit's rows are
    built by ``rows`` and evaluated on vectors by ``residuals``, which builds
    no row.
    """

    def __init__(self, alg: AlgebraSpec, delta: Scalar, w: Window):
        num, den = delta.numerator, delta.denominator
        out_keys = w.out_keys
        self.pair_list = tuple(derivation_pairs(alg, w.keys))
        # [phi(x), y] puts -num*[o, y] in column (x, o) and [x, phi(y)]
        # puts -num*[x, o] in column (y, o), for every output key o.
        seconds = dict.fromkeys(k for _, k in self.pair_list)
        firsts = dict.fromkeys(k for k, _ in self.pair_list)
        o_k = {k: [bracket_term(alg, o, k) for o in out_keys] for k in seconds}
        k_o = {k: [bracket_term(alg, k, o) for o in out_keys] for k in firsts}
        brackets = {pair: bracket_term(alg, *pair) for pair in self.pair_list}
        terms = [term for table in (*o_k.values(), *k_o.values()) for term in table if term]
        terms += [term for term in brackets.values() if term]

        # Coordinates of each degree, the ``slot`` of each among them.
        coordinates = sorted(set(out_keys).union(z for z, _ in terms))
        deg = {z: degree(alg, z) for z in coordinates}
        slot: Dict[BasisKey, int] = {}
        self.width: Dict[int, int] = {}
        for z in coordinates:
            slot[z] = self.width.get(deg[z], 0)
            self.width[deg[z]] = slot[z] + 1

        def graded(z, *keys):
            if deg[z] != sum(deg[k] for k in keys):
                raise ValueError(f"degree is not a grading of {alg.label()} at {list(keys)}")
            return z

        scale = lcm(*(c.denominator for _, c in terms))
        factor = -num * scale

        def grouped(k, table):
            """deg o -> [(j, slot of z, factor*c)] over the o = out_keys[j] with table[j] = (z, c)."""
            groups: Dict[int, list] = {}
            for j, (o, term) in enumerate(zip(out_keys, table)):
                if term is not None and factor:
                    z, c = term
                    entry = (j, slot[graded(z, o, k)], as_scalar(factor * c))
                    groups.setdefault(deg[o], []).append(entry)
            return groups

        o_k = {k: grouped(k, table) for k, table in o_k.items()}
        k_o = {k: grouped(k, table) for k, table in k_o.items()}
        self.out_at: Dict[int, list] = {}
        for j, o in enumerate(out_keys):
            self.out_at.setdefault(deg[o], []).append((j, slot[o]))
        # Column of (k, out_keys[j]) is first_col[k] + j.
        first_col = {k: i * len(out_keys) for i, k in enumerate(w.keys)}
        self.shifts = [deg[o] - deg[k] for k in w.keys for o in out_keys]
        self.units: Dict[int, list] = {t: [] for t in sorted(set(self.shifts))}
        for k1, k2 in sorted(self.pair_list, key=lambda p: min(abs(deg[p[0]]), abs(deg[p[1]]))):
            d1, d2 = deg[k1], deg[k2]
            touched = {d - d1 for d in o_k[k2]}.union(d - d2 for d in k_o[k1])
            s_col = cs = None
            if brackets[k1, k2] is not None:
                s, cs = brackets[k1, k2]
                s_col, cs = first_col[graded(s, k1, k2)], as_scalar(den * scale * cs)
                touched.update(d - d1 - d2 for d in self.out_at)
            unit = (o_k[k2], k_o[k1], d1, d2, first_col[k1], first_col[k2], s_col, cs)
            for t in touched:
                self.units[t].append(unit)

    def rows(self, t: int, unit) -> list:
        """The unit's nonzero rows in block t, by increasing coordinate."""
        o_k, k_o, d1, d2, col1, col2, s_col, cs = unit
        d = t + d1 + d2
        at: List[dict] = [{} for _ in range(self.width[d])]
        if s_col is not None:
            for j, i in self.out_at.get(d, ()):
                at[i][s_col + j] = cs
        for base, group in ((col1, o_k.get(t + d1, ())), (col2, k_o.get(t + d2, ()))):
            for j, i, c in group:
                row = at[i]
                row[base + j] = row.get(base + j, 0) + c
        return [
            row if all(row.values()) else {c: v for c, v in row.items() if v}
            for row in at
            if any(row.values())
        ]

    def residuals(self, t: int, unit, probes) -> list:
        """For each probe, the values of the unit's rows in block t on it."""
        o_k, k_o, d1, d2, col1, col2, s_col, cs = unit
        d = t + d1 + d2
        out = self.out_at.get(d, ()) if s_col is not None else ()
        group1 = o_k.get(t + d1, ())
        group2 = k_o.get(t + d2, ())
        width = self.width[d]
        values = []
        for p in probes:
            r = [0] * width
            for j, i in out:
                r[i] += cs * p[s_col + j]
            for j, i, c in group1:
                r[i] += c * p[col1 + j]
            for j, i, c in group2:
                r[i] += c * p[col2 + j]
            values.append(r)
        return values

    def blocks(self):
        """``(columns, units, rows, residuals)`` of every block, by increasing shift."""
        columns: Dict[int, list] = {t: [] for t in self.units}
        for col, t in enumerate(self.shifts):
            columns[t].append(col)
        for t, units in self.units.items():
            yield tuple(columns[t]), units, partial(self.rows, t), partial(self.residuals, t)


def assemble(alg: AlgebraSpec, delta, w: Window) -> ConstraintSystem:
    """Constraint matrix whose nullspace is the windowed delta-derivation space.

    One unknown per (input key, output key) coefficient; one row per (pair,
    reachable coordinate). Unknown images are zero outside O by fiat, but
    equations are still imposed on every reachable coordinate.

    The rows are every block's equations from ``_GradedEquations``, built in
    full: block by block in increasing shift, and in each block pair by pair.
    ``solve_derivations`` asks the same generator for rows only while a
    block's nullity is above ``TESTED_NULLITY`` and certifies the remaining
    pairs from the tables, so it never builds this matrix;
    ``nullspace(assemble(...).matrix)`` solves it in one elimination and is
    its basis. Column ``i`` is the unknown ``w.columns()[i]``.
    """
    equations = _GradedEquations(alg, as_scalar(delta), w)
    rows: List[Dict[int, int]] = []
    for _, units, build, _ in equations.blocks():
        for unit in units:
            rows.extend(build(unit))
    matrix = RatMatrix.from_rows(rows, len(w.columns()))
    return ConstraintSystem(w, matrix, equations.pair_list)


def _maps_from_vectors(w: Window, vectors) -> List[WindowedMap]:
    columns = w.columns()
    maps = []
    for v in vectors:
        images: Dict[BasisKey, Dict[BasisKey, Scalar]] = {k: {} for k in w.keys}
        for col, value in v.entries.items():
            in_key, out_key = columns[col]
            images[in_key][out_key] = value
        maps.append(WindowedMap(w, {k: SparseVec(img) for k, img in images.items()}))
    return maps


def solve_derivations(alg: AlgebraSpec, w: Window, delta) -> FamilyBasis:
    """Windowed space of delta-derivations, solved block by block on demand.

    The basis is ``nullspace(assemble(alg, delta, w).matrix)``, solved
    without building that matrix: ``exactlin.nullspace_by_blocks`` asks each
    block for the rows of a pair while the block's nullity is above
    ``TESTED_NULLITY`` and, after that, only for the pair's residuals on the
    block's null vectors, read straight from the structure-constant tables.
    """
    equations = _GradedEquations(alg, as_scalar(delta), w)
    vectors = nullspace_by_blocks(equations.blocks())
    return FamilyBasis(w, tuple(_maps_from_vectors(w, vectors)))


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
    """Materializations of the closed-form generators that fit the window,
    without those that vanish on it.

    Witt family: shifts (t >= the record's ``least_shift``). Thin: unit alpha
    and beta generators. Solvable: unit alpha generators. W(a, b): shift and
    e->f generators for b = -1, the identity alone otherwise. The generators
    are chosen for an output window whose lines are index ranges; a window's
    input lies inside its output, so those are all the range windows. On an
    output window with a gap, a generator that escapes raises SupportOverflow.
    """
    generators = _GENERATORS[alg.record.heads[0]]
    candidates = generators(alg, _index_bounds(w.keys, "e"), _index_bounds(w.out_keys, "e"))
    maps = (materialize(op, w) for op in candidates)
    return FamilyBasis(w, tuple(m for m in maps if any(m.image.values())))


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

    ``expected_contained`` checks exact span membership of every expected map
    in the solved space. ``solved_interior_contained`` restricts both sides
    to input keys at least ``interior_margin`` away from the input-window
    boundary and checks the reverse containment there, discarding truncation
    artifacts that live near the boundary.
    """
    if solved.window != expected.window:
        raise ValueError("families must share a window")
    w = solved.window
    columns = w.columns()
    col_index = {col: i for i, col in enumerate(columns)}
    solved_vecs = [m.as_vector(col_index) for m in solved.basis]
    expected_vecs = [m.as_vector(col_index) for m in expected.basis]

    offending = []
    solved_space = RowSpace(solved_vecs)
    expected_contained = True
    for m, v in zip(expected.basis, expected_vecs):
        if not solved_space.contains(v):
            expected_contained = False
            offending.append(("expected", m))

    inner = set(interior_input_keys(w, interior_margin))
    inner_cols = {i for i, (k, _) in enumerate(columns) if k in inner}

    def interior(v: SparseVec) -> SparseVec:
        return SparseVec({i: c for i, c in v.entries.items() if i in inner_cols})

    expected_space = RowSpace(map(interior, expected_vecs))
    solved_interior_contained = True
    restricted_vecs = list(map(interior, solved_vecs))
    for original, v in zip(solved.basis, restricted_vecs):
        if not expected_space.contains(v):
            solved_interior_contained = False
            offending.append(("solved-interior", original))

    return ComparisonReport(
        expected_contained=expected_contained,
        solved_interior_contained=solved_interior_contained,
        interior_margin=interior_margin,
        dim_solved=len(solved.basis),
        dim_expected=span_dim(expected_vecs),
        dim_interior=span_dim(restricted_vecs),
        offending_vectors=tuple(offending),
    )
