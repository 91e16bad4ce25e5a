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
from typing import Dict, List, Optional, Sequence, Tuple

from .algebras import AlgebraSpec, BasisKey, bracket, bracket_term, bracket_vec, degree
from .exactlin import (
    RatMatrix,
    RowSpace,
    SparseVec,
    as_scalar,
    int_if_integral,
    nullspace,
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
    SupportOverflow,
    evaluate,
    materialize,
)

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ConstraintSystem:
    """Linearized delta-derivation conditions on a window."""

    window: Window
    delta: Fraction
    unknown_index: Dict[Tuple[BasisKey, BasisKey], int]
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
    """Result of comparing a solved family with a closed-form family."""

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
    delta = as_scalar(delta)
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
    """First pair (in canonical order) of search keys with nonzero residual.

    Pairs whose residual cannot be evaluated on the candidate's window are
    skipped; closed-form operators are evaluable everywhere.
    """
    for k1, k2 in itertools.combinations(sorted(set(search_keys)), 2):
        try:
            residual = residual_at(alg, candidate, delta, k1, k2)
        except KeyOutsideWindow:
            continue
        if residual:
            return (k1, k2), residual
    return None


def assemble(alg: AlgebraSpec, delta, w: Window) -> ConstraintSystem:
    """Constraint matrix whose nullspace is the windowed delta-derivation space.

    One unknown per (input key, output key) coefficient; one row per (pair,
    reachable coordinate). Unknown images are zero outside O by fiat, but
    equations are still imposed on every reachable coordinate.

    With ``delta = num/den`` each row is ``den`` times the equation, i.e.
    ``den*phi([x, y]) - num*([phi(x), y] + [x, phi(y)])``: the nullspace is
    unchanged and the entries are ints whenever the structure constants are.

    Every catalogued algebra is graded, so the row of (x, y) at coordinate
    z only touches unknowns (k, o) of shift deg o - deg k = deg z - deg x -
    deg y. Rows are emitted block by block, one block per shift in
    increasing order, recorded as ``matrix.blocks``; within a block, pairs
    come in order of ``min(|deg x|, |deg y|)`` so that the pairs with a
    generator come first, and then in canonical order.
    """
    delta = as_scalar(delta)
    num, den = delta.numerator, delta.denominator
    columns = w.columns()
    unknown_index = {col: i for i, col in enumerate(columns)}
    pair_list = tuple(derivation_pairs(alg, w.keys))
    out_keys = w.out_keys
    # Column of (k, out_keys[j]) is first_col[k] + j; its shift is shift[col].
    first_col = {k: i * len(out_keys) for i, k in enumerate(w.keys)}
    deg = {k: degree(alg, k) for k in out_keys}
    shift = [deg[o] - deg[k] for k in w.keys for o in out_keys]
    by_shift: Dict[int, list] = {t: [] for t in sorted(set(shift))}

    def scaled(term, factor):
        """A bracket term times ``factor`` as (coordinate, int or Fraction)."""
        if term is None:
            return None
        key, coeff = term
        return key, int_if_integral(factor * coeff)

    # -num*[o, k] and -num*[k, o] over the output keys o, bracketed once per
    # input key k that needs them rather than once per pair.
    seconds = {k2 for _, k2 in pair_list}
    firsts = {k1 for k1, _ in pair_list}
    o_k = {k: [scaled(bracket_term(alg, o, k), -num) for o in out_keys] for k in seconds}
    k_o = {k: [scaled(bracket_term(alg, k, o), -num) for o in out_keys] for k in firsts}

    for k1, k2 in sorted(pair_list, key=lambda p: min(abs(deg[p[0]]), abs(deg[p[1]]))):
        at: Dict[BasisKey, Dict[int, object]] = {}
        term = bracket_term(alg, k1, k2)
        if term is not None:
            s, cs = term
            cs = int_if_integral(den * cs)
            at = {coord: {col: cs} for col, coord in enumerate(out_keys, first_col[s])}
        col1, col2 = first_col[k1], first_col[k2]
        # [phi(k1), k2] puts -num*[o, k2] in column (k1, o) and
        # [k1, phi(k2)] puts -num*[k1, o] in column (k2, o).
        for at_k1, at_k2 in zip(o_k[k2], k_o[k1]):
            if at_k1 is not None:
                coord, t = at_k1
                row = at.setdefault(coord, {})
                row[col1] = row.get(col1, 0) + t
            if at_k2 is not None:
                coord, t = at_k2
                row = at.setdefault(coord, {})
                row[col2] = row.get(col2, 0) + t
            col1 += 1
            col2 += 1
        for coord in sorted(at):
            row = at[coord]
            if not all(row.values()):
                row = {c: v for c, v in row.items() if v}
            if row:
                by_shift[shift[next(iter(row))]].append(row)
    block_columns: Dict[int, list] = {t: [] for t in by_shift}
    for col, t in enumerate(shift):
        block_columns[t].append(col)
    rows: List[Dict[int, object]] = []
    blocks = []
    for t, block_rows in by_shift.items():
        blocks.append((tuple(block_columns[t]), len(rows), len(rows) + len(block_rows)))
        rows.extend(block_rows)
    matrix = RatMatrix.from_rows(rows, len(columns), tuple(blocks))
    return ConstraintSystem(w, delta, unknown_index, matrix, pair_list)


def _maps_from_nullspace(system: ConstraintSystem) -> List[WindowedMap]:
    columns = system.window.columns()
    maps = []
    for v in nullspace(system.matrix):
        images: Dict[BasisKey, Dict[BasisKey, Fraction]] = {k: {} for k in system.window.keys}
        for col, value in v.entries.items():
            in_key, out_key = columns[col]
            images[in_key][out_key] = value
        maps.append(
            WindowedMap(system.window, {k: SparseVec(img) for k, img in images.items()})
        )
    return maps


def solve_half_derivations(alg: AlgebraSpec, w: Window) -> FamilyBasis:
    """Windowed space of half-derivations: nullspace of the assembled system."""
    system = assemble(alg, HALF, w)
    return FamilyBasis(w, tuple(_maps_from_nullspace(system)))


def _index_bounds(keys: Sequence[BasisKey], kind: str) -> Optional[Tuple[int, int]]:
    indices = [k.index for k in keys if k.kind == kind]
    if not indices:
        return None
    return min(indices), max(indices)


def expected_family(alg: AlgebraSpec, w: Window) -> FamilyBasis:
    """Materializations of the closed-form generators that fit the window.

    Witt family: shifts (t >= 0 on one-sided domains). Thin: unit alpha and
    beta generators. Solvable: unit alpha generators. W(a, b): shift and
    e->f generators for b = -1, the identity alone otherwise.
    """
    in_e = _index_bounds(w.keys, "e")
    out_e = _index_bounds(w.out_keys, "e")
    candidates = []
    if alg.name in ("wittz", "wittpos", "witt1"):
        t_lo = out_e[0] - in_e[1]
        t_hi = out_e[1] - in_e[0]
        if alg.name in ("wittpos", "witt1"):
            t_lo = max(t_lo, 0)
        candidates = [ShiftOp(t, Fraction(1), alg) for t in range(t_lo, t_hi + 1)]
    elif alg.name == "wab":
        if alg.b == -1:
            t_lo = out_e[0] - in_e[1]
            t_hi = out_e[1] - in_e[0]
            candidates = [WabHalfDer(alpha={t: 1}) for t in range(t_lo, t_hi + 1)]
            candidates += [WabHalfDer(beta={t: 1}) for t in range(t_lo, t_hi + 1)]
        else:
            candidates = [WabHalfDer(alpha={0: 1})]
    elif alg.name == "thin":
        candidates = [ThinHalfDer(alpha=tuple([0] * (k - 1) + [1])) for k in range(1, out_e[1] + 1)]
        candidates += [
            ThinHalfDer(beta=tuple([0] * (i - 2) + [1])) for i in range(2, out_e[1] + 1)
        ]
    elif alg.name == "solv":
        candidates = [SolvHalfDer(alpha=tuple([0] * (k - 1) + [1])) for k in range(1, out_e[1] + 1)]
    basis = []
    for op in candidates:
        try:
            basis.append(materialize(op, w))
        except SupportOverflow:
            continue
    return FamilyBasis(w, tuple(basis))


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
    col_index = {col: i for i, col in enumerate(w.columns())}
    solved_vecs = [m.as_vector(col_index) for m in solved.basis]
    expected_vecs = [m.as_vector(col_index) for m in expected.basis]

    offending = []
    solved_space = RowSpace(solved_vecs)
    expected_contained = True
    for m, v in zip(expected.basis, expected_vecs):
        if not solved_space.contains(v):
            expected_contained = False
            offending.append(("expected", m))

    inner = interior_input_keys(w, interior_margin)
    inner_cols = {col: i for i, col in enumerate(Window(inner, w.out_keys).columns())}
    expected_space = RowSpace(m.as_vector(inner_cols, inner) for m in expected.basis)
    solved_interior_contained = True
    restricted_vecs = [m.as_vector(inner_cols, inner) for m in solved.basis]
    for original, v in zip(solved.basis, restricted_vecs):
        if not expected_space.contains(v):
            solved_interior_contained = False
            offending.append(("solved-interior", original))

    return ComparisonReport(
        expected_contained=expected_contained,
        solved_interior_contained=solved_interior_contained,
        interior_margin=interior_margin,
        dim_solved=len(solved.basis),
        dim_expected=len(expected.basis),
        dim_interior=span_dim(restricted_vecs),
        offending_vectors=tuple(offending),
    )
