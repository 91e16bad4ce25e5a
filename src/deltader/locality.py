"""Pointwise and pairwise feasibility of candidate maps against a family.

A candidate is locally consistent at x when some member of the span of the
family basis agrees with it at x; the 2-local variant demands one member
matching at two points simultaneously. On a window the family is a finite
list of maps, so both questions are exact linear feasibility problems.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .algebras import BasisKey, E, F
from .dersolve import FamilyBasis
from .exactlin import RatMatrix, SparseVec, as_scalar, solve_feasible
from .operators import WindowedMap, WindowTooSmall, evaluate


@dataclass(frozen=True)
class LocalReport:
    """Feasibility of matching the candidate at all points with one family member."""

    points: Tuple[SparseVec, ...]
    feasible: bool
    params: Optional[SparseVec] = None


@dataclass(frozen=True)
class AdditivityWitness:
    nonadditive: bool
    lhs: SparseVec  # candidate(x + y)
    rhs: SparseVec  # candidate(x) + candidate(y)


def _window_guard(family: FamilyBasis, *elements: SparseVec) -> None:
    keys = family.window.key_set()
    for el in elements:
        missing = set(el.support()) - keys
        if missing:
            raise WindowTooSmall(f"element uses {sorted(missing)} outside the family window")


def _match_system(basis: Sequence[WindowedMap], points: Sequence[SparseVec], targets: Sequence[SparseVec]):
    """Feasibility of sum_k c_k * basis[k](points[j]) = targets[j] for every j
    with one parameter vector c.

    There is one row per (point, output key). Rows are read straight from the
    tabulated images: basis[k](z) at key o is sum_i z_i * basis[k](e_i)[o].
    """
    rows: dict = {}
    for j, z in enumerate(points):
        terms = z._entries.items()
        for k, m in enumerate(basis):
            image = m.image
            for key, zc in terms:
                for o, v in image[key]._entries.items():
                    row = rows.get((j, o))
                    if row is None:
                        rows[(j, o)] = row = {}
                    prev = row.get(k)
                    row[k] = zc * v if prev is None else prev + zc * v
    rhs = {}
    for j, target in enumerate(targets):
        for o, v in target._entries.items():
            rows.setdefault((j, o), {})
            rhs[(j, o)] = v
    coords = list(rows)
    matrix = RatMatrix(tuple({k: v for k, v in rows[c].items() if v} for c in coords), len(basis))
    b = SparseVec({i: rhs[c] for i, c in enumerate(coords) if c in rhs})
    return solve_feasible(matrix, b)


def local_feasible_at(candidate, x: SparseVec, family: FamilyBasis) -> LocalReport:
    """Solve sum_k c_k B_k(x) = candidate(x) for the family maps B_k."""
    _window_guard(family, x)
    result = _match_system(family.basis, [x], [evaluate(candidate, x)])
    return LocalReport((x,), result.feasible, result.solution)


def check_local(candidate, family: FamilyBasis, elements: Sequence[SparseVec]) -> List[LocalReport]:
    """Per-element local feasibility; consistent on the sample iff all feasible."""
    return [local_feasible_at(candidate, x, family) for x in elements]


def two_local_feasible_at(
    candidate, x: SparseVec, y: SparseVec, family: FamilyBasis
) -> LocalReport:
    """One parameter vector across the joint system at x and y."""
    _window_guard(family, x, y)
    targets = [evaluate(candidate, x), evaluate(candidate, y)]
    result = _match_system(family.basis, [x, y], targets)
    return LocalReport((x, y), result.feasible, result.solution)


def zero_propagation_scan(
    candidate_value_at_next: SparseVec,
    m: int,
    c_values: Sequence,
    family: FamilyBasis,
) -> List[LocalReport]:
    """Feasibility, per c in order, of a single family member matching a map
    that kills e_m and sends e_{m+1} to the given value, probed at e_{m+1} - c*e_m.

    A linear map with those two values sends e_{m+1} - c*e_m to the same
    value for every c, so the scan asks, per c, whether

        sum_k p_k (B_k(e_{m+1}) - c * B_k(e_m)) = value

    has a solution. With finitely supported families, infeasibility across
    the c range certifies that a vanishing image forces the next one to
    vanish too.
    """
    e_m = SparseVec({E(m): 1})
    e_next = SparseVec({E(m + 1): 1})
    _window_guard(family, e_m, e_next)
    reports = []
    for c in c_values:
        c = as_scalar(c)
        probe = SparseVec({E(m + 1): 1, E(m): -c})
        result = _match_system(family.basis, [probe], [candidate_value_at_next])
        reports.append(LocalReport((probe,), result.feasible, result.solution))
    return reports


def wab_f_scan(
    candidate_value_at_fm: SparseVec,
    m: int,
    family: FamilyBasis,
) -> LocalReport:
    """Probe feasibility at x = f_m + e_m + e_k with k = q' - p' + m + 1.

    p' and q' are the f-offset bounds of the candidate value relative to m.
    A linear map vanishing at e_m and e_k and sending f_m to the value sends
    x to the value itself, so feasibility of sum_k c_k B_k(x) = value is the
    probe's verdict; nonzero values are expected to be infeasible.
    """
    offsets = []
    for key in candidate_value_at_fm.support():
        if key.kind != "f":
            raise ValueError("candidate value must be supported on f-keys")
        offsets.append(key.index - m)
    if offsets:
        p_lo, q_hi = min(offsets), max(offsets)
    else:
        p_lo = q_hi = 0
    k = q_hi - p_lo + m + 1
    probe = SparseVec({F(m): 1, E(m): 1, E(k): 1})
    _window_guard(family, probe)
    result = _match_system(family.basis, [probe], [candidate_value_at_fm])
    return LocalReport((probe,), result.feasible, result.solution)


def certify_nonadditive(candidate, x: SparseVec, y: SparseVec) -> AdditivityWitness:
    """Compare candidate(x + y) with candidate(x) + candidate(y) exactly."""
    lhs = evaluate(candidate, x + y)
    rhs = evaluate(candidate, x) + evaluate(candidate, y)
    return AdditivityWitness(lhs != rhs, lhs, rhs)


# The shape of ``deterministic_sample``, which the locality goldens pin.
SAMPLE_PAIR_BOX = 6
SAMPLE_EXTRA_TERMS = 5
SAMPLE_SEED = 2024


def deterministic_sample(window_keys: Sequence[BasisKey]) -> List[SparseVec]:
    """Reproducible sample: every window key, pairwise sums in a sub-box, and
    a seeded batch of 3-term combinations with small coefficients."""
    keys = sorted(window_keys)
    sample = [SparseVec({k: 1}) for k in keys]
    box = keys[:SAMPLE_PAIR_BOX]
    for k1, k2 in itertools.combinations(box, 2):
        sample.append(SparseVec({k1: 1, k2: 1}))
    rng = random.Random(SAMPLE_SEED)
    coeffs = [1, 2, -1, Fraction(1, 2), 3]
    for _ in range(SAMPLE_EXTRA_TERMS):
        chosen = rng.sample(keys, min(3, len(keys)))
        sample.append(SparseVec({k: rng.choice(coeffs) for k in chosen}))
    return sample
