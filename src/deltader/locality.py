"""Pointwise and pairwise feasibility of candidate maps against a family.

A candidate is locally consistent at x when some member of the span of the
family basis agrees with it at x; the 2-local variant demands one member
matching at two points simultaneously. On a window the family is a finite
list of maps, so both questions are exact linear feasibility problems.
Each is asked at one point or pair per call; ``acceptance.confirm`` asks
them over a counterexample's sample and grid.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .algebras import BasisKey, E, F
from .dersolve import FamilyBasis
from .exactlin import SparseVec, as_scalar, solve_feasible
from .operators import Window, WindowTooSmall, evaluate


@dataclass(frozen=True)
class LocalReport:
    """Feasibility of matching the candidate at all points with one family member.

    ``_solve`` holds what the certificate is read from: the solve result,
    the ``(point index, output key)`` label of each row of the solved system
    in row order, and the scale ``d_j`` of each point's rows (see
    ``_match``). It takes no part in equality.
    """

    points: Tuple[SparseVec, ...]
    feasible: bool
    params: Optional[SparseVec] = None
    _solve: Optional[tuple] = field(default=None, compare=False, repr=False)

    @cached_property
    def certificate(self) -> Optional[SparseVec]:
        """The Farkas certificate u of the unscaled system, keyed by
        ``(j, o)`` for point j's equation at output key o: u.A = 0 and
        u.b = 1, zero on every row not solved. Solved on its first read;
        None on a feasible query."""
        if self.feasible or self._solve is None:
            return None
        result, labels, scales = self._solve
        labels = list(labels)
        lifted = {}
        for r, v in result.certificate._entries.items():
            j, o = labels[r]
            lifted[(j, o)] = as_scalar(scales[j] * v)
        return SparseVec._wrap(lifted)


@dataclass(frozen=True)
class AdditivityWitness:
    nonadditive: bool
    lhs: SparseVec  # candidate(x + y)
    rhs: SparseVec  # candidate(x) + candidate(y)


def _window_guard(w: Window, *elements: SparseVec) -> None:
    """Raise WindowTooSmall for an element outside the input window ``w``."""
    keys = w.key_set()
    for el in elements:
        missing = el._entries.keys() - keys
        if missing:
            raise WindowTooSmall(f"element uses {sorted(missing)} outside the family window")


def _match(family: FamilyBasis, points: Sequence[SparseVec], target_at) -> LocalReport:
    """Feasibility of sum_k c_k * basis[k](points[j]) = target_at(points[j])
    for every j with one parameter vector c, for basis = family.basis. A point
    outside the family window raises WindowTooSmall before any target is read.

    There is one augmented row ``[A|b]`` per (point j, output key o), with b
    in column n = len(basis). Rows are read straight from the tabulated
    images: basis[k](z) at key o is sum_i z_i * basis[k](e_i)[o]. Point j's
    equations are scaled on both sides by d_j, the lcm of the denominators of
    z and of its target: c is unchanged, and every entry is an int wherever
    the images are. A Farkas certificate u' is one of the scaled system,
    supported on its inconsistent row prefix; it certifies the unscaled
    system as u_i = d_j * u'_i on point j's rows. An infeasible report keeps
    the solve result with the label (j, o) of each row, in row order, and
    the scales d_j; ``LocalReport.certificate`` solves u' and lifts it by
    that rule when it is first read, and not before.

    Rows are solved in the order their keys are first met. A row whose
    entries cancel keeps its place, as ``{}`` or ``{n: b}``; only a row with
    a zero entry is copied, without it.

    Each point's target is compared with ``family.reach`` before its rows are
    built: a target key o that no image reaches at point j makes row (j, o)
    read 0 = b, inconsistent by itself. The first such row decides the query,
    and its certificate lifts by the same d_j rule.
    """
    _window_guard(family.window, *points)
    basis, reach = family.basis, family.reach
    n = len(basis)
    rows: dict = {}
    scales = []
    for j, (z, target) in enumerate(zip(points, map(target_at, points))):
        d = lcm(*[v.denominator for v in (*z._entries.values(), *target._entries.values())])
        scales.append(d)
        rhs = {o: v.numerator * (d // v.denominator) for o, v in target._entries.items()}
        reached = set().union(*(reach[key] for key in z._entries))
        for o, b in rhs.items():
            if o not in reached:
                result = solve_feasible([{n: b}], n)
                solve = (result, ((j, o),), scales)
                return LocalReport(tuple(points), result.feasible, None, solve)
        terms = [(key, zc.numerator * (d // zc.denominator)) for key, zc in z._entries.items()]
        for k, m in enumerate(basis):
            image = m.image
            for key, zc in terms:
                for o, v in image[key]._entries.items():
                    row = rows.get((j, o))
                    if row is None:
                        rows[(j, o)] = row = {}
                    prev = row.get(k)
                    row[k] = zc * v if prev is None else prev + zc * v
        for o, b in rhs.items():
            rows[(j, o)][n] = b
    system = [
        row if all(row.values()) else {k: v for k, v in row.items() if v} for row in rows.values()
    ]
    result = solve_feasible(system, n)
    solve = (result, rows.keys(), scales)
    return LocalReport(tuple(points), result.feasible, result.solution, solve)


def local_feasible_at(candidate, x: SparseVec, family: FamilyBasis) -> LocalReport:
    """Solve sum_k c_k B_k(x) = candidate(x) for the family maps B_k."""
    return _match(family, (x,), partial(evaluate, candidate))


def two_local_feasible_at(
    candidate, x: SparseVec, y: SparseVec, family: FamilyBasis
) -> LocalReport:
    """One parameter vector across the joint system at x and y."""
    return _match(family, (x, y), partial(evaluate, candidate))


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
    _window_guard(family.window, e_m, e_next)
    probes = (SparseVec({E(m + 1): 1, E(m): -as_scalar(c)}) for c in c_values)
    return [_match(family, (probe,), lambda _: candidate_value_at_next) for probe in probes]


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
    return _match(family, (probe,), lambda _: candidate_value_at_fm)


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
