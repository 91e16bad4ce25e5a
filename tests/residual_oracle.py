"""The delta-derivation residual written from its definition, on ``SparseVec``s.

``dersolve.check_delta_derivation`` sums each pair's residual on ints from
the structure constants; this module evaluates the three images of every
pair, brackets them as vectors and scales by ``delta`` in exact rationals.
It shares no code with that check beyond ``bracket`` (the check reads
images with ``value_at``, this module with ``operators.evaluate``), and the
tests hold the check, and the solver's equations, against it.
"""

from deltader.algebras import BasisKey, bracket, bracket_term
from deltader.exactlin import SparseVec
from deltader.operators import evaluate


def bracket_vec(alg, v: SparseVec, w: SparseVec) -> SparseVec:
    """Bilinear extension of ``bracket`` to sparse vectors."""
    out: dict = {}
    for k1, c1 in v.items():
        for k2, c2 in w.items():
            term = bracket_term(alg, k1, k2)
            if term is not None:
                key, coeff = term
                out[key] = out.get(key, 0) + coeff * c1 * c2
    return SparseVec(out)


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
