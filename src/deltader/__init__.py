"""Exact-arithmetic engine for delta-derivation spaces of graded Lie algebras
on finite index windows, with local and 2-local feasibility checks."""

from .algebras import (
    AlgebraSpec,
    BasisKey,
    E,
    F,
    KeyOutOfDomain,
    bracket,
    bracket_vec,
    degree,
    in_domain,
    solv_abelian,
    thin,
    wab,
    witt_one_sided,
    witt_pos,
    witt_z,
)
from .dersolve import (
    ComparisonReport,
    ConstraintSystem,
    FamilyBasis,
    assemble,
    check_delta_derivation,
    compare_families,
    derivation_pairs,
    expected_family,
    find_violation_witness,
    interior_input_keys,
    solve_derivations,
    solve_half_derivations,
)
from .exactlin import (
    LinearSolveResult,
    RatMatrix,
    Scalar,
    SparseVec,
    nullspace,
    solve_feasible,
)
from .locality import (
    AdditivityWitness,
    LocalReport,
    certify_nonadditive,
    check_local,
    deterministic_sample,
    local_feasible_at,
    two_local_feasible_at,
    wab_f_scan,
    zero_propagation_scan,
)
from .operators import (
    KeyOutsideWindow,
    ShiftOp,
    SolvDeltaBar,
    SolvHalfDer,
    SupportOverflow,
    ThinHalfDer,
    ThinLocalDelta,
    ThinNabla,
    WabHalfDer,
    Window,
    WindowTooSmall,
    WindowedMap,
    evaluate,
    materialize,
    window,
    window_from_ranges,
)

__version__ = "0.1.0"
