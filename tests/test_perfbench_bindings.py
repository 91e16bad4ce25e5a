"""The benchmark's tracer binds deltader functions by name at import time.

``perfbench/tracing.py`` lists every traced function (``TRACED``) and every
counted one (``COUNTED``) under a ``module.function`` name. A refactor that
deletes or renames one of them, or changes what one returns under the
tracer's observers, breaks the benchmark; these tests fail first.
"""

import importlib
import sys
from pathlib import Path

from deltader.algebras import witt_z
from deltader.dersolve import HALF, assemble
from deltader.exactlin import nullspace
from deltader.operators import window_from_ranges

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_and_counted_functions_are_callable():
    tracing = _tracing()
    bound = [(name, fn) for name, fn, _ in tracing.TRACED] + list(tracing.COUNTED)
    for name, fn in bound:
        module, attr = name.split(".")
        assert callable(fn), name
        assert getattr(importlib.import_module(f"deltader.{module}"), attr) is fn, name


def test_observers_read_what_the_bound_functions_return():
    tracing = _tracing()
    alg = witt_z()
    w = window_from_ranges(alg, (-2, 2), (-4, 4))
    system = assemble(alg, HALF, w)
    basis = nullspace(system.matrix)
    phase = tracing.Phase()
    tracing._observe_assemble(phase, (alg, HALF, w), system)
    tracing._observe_nullspace(phase, (system.matrix,), basis)
    assert phase.counts["dersolve.assemble.rows"] == system.matrix.nrows > 0
    assert phase.counts["dersolve.assemble.cols"] == len(w.columns()) == 5 * 9
    assert phase.counts["dersolve.assemble.nnz"] > system.matrix.nrows
    assert phase.counts["exactlin.nullspace.rows"] == system.matrix.nrows
    assert phase.counts["exactlin.nullspace.rank"] == system.matrix.ncols - len(basis)
    assert len(basis) == 5  # the shifts -2..2
    assert phase.max_bits >= 1
