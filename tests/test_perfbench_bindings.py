"""The benchmark's tracer binds deltader functions by name at import time.

``perfbench/tracing.py`` lists every traced function (``TRACED``) and every
counted one (``COUNTED``) under a ``module.function`` name. A refactor that
deletes or renames one of them breaks the benchmark; this test fails first.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_and_counted_functions_are_callable():
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))
    bound = [(name, fn) for name, fn, _ in tracing.TRACED] + list(tracing.COUNTED)
    for name, fn in bound:
        module, attr = name.split(".")
        assert callable(fn), name
        assert getattr(importlib.import_module(f"deltader.{module}"), attr) is fn, name
