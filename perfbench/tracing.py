"""Spans and counters around deltader's public functions, from outside.

``Tracer.install`` rebinds every name under which a traced function is
reachable in the deltader modules (its definition and each import site),
plus the ``acceptance.CRITERIA`` entries and ``WindowedMap.evaluate``, and
``Tracer.remove`` puts the originals back. Spans are (name, start, end,
parent) tuples kept in memory per phase and written out when the run ends.
Counter work happens after a span closes, so it lands in the parent's self
time, never in that span.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from deltader import acceptance, algebras, cli, dersolve, exactlin, literals, locality, operators

MODULES = (
    sys.modules["deltader"],
    acceptance,
    algebras,
    cli,
    dersolve,
    exactlin,
    literals,
    locality,
    operators,
)


@dataclass
class Phase:
    """Spans and counters of one stretch of a run: set-up or one pass."""

    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    max_bits: int = 0
    solve_keys: set = field(default_factory=set)


def _observe_assemble(phase, args, system):
    phase.counts["dersolve.assemble.rows"] += system.matrix.nrows
    phase.counts["dersolve.assemble.cols"] += system.matrix.ncols
    phase.counts["dersolve.assemble.nnz"] += sum(len(r) for r in system.matrix.rows)


def _observe_nullspace(phase, args, basis):
    matrix = args[0]
    phase.counts["exactlin.nullspace.rows"] += matrix.nrows
    phase.counts["exactlin.nullspace.rank"] += matrix.ncols - len(basis)
    for v in basis:
        for value in v.entries.values():
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
            phase.max_bits = max(phase.max_bits, bits)


def _observe_solve(phase, args, family):
    phase.solve_keys.add((args[0], args[1]))


def _observe_feasible(phase, args, result):
    phase.counts["exactlin.solve_feasible.infeasible"] += not result.feasible


def _observe_locality(phase, args, report):
    phase.counts["locality.feasible"] += report.feasible


# (span name, function, observer): every public function traced with a span.
TRACED = [
    ("cli.main", cli.main, None),
    ("dersolve.solve_half_derivations", dersolve.solve_half_derivations, _observe_solve),
    ("dersolve.assemble", dersolve.assemble, _observe_assemble),
    ("exactlin.nullspace", exactlin.nullspace, _observe_nullspace),
    ("dersolve.expected_family", dersolve.expected_family, None),
    ("dersolve.compare_families", dersolve.compare_families, None),
    ("dersolve.check_delta_derivation", dersolve.check_delta_derivation, None),
    ("locality.local_feasible_at", locality.local_feasible_at, _observe_locality),
    ("locality.two_local_feasible_at", locality.two_local_feasible_at, _observe_locality),
    ("exactlin.solve_feasible", exactlin.solve_feasible, _observe_feasible),
    ("operators.evaluate", operators.evaluate, None),
    ("literals.format_element", literals.format_element, None),
] + [
    (f"acceptance.criterion_{i}", fn, None) for i, fn in enumerate(acceptance.CRITERIA, start=1)
]
# Counted without a span: hundreds of thousands of calls per verify-all.
COUNTED = [("algebras.bracket", algebras.bracket)]


class Tracer:
    def __init__(self):
        self.phases: list = []
        self.phase = Phase()
        self._stack: list = []
        self._undo: list = []
        self._criteria: list = []

    def begin_phase(self) -> Phase:
        self.phase = Phase()
        self.phases.append(self.phase)
        return self.phase

    def _span(self, name, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            phase, stack = tracer.phase, tracer._stack
            sid = len(phase.spans)
            phase.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                phase.spans[sid] = (name, start, end, parent)
            if observe is not None:
                observe(phase, args, result)
            return result

        return traced

    def _counter(self, name, fn):
        tracer = self
        key = f"{name}.calls"

        def counted(*args, **kwargs):
            tracer.phase.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, original, wrapper):
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        self._criteria = criteria = list(acceptance.CRITERIA)
        for name, fn, observe in TRACED:
            wrapper = self._span(name, fn, observe)
            self._rebind(fn, wrapper)
            if fn in criteria:
                acceptance.CRITERIA[criteria.index(fn)] = wrapper
        for name, fn in COUNTED:
            self._rebind(fn, self._counter(name, fn))
        method = operators.WindowedMap.evaluate
        operators.WindowedMap.evaluate = self._span("WindowedMap.evaluate", method, None)
        self._undo.append((operators.WindowedMap, "evaluate", method))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        acceptance.CRITERIA[:] = self._criteria

    def write(self, path) -> None:
        """Write every phase's spans as [name index, start ns, end ns, parent index]."""
        names = sorted({span[0] for phase in self.phases for span in phase.spans})
        index = {name: i for i, name in enumerate(names)}
        origin = min((p.spans[0][1] for p in self.phases if p.spans), default=0.0)

        def ns(t):
            return round((t - origin) * 1e9)

        phases = [
            [[index[name], ns(start), ns(end), parent] for name, start, end, parent in p.spans]
            for p in self.phases
        ]
        path.write_text(json.dumps({"names": names, "phases": phases}, separators=(",", ":")))


SPAN_NAMES = [name for name, _, _ in TRACED] + ["WindowedMap.evaluate"]
SELF_TIMED = ("cli.main", "dersolve.solve_half_derivations")

# Every per-layer metric and its unit, in report order.
LAYER_UNITS = {
    "dersolve.assemble.s": "s",
    "dersolve.assemble.calls": "count",
    "dersolve.assemble.rows": "count",
    "dersolve.assemble.cols": "count",
    "dersolve.assemble.nnz": "count",
    "exactlin.nullspace.s": "s",
    "exactlin.nullspace.calls": "count",
    "exactlin.nullspace.rank": "count",
    "exactlin.nullspace.useful_row_ratio": "ratio",
    "exactlin.nullspace.max_bits": "bits",
    "dersolve.solve_half_derivations.self_s": "s",
    "dersolve.solve_half_derivations.calls": "count",
    "dersolve.solve_half_derivations.distinct_ratio": "ratio",
    "dersolve.expected_family.s": "s",
    "dersolve.compare_families.s": "s",
    "dersolve.check_delta_derivation.s": "s",
    "algebras.bracket.calls": "count",
    **{f"acceptance.criterion_{i}.s": "s" for i in range(1, 11)},
    "locality.local_feasible_at.s": "s",
    "locality.local_feasible_at.calls": "count",
    "locality.two_local_feasible_at.s": "s",
    "locality.two_local_feasible_at.calls": "count",
    "locality.feasible_ratio": "ratio",
    "exactlin.solve_feasible.s": "s",
    "exactlin.solve_feasible.calls": "count",
    "exactlin.solve_feasible.infeasible": "count",
    "operators.evaluate.s": "s",
    "operators.evaluate.calls": "count",
    "WindowedMap.evaluate.s": "s",
    "WindowedMap.evaluate.calls": "count",
    "cli.main.self_s": "s",
    "literals.format_element.s": "s",
    "literals.format_element.calls": "count",
    "tracing.overhead_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(phases) -> dict:
    """Per-layer metrics of the given phases taken together.

    ``.s`` is inclusive span time, ``.self_s`` is span time minus the time its
    direct child spans cover. ``tracing.overhead_s`` is filled in by the caller.
    """
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    counts = Counter()
    max_bits = 0
    solve_keys = set()
    for phase in phases:
        child_time = defaultdict(float)
        for name, start, end, parent in phase.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for sid, (name, start, end, parent) in enumerate(phase.spans):
            total[name] += end - start
            own[name] += end - start - child_time[sid]
            calls[name] += 1
        counts.update(phase.counts)
        max_bits = max(max_bits, phase.max_bits)
        solve_keys |= phase.solve_keys
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.s"] = total[name]
        metrics[f"{name}.calls"] = calls[name]
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = own[name]
    metrics.update(counts)
    solves = calls["dersolve.solve_half_derivations"]
    metrics["dersolve.solve_half_derivations.distinct_ratio"] = _ratio(len(solve_keys), solves)
    metrics["exactlin.nullspace.useful_row_ratio"] = _ratio(
        counts["exactlin.nullspace.rank"], counts["exactlin.nullspace.rows"]
    )
    metrics["exactlin.nullspace.max_bits"] = max_bits
    feasibility = calls["locality.local_feasible_at"] + calls["locality.two_local_feasible_at"]
    metrics["locality.feasible_ratio"] = _ratio(counts["locality.feasible"], feasibility)
    return {name: metrics.get(name, 0) for name in LAYER_UNITS if name != "tracing.overhead_s"}


def is_counter(name: str) -> bool:
    return LAYER_UNITS[name] != "s"


def summarize(per_pass: list) -> tuple:
    """Per-layer metrics over traced passes, and the counters that differ.

    Times are medians; counters must repeat exactly, so the first pass's
    value stands and any counter that differs between passes is named.
    """
    first = per_pass[0]
    merged, unstable = {}, []
    for name in first:
        values = [m[name] for m in per_pass]
        if is_counter(name):
            merged[name] = first[name]
            if len(set(values)) > 1:
                unstable.append(name)
        else:
            merged[name] = statistics.median(values)
    return merged, unstable
