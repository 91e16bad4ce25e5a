"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload object is built once per process (that is the set-up) and then
runs any number of passes. ``run_pass(number)`` returns the (start, end)
``perf_counter`` interval of every operation and the raw outputs; ``check`` compares outputs with the references recorded in
``reference.json`` and returns one boolean per operation. Checks run outside
the timed region.

This module imports ``deltader`` and therefore needs ``src`` on the path.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from deltader import acceptance, algebras, cli, dersolve, locality
from deltader.exactlin import SparseVec
from deltader.operators import WindowedMap, window_from_ranges

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# The solve ladder from ROADMAP item 1: (label, algebra, in range, out range).
# wittz has out = 3x in, wab out = 2x in on both lines, thin out = in + 4.
LADDER = (
    ("wittz-9", "wittz", "-4..4", "-12..12"),
    ("wittz-17", "wittz", "-8..8", "-24..24"),
    ("wittz-25", "wittz", "-12..12", "-36..36"),
    ("wittz-33", "wittz", "-16..16", "-48..48"),
    ("wab-14", "wab", "-3..3", "-6..6"),
    ("wab-22", "wab", "-5..5", "-10..10"),
    ("wab-30", "wab", "-7..7", "-14..14"),
    ("thin-10", "thin", "1..10", "1..14"),
    ("thin-20", "thin", "1..20", "1..24"),
    ("thin-30", "thin", "1..30", "1..34"),
    ("solv-8", "solv", "1..8", "1..8"),
    ("solv-30", "solv", "1..30", "1..30"),
)
TOP_RUNG = "wittz-33"
# Nonzero values of a for the wab(a, -1) rungs; every one certifies.
A_VALUES = ("1", "1/2", "2/3", "-3/2", "5/7")

# The verify-all criterion reported as solve_top_s: solve, expected family
# and span comparison on every catalogued algebra, i.e. the `solve` pipeline.
TOP_CRITERION = 3

# Locality families are ladder windows; wab is solved at a = 0, b = -1.
FAMILIES = ("wittz-17", "thin-20", "wab-30", "solv-30")
TOP_FAMILY = "wab-30"
POOL_SIZE = 4000  # queries with a recorded verdict and cost
STREAM_SIZE = 1000  # queries per pass: p99 then has exactly 10 samples beyond it
BLOCKS = POOL_SIZE // STREAM_SIZE  # passes cycle through the seed's blocks
COEFFS = tuple(Fraction(c) for c in ("1", "-1", "2", "1/2", "-3", "3/4", "5", "-2/3"))


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def quiet_main(argv):
    """cli.main with its console output captured; returns the exit code."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _ranges(text: str):
    lo, hi = text.split("..")
    return int(lo), int(hi)


def ladder_a(seed: int) -> str:
    return random.Random(seed).choice(A_VALUES)


def solve_argv(label: str, a: str, json_path: Path) -> list:
    _, alg, lo_hi, out = next(r for r in LADDER if r[0] == label)
    argv = ["solve", "--algebra", alg, "--in", lo_hi, "--out", out, "--json", str(json_path)]
    if alg == "wab":
        argv += ["--a", a, "--b", "-1"]
    return argv


def solve_reference_key(label: str, a: str) -> str:
    return f"{label}@a={a}" if label.startswith("wab") else label


def solve_summary(code: int, report_bytes: bytes) -> dict:
    """The recorded facts of one `deltader solve --json` report."""
    results = json.loads(report_bytes)["results"]
    return {
        "sha256": hashlib.sha256(report_bytes).hexdigest(),
        "dimSolved": results["dimSolved"],
        "dimExpected": results["dimExpected"],
        "dimInterior": results["dimInterior"],
        "certified": code == 0
        and results["expectedContained"]
        and results["solvedInteriorContained"],
    }


def verify_all_summary(code: int, report_bytes: bytes) -> dict:
    criteria = json.loads(report_bytes)["results"]["criteria"]
    return {"exit_code": code, "verdicts": [c["passed"] for c in criteria]}


class SolveLadder:
    """`deltader solve --json` on every ladder rung, one rung per operation."""

    name = "solve-ladder"

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self.a = ladder_a(seed)
        self.labels = [r[0] for r in LADDER]
        self.paths = [workdir / f"{label}.json" for label in self.labels]
        self.argvs = [solve_argv(l, self.a, p) for l, p in zip(self.labels, self.paths)]
        self.expected = [reference["solve"][solve_reference_key(l, self.a)] for l in self.labels]
        self.inputs = {"a": self.a, "rungs": self.labels}

    def run_pass(self, number):
        """Every pass is the same; ``number`` is ignored."""
        intervals, outputs = [], []
        for argv, path in zip(self.argvs, self.paths):
            start = time.perf_counter()
            code = quiet_main(argv)
            intervals.append((start, time.perf_counter()))
            outputs.append((code, path.read_bytes()))
        return intervals, outputs

    def top_latency(self, latencies):
        return latencies[self.labels.index(TOP_RUNG)]

    def check(self, outputs):
        return [solve_summary(*out) == ref for out, ref in zip(outputs, self.expected)]


class VerifyAll:
    """`deltader verify-all --json`, full mode; each criterion is one operation.

    The inputs are fixed, so the seed is ignored. The expected verdict vector
    has criterion 6 red and the exit code 1.
    """

    name = "verify-all"

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self.path = workdir / "verify-all.json"
        self.argv = ["verify-all", "--json", str(self.path)]
        self.expected = reference["verify_all"]
        self.labels = [f"criterion_{i}" for i in range(1, len(acceptance.CRITERIA) + 1)]
        self.inputs = {"argv": self.argv[:-1], "seed": "ignored: verify-all has fixed inputs"}

    def run_pass(self, number):
        """Every pass is the same; ``number`` is ignored."""
        intervals = [(0.0, 0.0)] * len(acceptance.CRITERIA)
        originals = list(acceptance.CRITERIA)

        def timed(i, fn):
            def call(quick=False):
                start = time.perf_counter()
                try:
                    return fn(quick)
                finally:
                    intervals[i] = (start, time.perf_counter())

            return call

        acceptance.CRITERIA[:] = [timed(i, fn) for i, fn in enumerate(originals)]
        try:
            code = quiet_main(self.argv)
        finally:
            acceptance.CRITERIA[:] = originals
        return intervals, (code, self.path.read_bytes())

    def top_latency(self, latencies):
        return latencies[TOP_CRITERION - 1]

    def check(self, output):
        got = verify_all_summary(*output)
        expected = self.expected["verdicts"]
        if got["exit_code"] != self.expected["exit_code"] or len(got["verdicts"]) != len(expected):
            return [False] * len(expected)
        return [g == e for g, e in zip(got["verdicts"], expected)]


def solve_families() -> tuple:
    """Solve the locality families; returns ({label: FamilyBasis}, {label: (start, end)})."""
    families, intervals = {}, {}
    for label in FAMILIES:
        _, name, lo_hi, out = next(r for r in LADDER if r[0] == label)
        alg = algebras.wab(0, -1) if name == "wab" else algebras.AlgebraSpec(name)
        w = window_from_ranges(alg, _ranges(lo_hi), _ranges(out))
        start = time.perf_counter()
        families[label] = dersolve.solve_half_derivations(alg, w)
        intervals[label] = (start, time.perf_counter())
    return families, intervals


def stream_blocks(seed: int, costs) -> list:
    """The seed's split of the pool into BLOCKS passes of STREAM_SIZE queries.

    The pool is sorted by recorded cost and cut into strata of BLOCKS queries
    of like cost. The seed deals each stratum to the blocks in a random order
    and then shuffles every block. Each block is thus a sample of the whole cost
    range, and a block's p99 does not hinge on how many of the few slowest
    queries the seed happened to draw.
    """
    rng = random.Random(seed)
    order = sorted(range(POOL_SIZE), key=lambda i: (costs[i], i))
    blocks = [[] for _ in range(BLOCKS)]
    for start in range(0, POOL_SIZE, BLOCKS):
        stratum = order[start : start + BLOCKS]
        rng.shuffle(stratum)
        for block, index in zip(blocks, stratum):
            block.append(index)
    for block in blocks:
        rng.shuffle(block)
    return blocks


def _element(rng: random.Random, keys) -> SparseVec:
    chosen = rng.sample(keys, rng.randint(1, 3))
    return SparseVec({k: rng.choice(COEFFS) for k in chosen})


def make_query(index: int, families: dict) -> tuple:
    """Pool query ``index``: (family label, candidate, points).

    Even indices take a candidate in the family span (a random combination of
    up to four basis maps), odd ones a random windowed map with one or two
    terms per image. About half of the queries are local (one point), the
    rest 2-local (two points).
    """
    rng = random.Random(f"perfbench-locality-{index}")
    label = rng.choice(FAMILIES)
    family = families[label]
    w = family.window
    if index % 2 == 0:
        picked = rng.sample(range(len(family.basis)), rng.randint(1, 4))
        candidate = family.basis[picked[0]].scaled(rng.choice(COEFFS))
        for k in picked[1:]:
            candidate = candidate + family.basis[k].scaled(rng.choice(COEFFS))
    else:
        out = list(w.out_keys)
        candidate = WindowedMap(w, {k: _element(rng, out) for k in w.keys})
    points = [_element(rng, list(w.keys)) for _ in range(rng.randint(1, 2))]
    return label, candidate, points


def run_query(query, families):
    """Ask the program one query; returns (feasible, params as a dict or None)."""
    label, candidate, points = query
    if len(points) == 1:
        report = locality.local_feasible_at(candidate, points[0], families[label])
    else:
        report = locality.two_local_feasible_at(candidate, *points, families[label])
    return report.feasible, (report.params.entries if report.params is not None else None)


def _apply(image: dict, point: SparseVec) -> dict:
    """sum_k point_k * image[k], with plain dicts of Fractions."""
    out = {}
    for key, coeff in point.entries.items():
        for out_key, value in image[key].entries.items():
            out[out_key] = out.get(out_key, 0) + coeff * value
    return {k: v for k, v in out.items() if v}


def params_match(query, families, params: dict) -> bool:
    """Exact check that sum_k c_k B_k(z) == candidate(z) at every query point."""
    label, candidate, points = query
    basis = families[label].basis
    for z in points:
        total = {}
        for k, c in params.items():
            for out_key, value in _apply(basis[k].image, z).items():
                total[out_key] = total.get(out_key, 0) + c * value
        if {k: v for k, v in total.items() if v} != _apply(candidate.image, z):
            return False
    return True


class LocalityQueries:
    """A seeded stream of local and 2-local feasibility queries.

    The families are solved in set-up. Pass n asks block n mod BLOCKS of the
    seed's split of the pool. Every verdict is compared with the recorded
    pool verdict and every returned parameter vector is checked.
    """

    name = "locality-queries"

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self.families, self.solve_intervals = solve_families()
        self.blocks = stream_blocks(seed, reference["locality"]["costs"])
        self.queries = [make_query(i, self.families) for i in range(POOL_SIZE)]
        self.expected = [v == "1" for v in reference["locality"]["verdicts"]]
        self.inputs = {
            "pool": POOL_SIZE,
            "stream": STREAM_SIZE,
            "blocks": BLOCKS,
            "first": [block[:3] for block in self.blocks],
        }

    def run_pass(self, number):
        intervals, outputs = [], []
        for index in self.blocks[number % BLOCKS]:
            start = time.perf_counter()
            result = run_query(self.queries[index], self.families)
            intervals.append((start, time.perf_counter()))
            outputs.append((index, result))
        return intervals, outputs

    def setup_top_latency(self):
        """The (start, end) interval of the top family's set-up solve."""
        return self.solve_intervals[TOP_FAMILY]

    def check(self, outputs):
        ok = []
        for index, (feasible, params) in outputs:
            good = feasible == self.expected[index]
            if good and feasible:
                good = params is not None and params_match(self.queries[index], self.families, params)
            ok.append(good)
        return ok


WORKLOADS = {w.name: w for w in (SolveLadder, VerifyAll, LocalityQueries)}
