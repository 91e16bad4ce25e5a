"""Record the outputs every benchmark run is checked against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes perfbench/reference.json: the facts of each ladder solve report (for
every value of a on the wab rungs), the verify-all verdict vector and exit
code, and the verdict and cost of every locality pool query. Run it only on a commit
whose outputs are known good; the benchmark then holds later commits to them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads as wl


def record_solves(workdir: Path) -> dict:
    solves = {}
    for label, alg, _, _ in wl.LADDER:
        for a in wl.A_VALUES if alg == "wab" else wl.A_VALUES[:1]:
            path = workdir / "solve.json"
            code = wl.quiet_main(wl.solve_argv(label, a, path))
            summary = wl.solve_summary(code, path.read_bytes())
            if not summary["certified"]:
                raise SystemExit(f"{label} a={a} does not certify")
            solves[wl.solve_reference_key(label, a)] = summary
    return solves


def record_verify_all(workdir: Path) -> dict:
    path = workdir / "verify-all.json"
    return wl.verify_all_summary(wl.quiet_main(["verify-all", "--json", str(path)]), path.read_bytes())


def counted(fn, *args):
    """(fn(*args), number of Python function calls it made)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def record_locality() -> dict:
    """Verdict and cost of every pool query.

    The cost is the number of Python function calls the query makes, a
    deterministic stand-in for its time; wl.stream_blocks stratifies by it.
    """
    families, _ = wl.solve_families()
    bits, costs = [], []
    for index in range(wl.POOL_SIZE):
        query = wl.make_query(index, families)
        (feasible, params), cost = counted(wl.run_query, query, families)
        costs.append(cost)
        if feasible and not wl.params_match(query, families, params):
            raise SystemExit(f"pool query {index}: parameters do not reproduce the candidate")
        if index % 2 == 0 and not feasible:
            raise SystemExit(f"pool query {index}: a candidate in the span is infeasible")
        bits.append("1" if feasible else "0")
    return {"pool": wl.POOL_SIZE, "verdicts": "".join(bits), "costs": costs}


def main() -> int:
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        reference = {
            "solve": record_solves(Path(tmp)),
            "verify_all": record_verify_all(Path(tmp)),
            "locality": record_locality(),
        }
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    verdicts = reference["locality"]["verdicts"]
    print(f"wrote {wl.REFERENCE_PATH}: {len(reference['solve'])} solves, "
          f"verify-all {reference['verify_all']}, locality feasible {verdicts.count('1')}/{len(verdicts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
