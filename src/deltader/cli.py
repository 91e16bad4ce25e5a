"""Command-line interface.

Subcommands: solve, check-map, local, two-local, counterexamples, verify-all.
Reports are emitted as JSON (schemaVersion "1") and are byte-identical across
repeated runs with the same configuration; wall-clock timing goes to stderr
and the report's timing field stays 0 to keep files reproducible.

Exit codes: 0 pass, 1 property failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from functools import cache, partial
from pathlib import Path
from typing import List, Optional

from . import acceptance, algebras, dersolve
from .algebras import AlgebraSpec, KeyOutOfDomain, require_in_domain
from .dersolve import HALF, check_delta_derivation, derivation_pairs, solve_half_derivations
from .literals import (
    ParseError,
    ResultTooLong,
    format_element,
    format_operator,
    format_scalar,
    format_terms,
    parse_element,
    parse_operator,
    parse_range,
    parse_scalar,
)
from .locality import _window_guard, deterministic_sample, local_feasible_at, two_local_feasible_at
from .operators import WindowTooSmall, materialize, window_from_ranges

TSV_HEADER = "algebra\ta\tb\t|I|\t|O|\tdimSolved\tdimInterior"


class CliError(Exception):
    """Configuration problem surfaced with exit code 2."""


def _read_config(path: str) -> list:
    if not path:
        raise CliError("--config path is empty")
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte, or not UTF-8
        raise CliError(f"cannot read config {path}: {exc}") from None
    config = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        config.append((key.strip(), value.strip()))
    return config


def _config_actions(parser: argparse.ArgumentParser) -> dict:
    """Config key -> argparse action of a subcommand.

    A key is an option's name without its dashes (``in``, ``json``) or its
    destination (``in_range``, ``json_path``); ``-`` and ``_`` are alike.
    """
    actions = {}
    for action in parser._actions:
        if not action.option_strings or action.dest in ("help", "config"):
            continue
        for name in [action.dest] + [opt.lstrip("-") for opt in action.option_strings]:
            actions[name.replace("-", "_")] = action
    return actions


def _merge_config(args: argparse.Namespace, config: list, parser: argparse.ArgumentParser) -> None:
    """Fill unset flags from the config file's (key, value) pairs; flags always win.

    Keys must name an option of the subcommand, each option once, and values
    go through the option's type and choices as a flag's would; anything else
    is a CliError.
    """
    actions = _config_actions(parser)
    given = {}
    for key, text in config:
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise CliError(
                f"unknown config key {key!r} for {args.command}; "
                f"expected one of {', '.join(sorted(actions))}"
            )
        if action.dest in given:
            first = given[action.dest]
            raise CliError(f"config sets {action.option_strings[0]} twice: {first!r}, then {key!r}")
        given[action.dest] = key
        try:
            value = action.type(text) if action.type else text
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            raise CliError(f"config key {key!r}: invalid value {text!r}") from None
        if action.choices is not None and value not in action.choices:
            raise CliError(
                f"config key {key!r}: {text!r} is not one of {', '.join(action.choices)}"
            )
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, value)


def _algebra_from(args) -> AlgebraSpec:
    if args.algebra is None:
        raise CliError("--algebra is required")
    a, b = (None if text is None else parse_scalar(text) for text in (args.a, args.b))
    try:
        return AlgebraSpec(args.algebra, a, b)
    except ValueError as exc:
        raise CliError(str(exc)) from None


# The most unknowns, |I|*|O| coefficients, that a command's window may have.
# ``solve --algebra wittz`` takes 0.10 s at 3,201 unknowns (``-16..16/-48..48``),
# 0.40 s at 12,545, 1.2 s at 28,033 and 3.1 s at 49,665 (``-64..64/-192..192``)
# on a 2-vCPU VM under CPython 3.11, growing as about the 1.6th power, so a
# window at the cap solves in about 10 s. The largest window that the suite or
# the benchmark ladder solves has 3,201.
MAX_UNKNOWNS = 100_000


def _window_from(args, alg: AlgebraSpec):
    """The window of ``--in``/``--out``, refused before any key is built when
    it would have more than ``MAX_UNKNOWNS`` unknowns."""
    if args.in_range is None:
        raise CliError("--in lo..hi is required")
    in_range = parse_range(args.in_range)
    out_range = parse_range(args.out_range) if args.out_range is not None else in_range
    lines = len(alg.record.lines)
    unknowns = lines * max(0, in_range[1] - in_range[0] + 1) * lines * max(0, out_range[1] - out_range[0] + 1)
    if unknowns > MAX_UNKNOWNS:
        # a bound may have thousands of digits, more than str() prints
        size = str(unknowns) if unknowns < 10**18 else f"about 10^{int(math.log10(unknowns))}"
        raise CliError(f"window too large: {size} unknowns (|I|*|O|) over the cap of {MAX_UNKNOWNS}")
    try:
        return window_from_ranges(alg, in_range, out_range)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _check_outputs(args) -> None:
    """Raise CliError unless every ``--json``/``--tsv`` path can be written,
    and no two, nor one and the ``--config`` file, name one file, before any
    is: a command exiting 2 writes none, and no report replaces its config."""
    config = getattr(args, "config", None)
    config = os.path.realpath(config) if config else None
    written = set()
    for flag, dest in (("--json", "json_path"), ("--tsv", "tsv_path")):
        path = getattr(args, dest, None)
        if path is None:
            continue
        if not path:
            raise CliError(f"{flag} path is empty")
        if "\0" in path:
            raise CliError(f"cannot write {path!r}: embedded null byte")
        target = Path(path)
        if target.is_dir():
            raise CliError(f"cannot write {path}: Is a directory")
        if not target.parent.is_dir():
            raise CliError(f"cannot write {path}: No such directory {str(target.parent)!r}")
        if not os.access(target if target.exists() else target.parent, os.W_OK):
            raise CliError(f"cannot write {path}: Permission denied")
        real = os.path.realpath(path)
        if real == config:
            raise CliError(f"{flag} and --config both name {path}")
        if real in written:
            raise CliError(f"--json and --tsv both name {path}")
        written.add(real)


def _tsv_row(alg: AlgebraSpec, w, report) -> tuple:
    """The dimensions TSV row of a comparison on a window."""
    return alg.name, alg.a, alg.b, len(w.keys), len(w.out_keys), report.dim_solved, report.dim_interior


def _tsv_text(rows) -> str:
    """The dimensions TSV: one row per (algebra, a, b, |I|, |O|, dimSolved,
    dimInterior), with ``-`` for a parameter the algebra lacks."""
    lines = [TSV_HEADER] + ["\t".join("-" if c is None else str(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def _serialize_witness(witness) -> Optional[dict]:
    """A violation witness as pair and residual; None when there is none."""
    if witness is None:
        return None
    (k1, k2), residual = witness
    return {"pair": [str(k1), str(k2)], "residual": format_element(residual)}


def _write_report(args, command: str, inputs: dict, results: dict) -> dict:
    report = {
        "schemaVersion": "1",
        "command": command,
        "inputsEcho": inputs,
        "results": results,
        "timing": 0,
    }
    if getattr(args, "json_path", None) is not None:
        Path(args.json_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


# Echoed flag -> the canonical text of its value; an operator literal is echoed as typed.
_ECHOED = {
    "in_range": lambda text: "{}..{}".format(*parse_range(text)),
    "out_range": lambda text: "{}..{}".format(*parse_range(text)),
    "map": str,
    "x": lambda text: format_element(parse_element(text)),
    "y": lambda text: format_element(parse_element(text)),
    "delta": lambda text: str(parse_scalar(text)),
}


def _echo_inputs(args, alg: Optional[AlgebraSpec] = None) -> dict:
    inputs = {}
    if alg is not None:
        inputs["algebra"] = alg.name
        if alg.record.parametric:
            inputs["a"] = str(alg.a)
            inputs["b"] = str(alg.b)
    for field, canonical in _ECHOED.items():
        value = getattr(args, field, None)
        if value is not None:
            inputs[field.replace("_range", "")] = canonical(value)
    return inputs


def _basis_texts(family) -> list:
    """Per basis vector, each input key's image as text, read straight off
    the column vector: entry ``col`` is the coefficient of ``out_keys[col %
    n]`` in the image of ``keys[col // n]``, so the entries in increasing
    column order are each image's terms in canonical order."""
    keys = [str(k) for k in family.window.keys]
    labels = [str(o) for o in family.window.out_keys]
    n = len(labels)
    texts = []
    for v in family.vectors:
        terms = {k: [] for k in keys}
        for col, coef in v.items():
            terms[keys[col // n]].append((labels[col % n], coef))
        texts.append({k: format_terms(image) for k, image in terms.items()})
    return texts


def _cmd_solve(args) -> int:
    alg = _algebra_from(args)
    w = _window_from(args, alg)
    if args.margin is not None and args.margin < 0:
        raise CliError(f"--margin must be >= 0, got {args.margin}")
    if args.margin is not None and not dersolve.interior_input_keys(w, args.margin):
        # an empty interior would certify whatever was solved
        in_range = "{}..{}".format(*parse_range(args.in_range))
        raise CliError(f"--margin {args.margin} leaves no interior input key in --in {in_range}")
    solved, _, report = acceptance.certify(alg, w, args.margin)
    results = {
        "algebra": alg.label(),
        "window": {"in": [str(k) for k in w.keys], "out": [str(k) for k in w.out_keys]},
        "dimSolved": report.dim_solved,
        "dimExpected": report.dim_expected,
        "dimInterior": report.dim_interior,
        "expectedContained": report.expected_contained,
        "interiorMargin": report.interior_margin,
        "solvedInteriorContained": report.solved_interior_contained,
        "basis": _basis_texts(solved),
    }
    _write_report(args, "solve", _echo_inputs(args, alg), results)
    if args.tsv_path is not None:
        Path(args.tsv_path).write_text(_tsv_text([_tsv_row(alg, w, report)]))
    print(
        f"{alg.label()}: dimSolved={report.dim_solved} dimExpected={report.dim_expected} "
        f"dimInterior={report.dim_interior} certified={report.certified}"
    )
    return 0 if report.certified else 1


def _cmd_check_map(args) -> int:
    alg = _algebra_from(args)
    w = _window_from(args, alg)
    if args.map is None:
        raise CliError("--map <operator literal> is required")
    op = parse_operator(args.map, alg)
    delta = parse_scalar(args.delta) if args.delta is not None else HALF
    if not hasattr(op, "value_at"):
        raise CliError(f"{format_operator(op)} is nonlinear; use the two-local command")
    table = materialize(op, w)
    pairs = derivation_pairs(alg, w.keys)
    if not pairs:  # a check over no pair would pass whatever the map
        in_range = "{}..{}".format(*parse_range(args.in_range))
        raise CliError(f"--in {in_range} has no pair of keys whose bracket stays inside it")
    violations = check_delta_derivation(alg, table, delta, pairs)
    results = {
        "operator": format_operator(op),
        "delta": str(delta),
        "pairsChecked": len(pairs),
        "violations": [_serialize_witness(v) for v in violations],
    }
    _write_report(args, "check-map", _echo_inputs(args, alg), results)
    print(f"{args.map}: {len(violations)} violation(s) over {len(pairs)} pairs")
    return 0 if not violations else 1


def _serialize_params(params) -> Optional[dict]:
    if params is None:
        return None
    return {str(idx): format_scalar(coeff) for idx, coeff in params.items()}


def _default_two_local_pairs(alg: AlgebraSpec, w):
    """The 2-local grid of the algebra's catalogued counterexample when every
    element of it lies in the input window, else at most 20 consecutive
    pairs of the window's sample."""
    entry = acceptance.COUNTEREXAMPLES.get(alg.name)
    grid = entry.grid if entry else ()
    if grid and all(w.key_set().issuperset(v.support()) for pair in grid for v in pair):
        return grid
    sample = deterministic_sample(w.keys)
    return list(zip(sample[:-1], sample[1:]))[:20]


# Per locality subcommand: its point flags, the results key and each point's
# key in a result entry, the summary, and the default points of a window.
_POINT_QUERIES = {
    "local": (
        ("x",), "elements", ("element",), "locally feasible at {}/{} sample elements",
        lambda alg, w: [(x,) for x in deterministic_sample(w.keys)],
    ),
    "two-local": (
        ("x", "y"), "pairs", ("x", "y"), "two-local feasible at {}/{} pairs",
        _default_two_local_pairs,
    ),
}


def _cmd_locality(args) -> int:
    """Match the candidate with one family member at each point tuple."""
    flags, results_key, point_keys, summary, default_points = _POINT_QUERIES[args.command]
    alg = _algebra_from(args)
    if args.map is None:
        raise CliError("--map <operator literal> is required")
    candidate = parse_operator(args.map, alg)
    w = _window_from(args, alg)
    given = [getattr(args, flag) for flag in flags]
    if given.count(None) not in (0, len(given)):
        raise CliError("provide both --x and --y, or neither")
    if given[0] is None:
        points = default_points(alg, w)
    else:
        points = [tuple(parse_element(text) for text in given)]
        require_in_domain(alg, (key for point in points[0] for key in point.support()))
        _window_guard(w, *points[0])
    family = solve_half_derivations(alg, w)
    feasible_at = local_feasible_at if len(given) == 1 else two_local_feasible_at
    reports = [feasible_at(candidate, *point, family) for point in points]
    results = {
        "candidate": format_operator(candidate),
        "familyDim": len(family),
        results_key: [
            {
                **dict(zip(point_keys, map(format_element, r.points))),
                "feasible": r.feasible,
                "params": _serialize_params(r.params),
            }
            for r in reports
        ],
        "allFeasible": all(r.feasible for r in reports),
    }
    _write_report(args, args.command, _echo_inputs(args, alg), results)
    feasible = sum(1 for r in reports if r.feasible)
    print(f"{args.map}: {summary.format(feasible, len(reports))}")
    return 0 if feasible == len(reports) else 1


def _cmd_counterexamples(args) -> int:
    name = args.algebra or "thin"
    entry = acceptance.COUNTEREXAMPLES.get(name)
    if entry is None:
        raise CliError(f"no catalogued counterexamples for algebra {name!r}")
    w = acceptance.acceptance_window(entry.algebra)
    witnesses, local, additivity, two_local = acceptance.confirm(entry, w)
    results = {field: _serialize_witness(found) for (field, _, _), found in zip(entry.scans, witnesses)}
    if additivity is None:  # schema "1" reports the sample's verdict on solv only
        results["locallyFeasibleOnSample"] = all(r.feasible for r in local)
        results["sampleSize"] = len(local)
    else:
        x, y = entry.nonadditive_pair
        results["nonadditivity"] = {
            "x": format_element(x),
            "y": format_element(y),
            "nonadditive": additivity.nonadditive,
            "lhs": format_element(additivity.lhs),
            "rhs": format_element(additivity.rhs),
        }
    # both halves of the counterexample, as criteria 5-7 check them
    ok = (
        witnesses == [expected for _, _, expected in entry.scans]
        and (additivity is None or additivity.nonadditive)
        and all(r.feasible for r in local + two_local)
    )
    _write_report(args, "counterexamples", {"algebra": name}, results)
    print(f"counterexamples[{name}]: confirmed={ok}")
    return 0 if ok else 1


def _cmd_verify_all(args) -> int:
    # One solve scope for the suite and the TSV sweep: the sweep reuses the
    # suite's wab solves.
    with acceptance.solve_scope():
        results = acceptance.run_all()
        sweep = acceptance.wab_dimension_sweep() if args.tsv_path is not None else None
    for r in results:
        print(r.line())
        for d in r.failed:
            print(f"    {d}")
    # Schema "1" echoes the retired --quick flag as a constant false, here and
    # in inputsEcho, until the schema "2" bump drops it.
    payload = {
        "quick": False,
        "criteria": [dataclasses.asdict(r) for r in results],
        "allPassed": all(r.passed for r in results),
    }
    _write_report(args, "verify-all", {"quick": False}, payload)
    if sweep is not None:
        Path(args.tsv_path).write_text(_tsv_text(_tsv_row(*entry) for entry in sweep))
    return 0 if payload["allPassed"] else 1


def _add_common(parser: argparse.ArgumentParser, window: bool = True) -> None:
    """``--algebra``, ``--config`` and ``--json``; with ``window``, also the
    wab parameters ``--a``/``--b`` and the window ``--in``/``--out``."""
    parser.add_argument("--algebra", choices=list(algebras.ALGEBRA_NAMES))
    if window:
        parser.add_argument("--a", help="rational parameter a (wab only)")
        parser.add_argument("--b", help="rational parameter b (wab only)")
        parser.add_argument("--in", dest="in_range", metavar="LO..HI")
        parser.add_argument("--out", dest="out_range", metavar="LO..HI")
    parser.add_argument("--config", help="flat key=value config file; flags override")
    parser.add_argument("--json", dest="json_path", help="write the JSON report here")


@cache  # built once per process; parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltader",
        description="Exact delta-derivation spaces of graded Lie algebras on index windows",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = partial(sub.add_parser, allow_abbrev=False)  # flags are taken as spelled

    p = add_parser("solve", help="solve the windowed half-derivation space")
    _add_common(p)
    p.add_argument("--margin", type=int, help=f"interior margin (default {acceptance.INTERIOR_MARGIN}, frozen)")
    p.add_argument("--tsv", dest="tsv_path", help="write a dimensions TSV row here")
    p.set_defaults(func=_cmd_solve)

    p = add_parser("check-map", help="check an operator for the delta-derivation law")
    _add_common(p)
    p.add_argument("--map", help="operator literal")
    p.add_argument("--delta", help="rational delta (default 1/2)")
    p.set_defaults(func=_cmd_check_map)

    p = add_parser("local", help="pointwise feasibility against the solved family")
    _add_common(p)
    p.add_argument("--map", help="candidate operator literal")
    p.add_argument("--x", help="element literal (default: deterministic sample)")
    p.set_defaults(func=_cmd_locality)

    p = add_parser("two-local", help="pairwise feasibility against the solved family")
    _add_common(p)
    p.add_argument("--map", help="candidate operator literal")
    p.add_argument("--x", help="first element literal")
    p.add_argument("--y", help="second element literal")
    p.set_defaults(func=_cmd_locality)

    p = add_parser("counterexamples", help="certify the catalogued counterexamples")
    _add_common(p, window=False)
    p.set_defaults(func=_cmd_counterexamples)

    p = add_parser("verify-all", help="run the bundled verification suite")
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--json", dest="json_path", help="write the JSON report here")
    p.add_argument("--tsv", dest="tsv_path", help="write the b-sweep dimensions TSV here")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def _subparser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[command]


def _canonicalize_argv(parser: argparse.ArgumentParser, argv: List[str]) -> List[str]:
    """Join each value option of the chosen subcommand with its argument, so
    that values may start with '-'. An argument that is ``--`` or one of the
    subcommand's options is left to argparse, which reports the missing value."""
    try:
        actions = _subparser(parser, argv[0])._actions
    except (IndexError, KeyError):  # no subcommand: argparse says so
        return argv
    flags = {flag for action in actions for flag in action.option_strings} | {"--"}
    options = {flag for action in actions if action.nargs != 0 for flag in action.option_strings}
    out = argv[:1]
    i = 1
    while i < len(argv):
        tok = argv[i]
        if tok in options and i + 1 < len(argv) and argv[i + 1].split("=", 1)[0] not in flags:
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_canonicalize_argv(parser, list(argv)))
    started = time.monotonic()
    try:
        if getattr(args, "config", None) is not None:
            _merge_config(args, _read_config(args.config), _subparser(parser, args.command))
        _check_outputs(args)
        code = args.func(args)
    except (CliError, ParseError, ResultTooLong, KeyOutOfDomain, WindowTooSmall, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = int((time.monotonic() - started) * 1000)
    print(f"elapsed {elapsed_ms} ms", file=sys.stderr)
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
