"""End-to-end CLI behaviour: reports, exit codes, determinism."""

import argparse
import ast
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deltader
from deltader import acceptance, algebras, cli, locality
from deltader.algebras import E
from deltader.cli import main
from deltader.dersolve import FamilyBasis, solve_half_derivations
from deltader.exactlin import SparseVec
from deltader.literals import format_element, format_operator
from deltader.locality import LocalReport, deterministic_sample
from deltader.operators import SupportOverflow, window_from_ranges

from test_golden import SOLVE_GOLDEN_PATHS, golden_window


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestSolveCommand:
    def test_wab_identity_regime(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "solve", "--algebra", "wab", "--a", "0", "--b", "0",
                "--in", "-3..3", "--out", "-6..6", "--json", str(out),
            ]
        )
        assert code == 0
        report = read_json(out)
        assert report["schemaVersion"] == "1"
        assert report["command"] == "solve"
        assert report["results"]["dimInterior"] == 1
        assert report["results"]["expectedContained"] is True
        assert report["results"]["solvedInteriorContained"] is True
        assert report["timing"] == 0

    def test_deterministic_bytes(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                ["solve", "--algebra", "wittz", "--in", "-3..3", "--out", "-8..8",
                 "--json", str(out)]
            )
            assert code == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_tsv_row(self, tmp_path):
        tsv = tmp_path / "dims.tsv"
        code = main(
            ["solve", "--algebra", "wab", "--a", "0", "--b", "-1",
             "--in", "-3..3", "--out", "-6..6", "--tsv", str(tsv)]
        )
        assert code == 0
        header, row = tsv.read_text().strip().split("\n")
        assert header == "algebra\ta\tb\t|I|\t|O|\tdimSolved\tdimInterior"
        assert row.split("\t") == ["wab", "0", "-1", "14", "26", "14", "14"]

    def test_sweep_shows_jump_at_minus_one(self, tmp_path):
        dims = {}
        for b in range(-3, 4):
            tsv = tmp_path / f"b{b}.tsv"
            main(
                ["solve", "--algebra", "wab", "--a", "0", "--b", str(b),
                 "--in", "-3..3", "--out", "-6..6", "--tsv", str(tsv)]
            )
            row = tsv.read_text().strip().split("\n")[1].split("\t")
            dims[b] = int(row[6])
        assert all(dims[b] == 1 for b in dims if b != -1)
        assert dims[-1] > 1


    @pytest.mark.parametrize(
        "flags",
        [
            ["--algebra", "thin", "--in", "1..4", "--out", "2..6"],
            ["--algebra", "solv", "--in", "1..4", "--out", "1..3"],
            ["--algebra", "wab", "--a", "0", "--b", "0", "--in", "-2..2", "--out", "0..4"],
        ],
    )
    def test_output_range_must_hold_the_input_range(self, flags):
        code, err = run_contract(["solve"] + flags)
        assert (code, err) == (2, "error: input window must be contained in output window\n")

    def test_expected_dimension_counts_no_zero_map(self, capsys):
        assert main(["solve", "--algebra", "thin", "--in", "3..6", "--out", "1..10"]) == 1
        assert "dimExpected=6 " in capsys.readouterr().out

    def test_expected_dimension_is_that_of_the_span(self, capsys):
        # alpha_1 and beta_2 both send e3 to a multiple of e3 on this window
        assert main(["solve", "--algebra", "thin", "--in", "3..3", "--out", "1..5"]) == 1
        assert "dimExpected=3 " in capsys.readouterr().out


# The echoed inputs of every solve golden and of three more windows, each
# with a text that some image must show: the wab ladder rung at a = 2/3, a
# wab window whose basis has Fraction entries, and a thin window with zero
# images.
REPORT_INPUTS = [(json.loads(p.read_text())["inputsEcho"], "") for p in SOLVE_GOLDEN_PATHS] + [
    ({"algebra": "wab", "a": "2/3", "b": "-1", "in": "-7..7", "out": "-14..14"}, ""),
    ({"algebra": "wab", "a": "2/3", "b": "2", "in": "-1..1", "out": "-3..3"}, "/"),
    ({"algebra": "thin", "in": "1..6", "out": "1..9"}, "0*e0"),
]


class TestSolveReportBasis:
    @pytest.mark.parametrize(
        "echo, shown", REPORT_INPUTS, ids=["-".join(echo.values()) for echo, _ in REPORT_INPUTS]
    )
    def test_basis_texts_are_the_formatted_images(self, tmp_path, echo, shown):
        # the report reads each text off the column vector; it must print what
        # formatting each image as its own vector printed
        out = tmp_path / "r.json"
        flags = [text for key, value in echo.items() for text in (f"--{key}", value)]
        assert main(["solve", *flags, "--json", str(out)]) in (0, 1)
        basis = read_json(out)["results"]["basis"]
        family = solve_half_derivations(*golden_window({"inputsEcho": echo}))
        expected = [
            {str(k): format_element(image) for k, image in family.images(v).items()}
            for v in family.vectors
        ]
        assert [list(texts.items()) for texts in basis] == [list(t.items()) for t in expected]
        assert any(shown in text for texts in basis for text in texts.values())


    def test_terms_of_an_image_come_in_canonical_order(self):
        # no solved family has an image of two terms, so this one is built:
        # its vector holds its entries in decreasing column order, as the
        # solver's null vectors do
        w = window_from_ranges(algebras.wab(0, 0), (0, 1), (-1, 1))
        v = SparseVec({11: -1, 7: Fraction(-3, 2), 6: 1, 0: 2})
        family = FamilyBasis(w, (v,))
        (texts,) = cli._basis_texts(family)
        images = family.images(v)
        assert list(texts.items()) == [(str(k), format_element(im)) for k, im in images.items()]
        assert texts["e1"] == "e-1-3/2*e0-f1" and texts["f0"] == "0*e0"


class TestCheckMapCommand:
    def test_shift_passes(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["check-map", "--algebra", "wittz", "--in", "-3..3", "--out", "-6..6",
             "--map", "shift:t=1,w=1", "--json", str(out)]
        )
        assert code == 0
        assert read_json(out)["results"]["violations"] == []

    def test_thin_delta_fails(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["check-map", "--algebra", "thin", "--in", "1..8", "--out", "1..9",
             "--map", "thin-delta", "--json", str(out)]
        )
        assert code == 1
        violations = read_json(out)["results"]["violations"]
        assert {"pair": ["e1", "e3"], "residual": "1/2*e4"} in violations

    def test_window_too_small_is_config_error(self):
        code = main(
            ["check-map", "--algebra", "wittz", "--in", "-3..3", "--out", "-3..3",
             "--map", "shift:t=2,w=1"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "literal",
        ["shift:t", "shift:t=x", "thin:a", "wab:a={x:1}", "shift:t=1,t=2", "shift:t=1,,w=2",
         "shift:,"],
    )
    def test_malformed_operator_is_usage_error(self, literal, capsys):
        code = main(
            ["check-map", "--algebra", "wittz", "--in", "-3..3", "--out", "-6..6",
             "--map", literal]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["check-map", "local", "two-local"])
    @pytest.mark.parametrize(
        "algebra, literal",
        [
            (["wab", "--a", "0", "--b", "-1"], "shift:t=1"),
            (["thin"], "shift:t=1"),
            (["wittz"], "thin-delta"),
            (["wittz"], "wab:a={0:1}"),
            (["solv"], "thin:a=[1]"),
        ],
    )
    def test_operator_on_another_algebra_is_usage_error(self, command, algebra, literal, capsys):
        if algebra[0] in ("wab", "wittz"):
            window = ["--in", "-3..3", "--out", "-6..6"]
        else:
            window = ["--in", "1..5", "--out", "1..7"]
        code = main([command, "--algebra", *algebra, *window, "--map", literal])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "operators are defined on" in err


class TestLocalCommands:
    def test_local_single_element(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["local", "--algebra", "thin", "--in", "1..10", "--out", "1..14",
             "--map", "thin-delta", "--x", "e1+e3", "--json", str(out)]
        )
        assert code == 0
        report = read_json(out)
        assert report["results"]["allFeasible"] is True
        assert report["results"]["elements"][0]["element"] == "e1+e3"

    def test_local_default_sample(self):
        code = main(
            ["local", "--algebra", "solv", "--in", "1..8", "--out", "1..8",
             "--map", "solv-deltabar"]
        )
        assert code == 0

    def test_two_local_pair(self):
        code = main(
            ["two-local", "--algebra", "thin", "--in", "1..10", "--out", "1..14",
             "--map", "thin-nabla", "--x", "e1+e2", "--y", "-e1+e2"]
        )
        assert code == 0

    def test_two_local_default_grid(self):
        code = main(
            ["two-local", "--algebra", "thin", "--in", "1..10", "--out", "1..14",
             "--map", "thin-nabla"]
        )
        assert code == 0

    def test_two_local_default_pairs_on_a_window_narrower_than_the_grid(self, tmp_path):
        # the criterion 6 grid uses e1..e10; on 1..6 the pairs come from the window
        out = tmp_path / "r.json"
        code = main(
            ["two-local", "--algebra", "thin", "--in", "1..6", "--out", "1..9",
             "--map", "thin-nabla", "--json", str(out)]
        )
        assert code == 0
        pairs = read_json(out)["results"]["pairs"]
        assert len(pairs) == 20 and all(p["feasible"] for p in pairs)
        assert pairs[0] == {"x": "e1", "y": "e2", "feasible": True, "params": pairs[0]["params"]}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["two-local", "--map", "thin-nabla", "--x", "e1"], "provide both --x and --y, or neither"),
            (["two-local", "--map", "thin-nabla", "--y", "e1"], "provide both --x and --y, or neither"),
            (["two-local", "--map", "thin-nabla", "--x", "e1+", "--y", "e2"], "expected a term"),
            (["local", "--map", "thin-delta", "--x", "e1+"], "expected a term"),
            (
                ["two-local", "--map", "thin-nabla", "--x", "e1", "--y", "e30"],
                "element uses [e30] outside the family window",
            ),
            (
                ["two-local", "--map", "thin-nabla", "--x", "e1", "--y", "f2"],
                "f2 is not a basis key of thin",
            ),
            (["local", "--map", "thin-delta", "--x", "e0"], "e0 is not a basis key of thin"),
            (["two-local", "--map", "thin-nabla", "--x", "e0+e30", "--y", "e1"], "e0 is not a basis key of thin"),
        ],
        ids=[
            "x-without-y", "y-without-x", "two-local-bad-x", "local-bad-x",
            "y-past-window", "y-f-key", "x-outside-domain", "domain-before-window",
        ],
    )
    def test_usage_errors_come_before_the_solve(self, monkeypatch, capsys, argv, message):
        def no_solve(*args):
            pytest.fail("the family was solved before a usage error")

        monkeypatch.setattr(cli, "solve_half_derivations", no_solve)
        assert main([*argv, "--algebra", "thin", "--in", "1..10", "--out", "1..14"]) == 2
        assert message in capsys.readouterr().err


class TestCounterexamplesCommand:
    def test_thin_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["counterexamples", "--algebra", "thin", "--json", str(out)])
        assert code == 0
        results = read_json(out)["results"]
        assert results["probeWitness"] == {"pair": ["e1", "e3"], "residual": "1/2*e4"}
        assert results["firstWitness"] == {"pair": ["e1", "e2"], "residual": "1/2*e3"}
        assert results["nonadditivity"]["nonadditive"] is True
        assert results["nonadditivity"]["rhs"] == "2*e2"
        # the command reads the suite's pair, not a copy of it
        x, y = acceptance.COUNTEREXAMPLES["thin"].nonadditive_pair
        assert (results["nonadditivity"]["x"], results["nonadditivity"]["y"]) == (
            format_element(x),
            format_element(y),
        )

    def test_solv_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["counterexamples", "--algebra", "solv", "--json", str(out)])
        assert code == 0
        results = read_json(out)["results"]
        assert results["witness"] == {"pair": ["e1", "e2"], "residual": "1/2*e2"}
        assert results["locallyFeasibleOnSample"] is True
        # the sample of the solv record's full window
        w = acceptance.acceptance_window(algebras.solv_abelian())
        assert results["sampleSize"] == len(deterministic_sample(w.keys))

    @pytest.mark.parametrize(
        "name, infeasible",
        [
            ("local_feasible_at", lambda *args: LocalReport((), False)),
            ("two_local_feasible_at", lambda *args: LocalReport((), False)),
        ],
        ids=["local", "two-local"],
    )
    def test_thin_infeasible_half_is_a_property_failure(
        self, tmp_path, monkeypatch, capsys, name, infeasible
    ):
        # the feasible half of each thin counterexample is certified too
        monkeypatch.setattr(acceptance, name, infeasible)
        out = tmp_path / "r.json"
        assert main(["counterexamples", "--algebra", "thin", "--json", str(out)]) == 1
        assert "confirmed=False" in capsys.readouterr().out
        assert read_json(out)["results"]["nonadditivity"]["nonadditive"] is True

    @pytest.mark.parametrize(
        "algebra, fields", [("thin", ("probeWitness", "firstWitness")), ("solv", ("witness",))]
    )
    def test_missing_witness_is_a_property_failure(
        self, tmp_path, monkeypatch, capsys, algebra, fields
    ):
        # no witness, and a witness other than the catalogued one
        for witness in (None, ((E(2), E(5)), SparseVec({E(7): 3}))):
            monkeypatch.setattr(acceptance, "find_violation_witness", lambda *args: witness)
            out = tmp_path / "r.json"
            code = main(["counterexamples", "--algebra", algebra, "--json", str(out)])
            assert code == 1
            assert "confirmed=False" in capsys.readouterr().out
            results = read_json(out)["results"]
            assert all(results[f] == cli._serialize_witness(witness) for f in fields)

    @pytest.mark.parametrize("algebra", ["wittz", "wittpos", "witt1", "wab"])
    def test_an_algebra_without_counterexamples_is_a_usage_error(self, tmp_path, capsys, algebra):
        out = tmp_path / "r.json"
        assert main(["counterexamples", "--algebra", algebra, "--json", str(out)]) == 2
        message = f"error: no catalogued counterexamples for algebra {algebra!r}\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--a", "--b"])
    def test_wab_parameter_flags_are_usage_errors(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["counterexamples", "--algebra", "thin", flag, "x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: ")

    @pytest.mark.parametrize("line", ["a=1", "b=1"])
    def test_wab_parameter_config_keys_are_usage_errors(self, tmp_path, capsys, line):
        config = tmp_path / "run.cfg"
        config.write_text(f"algebra=thin\n{line}\n")
        out = tmp_path / "r.json"
        assert main(["counterexamples", "--config", str(config), "--json", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: unknown config key {line[0]!r}")
        assert not out.exists()


class TestEntryPoints:
    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["deltader", "counterexamples", "--algebra", "wittz"])
        assert main() == 2
        assert "no catalogued counterexamples" in capsys.readouterr().err

    def test_module_run_exits_with_the_command_code(self):
        paths = [str(Path(cli.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        argv = [sys.executable, "-m", "deltader.cli", "counterexamples", "--algebra", "solv"]
        run = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "counterexamples[solv]: confirmed=True\n"


def _record_points(monkeypatch) -> list:
    """Per call of ``local_feasible_at`` or ``two_local_feasible_at``, made
    through any module that imports it, its points as element literals."""
    calls = []
    for module in (locality, acceptance, cli):
        for name in ("local_feasible_at", "two_local_feasible_at"):
            original = getattr(module, name)

            def recording(candidate, *args, original=original):
                calls.append(tuple(map(format_element, args[:-1])))
                return original(candidate, *args)

            monkeypatch.setattr(module, name, recording)
    return calls


def _record_scans(monkeypatch) -> list:
    """Per call of ``find_violation_witness``, its scan keys as text."""
    calls = []
    original = acceptance.find_violation_witness

    def recording(alg, candidate, delta, keys):
        calls.append(tuple(map(str, keys)))
        return original(alg, candidate, delta, keys)

    monkeypatch.setattr(acceptance, "find_violation_witness", recording)
    return calls


class TestOneCatalogue:
    def test_command_and_criteria_ask_the_same_questions(self, monkeypatch):
        points, scans = _record_points(monkeypatch), _record_scans(monkeypatch)
        asked = {}
        for name, criteria in (
            ("thin", (acceptance.criterion_5, acceptance.criterion_6)),
            ("solv", (acceptance.criterion_7,)),
        ):
            del points[:], scans[:]
            assert main(["counterexamples", "--algebra", name]) == 0
            command = list(scans), list(points)
            del points[:], scans[:]
            with acceptance.solve_scope():  # as run_all runs them
                for criterion in criteria:
                    criterion()
            asked[name] = command, (list(scans), list(points))
        (command_scans, command), (suite_scans, suite) = asked["thin"]
        assert command_scans == suite_scans == [("e1", "e3"), tuple(f"e{i}" for i in range(1, 9))]
        assert command == suite
        assert len(command) == 35 + 20  # criterion 5's sample, criterion 6's grid
        (command_scans, command), (suite_scans, suite) = asked["solv"]
        assert command_scans == suite_scans == [("e1", "e2", "e3", "e4")]
        assert set(suite) == set(command) | {("e1+e2+e3",)}
        assert ("e1+e2+e3",) not in command

    @pytest.mark.parametrize("name", sorted(acceptance.COUNTEREXAMPLES))
    def test_entries_name_a_catalogued_algebra_and_its_maps(self, name):
        entry = acceptance.COUNTEREXAMPLES[name]
        assert name in algebras.ALGEBRA_NAMES
        assert entry.algebra.name == name
        maps = [entry.probe] + ([entry.nabla] if entry.nabla else [])
        assert all(format_operator(m) in entry.algebra.record.heads for m in maps)


class TestConfigAndErrors:
    def test_config_file_with_flag_precedence(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("algebra=wittz\nin=-3..3\nout=-8..8\n")
        out = tmp_path / "r.json"
        code = main(["solve", "--config", str(config), "--json", str(out)])
        assert code == 0
        assert read_json(out)["inputsEcho"]["in"] == "-3..3"
        # flag overrides the config value
        out2 = tmp_path / "r2.json"
        code = main(
            ["solve", "--config", str(config), "--out", "-6..6", "--json", str(out2)]
        )
        assert code == 0
        assert read_json(out2)["inputsEcho"]["out"] == "-6..6"

    def _solve_with_config(self, tmp_path, extra):
        config = tmp_path / "run.cfg"
        config.write_text("algebra=wittz\nin=-3..3\nout=-8..8\n" + extra)
        out = tmp_path / "r.json"
        return main(["solve", "--config", str(config), "--json", str(out)]), out

    def test_config_value_goes_through_the_option_type(self, tmp_path):
        code, out = self._solve_with_config(tmp_path, "margin=2\n")
        assert code == 0
        assert read_json(out)["results"]["interiorMargin"] == 2

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_margin_is_usage_error(self, tmp_path, capsys, source):
        if source == "flag":
            out = tmp_path / "r.json"
            argv = ["solve", "--algebra", "wittz", "--in", "-2..2", "--margin", "-1"]
            code = main(argv + ["--json", str(out)])
        else:
            code, out = self._solve_with_config(tmp_path, "margin=-1\n")
        assert code == 2
        assert capsys.readouterr().err == "error: --margin must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_a_margin_that_leaves_no_interior_is_usage_error(self, tmp_path, monkeypatch, capsys, source):
        # margin 4 on 3..9 keeps no input key, and an empty interior would
        # certify any solve; margin 3 keeps e6 and reads as a verdict
        def no_solve(*args):
            pytest.fail("the family was solved before a usage error")

        monkeypatch.setattr(acceptance, "solve_half_derivations", no_solve)
        config = tmp_path / "run.cfg"
        config.write_text("margin=4\n" if source == "config" else "")
        out = tmp_path / "r.json"
        argv = ["solve", "--algebra", "wittpos", "--in", "3..9", "--out", "1..17", "--json", str(out)]
        argv += ["--config", str(config)] + (["--margin", "4"] if source == "flag" else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --margin 4 leaves no interior input key in --in 3..9\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("margin", [0, 3])
    def test_a_margin_that_leaves_an_interior_gives_a_verdict(self, capsys, margin):
        # the window lacks e1 and e2, so no margin that keeps a key certifies it
        argv = ["solve", "--algebra", "wittpos", "--in", "3..9", "--out", "1..17", "--margin", str(margin)]
        assert main(argv) == 1
        assert "certified=False" in capsys.readouterr().out

    def test_a_range_outside_the_domain_names_the_key(self, tmp_path, capsys):
        # the catalogue's domain error, as every closed form raises it
        out = tmp_path / "r.json"
        assert main(["solve", "--algebra", "wittpos", "--in", "0..3", "--json", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: e0 is not a basis key of wittpos\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, named",
        [
            ("algebar=thin", "'algebar'"),
            ("margin=two", "'margin'"),
            ("config=other.cfg", "'config'"),
        ],
    )
    def test_bad_config_key_or_value_is_usage_error(self, tmp_path, capsys, line, named):
        code, _ = self._solve_with_config(tmp_path, line + "\n")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_config_choice_is_checked(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("algebra=virasoro\nin=1..3\n")
        assert main(["solve", "--config", str(config)]) == 2
        assert "'algebra'" in capsys.readouterr().err

    def test_the_retired_quick_switch_is_a_usage_error(self, tmp_path, capsys):
        # verify-all runs one suite size: --quick and its config key are unknown
        with pytest.raises(SystemExit) as exc:
            main(["verify-all", "--quick"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --quick\n")
        config = tmp_path / "run.cfg"
        config.write_text("quick=true\n")
        out = tmp_path / "r.json"
        assert main(["verify-all", "--config", str(config), "--json", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: unknown config key 'quick' for verify-all; ")
        assert not out.exists()

    def test_unreadable_config_is_usage_error(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flag", ["--json", "--tsv"])
    def test_unwritable_output_path_is_usage_error(self, tmp_path, capsys, flag):
        code = main(["solve", "--algebra", "wittz", "--in", "-2..2", flag, str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err

    def test_output_path_without_write_permission_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # permission bits do not bind root, so the access check answers no here
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        out = tmp_path / "r.json"
        assert main(["solve", "--algebra", "wittz", "--in", "-2..2", "--json", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: Permission denied\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["solve", "--algebra", "wittz", "--in", "-2..2"], ["verify-all"]]
    )
    @pytest.mark.parametrize("bad", [".", "missing/dims.tsv", "dims\0.tsv"])
    def test_usage_error_leaves_no_report(self, tmp_path, capsys, command, bad):
        out = tmp_path / "r.json"
        code = main(command + ["--json", str(out), "--tsv", str(tmp_path / bad)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check-map"], "--map <operator literal> is required"),
            (["local"], "--map <operator literal> is required"),
            (["two-local"], "--map <operator literal> is required"),
            (
                ["check-map", "--map", "thin-nabla"],
                "thin-nabla is nonlinear; use the two-local command",
            ),
        ],
        ids=["check-map-without-map", "local-without-map", "two-local-without-map", "thin-nabla"],
    )
    def test_map_usage_errors_leave_no_report(self, tmp_path, capsys, argv, message):
        out = tmp_path / "r.json"
        window = ["--algebra", "thin", "--in", "1..6", "--out", "1..9"]
        assert main([*argv, *window, "--json", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "Traceback" not in captured.out
        assert not out.exists()

    def test_config_path_with_a_nul_byte_is_usage_error(self, capsys):
        assert main(["solve", "--config", "run\0.cfg"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config ")

    @pytest.mark.parametrize("key", ["json", "tsv"])
    def test_output_path_with_a_nul_byte_exits_before_the_solve(
        self, tmp_path, monkeypatch, capsys, key
    ):
        def no_solve(*args):
            pytest.fail("the family was solved before a usage error")

        monkeypatch.setattr(acceptance, "solve_half_derivations", no_solve)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(f"{key}=a\0b\n")
        code = main(["solve", "--algebra", "wittz", "--in", "-2..2", "--config", "run.cfg"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize(
        "command", [["solve", "--algebra", "wittz", "--in", "-1..1"], ["verify-all"]]
    )
    @pytest.mark.parametrize("tsv", ["out", "./out", "sub/../out"])
    def test_json_and_tsv_naming_one_file_exit_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, tsv
    ):
        def no_work(*args, **kwargs):
            pytest.fail("work ran before a usage error")

        monkeypatch.setattr(acceptance, "solve_half_derivations", no_work)
        monkeypatch.setattr(acceptance, "run_all", no_work)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert main(command + ["--json", "out", "--tsv", tsv]) == 2
        assert capsys.readouterr().err == f"error: --json and --tsv both name {tsv}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command", [["solve", "--algebra", "wittz", "--in", "-1..1"], ["verify-all"]]
    )
    @pytest.mark.parametrize("path", ["c.cfg", "./c.cfg", "sub/../c.cfg"])
    @pytest.mark.parametrize("given", ["--json", "--tsv", "json=", "tsv="])
    def test_an_output_naming_the_config_file_exits_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, path, given
    ):
        # as a flag or as a key of the config itself, the report would
        # replace the config it was read from
        def no_work(*args, **kwargs):
            pytest.fail("work ran before a usage error")

        monkeypatch.setattr(acceptance, "solve_half_derivations", no_work)
        monkeypatch.setattr(acceptance, "run_all", no_work)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        text = f"{given}{path}\n" if given.endswith("=") else ""
        (tmp_path / "c.cfg").write_text(text)
        flags = [given, path] if given.startswith("--") else []
        assert main(command + ["--config", "c.cfg"] + flags) == 2
        flag = "--" + given.strip("-=")
        assert capsys.readouterr().err == f"error: {flag} and --config both name {path}\n"
        assert (tmp_path / "c.cfg").read_text() == text

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("solve", "in=-1..1\nin=-2..2", "--in twice: 'in', then 'in'"),
            ("solve", "in=-1..1\nin_range=-2..2", "--in twice: 'in', then 'in_range'"),
            ("solve", "a=1\na=2", "--a twice: 'a', then 'a'"),
            ("verify-all", "tsv=a.tsv\ntsv_path=b.tsv", "--tsv twice: 'tsv', then 'tsv_path'"),
        ],
        ids=["same-key", "alias", "one-letter-key", "verify-all"],
    )
    def test_an_option_set_twice_in_a_config_is_usage_error(
        self, tmp_path, monkeypatch, capsys, command, text, message
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(("algebra=wittz\n" if command == "solve" else "") + text)
        assert main([command, "--config", "run.cfg", "--json", "r.json"]) == 2
        assert capsys.readouterr().err == f"error: config sets {message}\n"
        assert not (tmp_path / "r.json").exists()

    def test_missing_algebra_is_usage_error(self):
        assert main(["solve", "--in", "1..3"]) == 2

    def test_wab_without_parameters(self):
        assert main(["solve", "--algebra", "wab", "--in", "-2..2"]) == 2

    def test_bad_element_literal(self):
        code = main(
            ["local", "--algebra", "thin", "--in", "1..6", "--out", "1..8",
             "--map", "thin-delta", "--x", "e1+"]
        )
        assert code == 2

    def test_zero_denominator_is_usage_error(self, capsys):
        code = main(
            ["solve", "--algebra", "wab", "--a", "1/0", "--b", "0", "--in", "-2..2"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: zero denominator")

    def test_bad_range(self):
        assert main(["solve", "--algebra", "wittz", "--in", "oops"]) == 2

    @pytest.mark.parametrize(
        "flags, position",
        [
            (["--a", "9" * 5000, "--b", "-1", "--in", "-1..1"], 0),
            (["--a", "0", "--b", "-1", "--in", "1.." + "9" * 5000], 3),
        ],
        ids=["a", "in"],
    )
    def test_a_number_over_the_digit_limit_is_usage_error(self, tmp_path, capsys, flags, position):
        # Python reads at most 4,300 digits into an int
        out = tmp_path / "r.json"
        assert main(["solve", "--algebra", "wab", *flags, "--json", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: number too long: 5000 characters (at position {position})\n"
        assert captured.out == ""
        assert not out.exists()

    def test_a_result_over_the_digit_limit_is_usage_error(self, tmp_path, capsys):
        # inputs of 4,000 digits, residuals of 8,001: too long for str()
        out = tmp_path / "r.json"
        sevens = "7" * 4000
        argv = ["check-map", "--algebra", "wittz", "--in", "-2..2", "--out", "-9..9"]
        argv += ["--map", f"shift:t=1,w={sevens}", "--delta", sevens, "--json", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: result too long to print: a coefficient of 8001 digits\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "typed, canonical",
        [
            (
                ["solve", "--algebra", "wab", "--a", "- 1/2", "--b", "-1", "--in", " -4 .. 4", "--out", "-8 ..+8"],
                ["solve", "--algebra", "wab", "--a=-1/2", "--b=-1", "--in=-4..4", "--out=-8..8"],
            ),
            (
                ["check-map", "--algebra", "thin", "--in", "1 ..8", "--map", "thin-delta", "--delta", "2/4"],
                ["check-map", "--algebra", "thin", "--in", "1..8", "--map", "thin-delta", "--delta", "1/2"],
            ),
            (
                ["two-local", "--algebra", "thin", "--in", "1..6", "--out", "1..9", "--map", "thin-nabla",
                 "--x", "e3 + 1*e1", "--y", "2/2*e2-e2+e4"],
                ["two-local", "--algebra", "thin", "--in", "1..6", "--out", "1..9", "--map", "thin-nabla",
                 "--x", "e1+e3", "--y", "e4"],
            ),
        ],
        ids=["solve", "check-map", "two-local"],
    )
    def test_two_spellings_of_one_question_give_one_report(self, tmp_path, typed, canonical):
        reports = []
        for name, argv in (("typed.json", typed), ("canonical.json", canonical)):
            assert main([*argv, "--json", str(tmp_path / name)]) in (0, 1)
            reports.append((tmp_path / name).read_bytes())
        assert reports[0] == reports[1]

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


# A run of each subcommand that sets every option taking a value, except
# --config and --json, which the tests add.
WAB_RUN = {"algebra": "wab", "a": "0", "b": "-1", "in": "-2..2", "out": "-4..4"}
VALID_RUNS = {
    "solve": {**WAB_RUN, "margin": "1", "tsv": "dims.tsv"},
    "check-map": {**WAB_RUN, "map": "wab:a={0:1}", "delta": "1/2"},
    "local": {**WAB_RUN, "map": "wab:a={0:1}", "x": "e0+f1"},
    "two-local": {**WAB_RUN, "map": "wab:a={0:1}", "x": "e0+f1", "y": "e1"},
    "counterexamples": {"algebra": "thin"},
    "verify-all": {"tsv": "dims.tsv"},
}


def value_options(command):
    """The options of ``command`` that take a value, without their dashes."""
    parser = cli._subparser(cli.build_parser(), command)
    actions = [a for a in parser._actions if a.option_strings and a.nargs != 0]
    return sorted(a.option_strings[0][2:] for a in actions)


def run_with(tmp_path, monkeypatch, command, flags, config=None):
    """Exit code of ``command`` run in ``tmp_path`` with ``--name value`` for
    each of ``flags`` and, when given, a ``--config`` file of ``config``."""
    monkeypatch.chdir(tmp_path)
    argv = [command]
    for name, value in flags.items():
        argv += [f"--{name}", value]
    if config is not None:
        Path("run.cfg").write_text(config)
        argv += ["--config", "run.cfg"]
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


# Every value option of every subcommand, empty, as a flag and as a config
# key; a config file naming another one is already an unknown key.
EMPTY_VALUE_CASES = [
    (command, option, source)
    for command in sorted(VALID_RUNS)
    for option in value_options(command)
    for source in ("flag", "config")
    if (option, source) != ("config", "config")
]


class TestEmptyValues:
    @pytest.mark.parametrize("command", sorted(VALID_RUNS))
    def test_valid_runs_cover_every_value_option(self, tmp_path, monkeypatch, command):
        assert value_options(command) == sorted({*VALID_RUNS[command], "config", "json"})
        flags = {**VALID_RUNS[command], "json": "r.json"}
        assert run_with(tmp_path, monkeypatch, command, flags, config="") in (0, 1)
        assert (tmp_path / "r.json").exists()
        assert "tsv" not in flags or (tmp_path / "dims.tsv").exists()

    @pytest.mark.parametrize("command, option, source", EMPTY_VALUE_CASES)
    def test_empty_value_is_usage_error(
        self, tmp_path, monkeypatch, capsys, command, option, source
    ):
        flags = {**VALID_RUNS[command], "json": "r.json"}
        if source == "flag":
            code = run_with(tmp_path, monkeypatch, command, {**flags, option: ""})
        else:
            flags.pop(option)
            code = run_with(tmp_path, monkeypatch, command, flags, config=f"{option}=\n")
        assert code == 2
        assert capsys.readouterr().err.startswith(("error: ", "usage: "))
        assert {p.name for p in tmp_path.iterdir()} <= {"run.cfg"}

    @pytest.mark.parametrize(
        "option, source",
        [("json", "flag"), ("tsv", "flag"), ("config", "flag"), ("json", "config"), ("tsv", "config")],
    )
    def test_empty_path_is_named(self, tmp_path, monkeypatch, capsys, option, source):
        flags = {**VALID_RUNS["solve"], "json": "r.json"}
        if source == "flag":
            code = run_with(tmp_path, monkeypatch, "solve", {**flags, option: ""})
        else:
            flags.pop(option)
            code = run_with(tmp_path, monkeypatch, "solve", flags, config=f"{option}=\n")
        assert code == 2
        assert capsys.readouterr().err == f"error: --{option} path is empty\n"


class TestFlagSpelling:
    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["counterexamples", "--a", "thin"], "--a"),
            (["solve", "--algebra", "wittz", "--in", "-2..2", "--marg", "3"], "--marg"),
        ],
    )
    def test_prefix_is_an_unrecognized_flag(self, capsys, argv, prefix):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # quoted as typed: only the subcommand's own options join their value
        assert err.endswith("unrecognized arguments: " + " ".join(argv[argv.index(prefix):]) + "\n")

    @pytest.mark.parametrize(
        "command, option", [(c, o) for c in sorted(VALID_RUNS) for o in value_options(c)]
    )
    def test_double_dash_is_not_a_value(self, capsys, command, option):
        with pytest.raises(SystemExit) as exc:
            main([command, f"--{option}", "--"])
        assert exc.value.code == 2
        assert f"argument --{option}: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["verify-all", "--json", "--tsv", "d.tsv"], "--json"),
            (["verify-all", "--tsv", "--config=run.cfg"], "--tsv"),
            (["solve", "--algebra", "wittz", "--in", "0..1", "--json", "--tsv", "d.tsv"], "--json"),
            (["solve", "--algebra", "--in", "0..1"], "--algebra"),
        ],
    )
    def test_an_option_is_not_a_value(self, tmp_path, monkeypatch, capsys, argv, option):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {option}: expected one argument" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_no_parser_accepts_a_prefix(self, capsys):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        # the top-level parser is checked with a valid command after the prefix
        parsers = [(parser, [], ["verify-all"])]
        parsers += [(p, [command], []) for command, p in sub.choices.items()]
        for p, before, after in parsers:
            for action in p._actions:
                for flag in action.option_strings:
                    if len(flag) > 3:  # --a has no prefix but --
                        value = [] if action.nargs == 0 else ["1"]
                        with pytest.raises(SystemExit) as exc:
                            parser.parse_args(before + [flag[:-1]] + value + after)
                        assert exc.value.code == 2
                        err = capsys.readouterr().err
                        assert f"unrecognized arguments: {flag[:-1]}" in err, (before, flag)


class TestVerifyAllCommand:
    def test_run_reports_known_red_criterion(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        tsv = tmp_path / "sweep.tsv"
        code = main(["verify-all", "--json", str(out), "--tsv", str(tsv)])
        # criterion 6 pins rhs = e2 while exact evaluation yields 2*e2, so the
        # suite reports one red criterion and exits 1
        assert code == 1
        report = read_json(out)
        by_number = {c["number"]: c for c in report["results"]["criteria"]}
        assert not by_number[6]["passed"]
        assert all(by_number[n]["passed"] for n in by_number if n != 6)
        assert capsys.readouterr().out.splitlines() == [
            "PASS criterion 1: bracket axioms (antisymmetry and Jacobi)",
            "PASS criterion 2: shift containment on Witt-family windows",
            "PASS criterion 3: interior completeness at frozen margins",
            "PASS criterion 4: W(a,b) dichotomy at b=-1",
            "PASS criterion 5: thin local counterexample",
            "FAIL criterion 6: thin 2-local counterexample",
            "    rhs is e2 exactly (exact evaluation gives SparseVec({e2: 2})): FAILED",
            "PASS criterion 7: solvable algebra: family, probe map, infeasible candidate",
            "PASS criterion 8: zero-propagation and f-line scans",
            "PASS criterion 9: separating-point injectivity",
            "PASS criterion 10: commutators are quarter-derivations",
        ]
        sweep = tsv.read_text().strip().split("\n")
        assert len(sweep) == 8  # header + 7 b-values

    def test_tsv_sweep_reuses_the_suite_solves(self, tmp_path, monkeypatch):
        calls = []
        original = acceptance.solve_half_derivations

        def counted(alg, w):
            calls.append((alg, w))
            return original(alg, w)

        monkeypatch.setattr(acceptance, "solve_half_derivations", counted)
        tsv = tmp_path / "sweep.tsv"
        code = main(["verify-all", "--tsv", str(tsv)])
        assert code == 1
        assert len(calls) == len(set(calls)) == 13
        # the same bytes as the sweep run on its own, outside any solve scope
        sweep = acceptance.wab_dimension_sweep()
        assert len(calls) == 13 + 7
        lines = [cli.TSV_HEADER] + [
            "\t".join(
                str(f)
                for f in (alg.name, alg.a, alg.b, len(w.keys), len(w.out_keys), r.dim_solved, r.dim_interior)
            )
            for alg, w, r in sweep
        ]
        assert tsv.read_text() == "\n".join(lines) + "\n"


# (algebra flags, window flags, operator literals and elements that fit them);
# the windows are small enough that every solve takes milliseconds.
ALGEBRA_CASES = [
    (["wittz"], ["--in", "-3..3", "--out", "-6..6"], ["shift:t=1", "shift:t=-1,w=2"], ["e0", "e-3+2*e3"]),
    (["wittpos"], ["--in", "1..5", "--out", "1..8"], ["shift:t=0,w=1/2", "shift:t=2"], ["e1", "e2-e5"]),
    (["witt1"], ["--in", "-1..4", "--out", "-1..7"], ["shift:t=1"], ["e-1", "e0+1/2*e4"]),
    (
        ["wab", "--a", "0", "--b", "-1"],
        ["--in", "-2..2", "--out", "-4..4"],
        ["wab:a={0:1};b={0:1}", "wab:a={-1:2}"],
        ["e0+f1", "-f-2", "e1+e2+f0"],
    ),
    (["thin"], ["--in", "1..6", "--out", "1..9"], ["thin-delta", "thin-nabla", "thin:a=[1,0,2];b=[0,5]"], ["e1+e3", "e2"]),
    (["solv"], ["--in", "1..5", "--out", "1..5"], ["solv-deltabar", "solv:a=[2,0,3]"], ["e1+e2", "3*e4"]),
]
ANY_MAPS = [m for case in ALGEBRA_CASES for m in case[2]]
BAD_MAPS = [
    "", "bogus", "shift:t", "shift:t=x", "shift:q=1", "shift:t=1,w=1/0", "thin:a",
    "thin:a=[1,", "wab:a={x:1}", "wab:a={1:1/0}", "thin-delta:", "solv:a=[1];a=[2]",
]
ANY_ELEMENTS = ["e1", "-e2+1/2*f1", "3/4*e-1 - f2", "f0", "e100", "0*e2", "2*e1-e2"]
BAD_ELEMENTS = ["", "e1+", "x", "1/0*e1", "++e1", "e", "e1 e2", "-", "f"]
LITERAL_TEXT = st.text(alphabet="efshitwab-:=,;{}[]0123456789/+* ", max_size=14)


@st.composite
def locality_argv(draw):
    """argv for check-map, local or two-local with drawn --map/--x/--y literals,
    well-formed for the algebra, well-formed for another one, or malformed."""
    command = draw(st.sampled_from(["check-map", "local", "two-local"]))
    algebra, window, maps, elements = draw(st.sampled_from(ALGEBRA_CASES))
    literal = st.one_of(
        st.sampled_from(maps), st.sampled_from(ANY_MAPS), st.sampled_from(BAD_MAPS), LITERAL_TEXT
    )
    argv = [command, "--algebra", *algebra, *window, "--map", draw(literal)]
    element = st.one_of(
        st.sampled_from(elements), st.sampled_from(ANY_ELEMENTS), st.sampled_from(BAD_ELEMENTS), LITERAL_TEXT
    )
    flags = {"check-map": (), "local": ("--x",), "two-local": ("--x", "--y")}[command]
    for flag in flags:
        if draw(st.booleans()):
            argv += [flag, draw(element)]
    return argv


def records_a_failed_property(report):
    """True iff the JSON report records a property that failed."""
    results = report["results"]
    command = report["command"]
    if command == "solve":
        return not (results["expectedContained"] and results["solvedInteriorContained"])
    if command == "check-map":
        return bool(results["violations"])
    if command in ("local", "two-local"):
        return not results["allFeasible"]
    if command == "verify-all":
        return not results["allPassed"]
    entry = acceptance.COUNTEREXAMPLES[report["inputsEcho"]["algebra"]]
    wrong = any(results[f] != cli._serialize_witness(first) for f, _, first in entry.scans)
    if "nonadditivity" in results:  # counterexamples on thin
        return wrong or not results["nonadditivity"]["nonadditive"]
    return wrong or not results["locallyFeasibleOnSample"]


def run_contract(argv, config=None):
    """Exit code and stderr of ``main(argv)``, checked against the exit-code
    contract: 0, 1 or 2, no traceback, a usage error says so first, and exit 1
    only when the report records a failed property.

    It runs in a fresh working directory with ``--json`` there, and with
    ``config`` as the text of a ``--config`` file when given.
    """
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp, "report.json")
        if config is not None:
            Path(tmp, "run.cfg").write_text(config)
            argv = argv + ["--config", str(Path(tmp, "run.cfg"))]
        os.chdir(tmp)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv + ["--json", str(report)])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2), (argv, config, code)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code == 2:
            assert err.getvalue().startswith(("error: ", "usage: ")), (argv, config)
        else:
            assert records_a_failed_property(json.loads(report.read_text())) == (code == 1)
    return code, err.getvalue()


@given(locality_argv())
@settings(max_examples=80, deadline=None)
def test_locality_commands_hold_the_exit_code_contract(argv):
    code, err = run_contract(argv)
    own_maps = next(case[2] for case in ALGEBRA_CASES if case[0][0] == argv[2])
    literal = argv[argv.index("--map") + 1]
    defaults = "--x" not in argv and "--y" not in argv
    if argv[0] in ("local", "two-local") and literal in own_maps and defaults:
        # the default elements always fit the window
        assert code != 2, (argv, err)


INDEX = st.integers(-4, 7)
INDEX_RANGE = st.builds(lambda i, j: f"{min(i, j)}..{max(i, j)}", INDEX, INDEX)
RANGE_TEXT = st.one_of(
    INDEX_RANGE,
    INDEX_RANGE,
    st.builds("{}..{}".format, INDEX, INDEX),  # reversed ones too
    st.sampled_from(["", "..", "3..", "..3", "1..1", "2...4", "a..b", "1.5..3", "--1..2"]),
    st.text(alphabet="0123456789.-+ e", max_size=6),
)
SCALAR_TEXT = st.one_of(
    st.builds(str, st.fractions(min_value=-3, max_value=3, max_denominator=4)),
    st.sampled_from(["0", "-1", "1/2", "2/3", "-3/2", "1/0", "0/0", "1/-2", "x", "", "1e3", " 1"]),
    st.text(alphabet="0123456789/-.x ", max_size=5),
)


@st.composite
def solve_argv(draw):
    """argv for solve with drawn --algebra, --a/--b literals and --in/--out
    ranges: valid, reversed, empty or malformed. --a and --b mostly come
    with wab alone, so that most draws reach the solver."""
    algebra = draw(st.sampled_from(["wittz", "wittpos", "witt1", "wab", "thin", "solv", "witt"]))
    argv = ["solve", "--algebra", algebra]
    for flag in ("--a", "--b"):
        if draw(st.integers(0, 7)) < (7 if algebra == "wab" else 1):
            argv += [flag, draw(SCALAR_TEXT)]
    for flag in ("--in", "--out"):
        if draw(st.integers(0, 7)):
            argv += [flag, draw(RANGE_TEXT)]
    return argv


@given(solve_argv())
@settings(max_examples=120, deadline=None)
def test_solve_holds_the_exit_code_contract(argv):
    run_contract(argv)


ALGEBRA_TEXT = st.sampled_from(["wittz", "wittpos", "witt1", "wab", "thin", "solv", "witt", ""])


@st.composite
def counterexamples_argv(draw):
    """argv for counterexamples: any --algebra or none, --a/--b literals or none."""
    argv = ["counterexamples"]
    if draw(st.integers(0, 5)):
        argv += ["--algebra", draw(ALGEBRA_TEXT)]
    for flag in ("--a", "--b"):
        if not draw(st.integers(0, 3)):
            argv += [flag, draw(SCALAR_TEXT)]
    return argv


@given(counterexamples_argv())
@settings(max_examples=30, deadline=None)
def test_counterexamples_holds_the_exit_code_contract(argv):
    code, err = run_contract(argv)
    if "--algebra" in argv and argv[argv.index("--algebra") + 1] not in ("thin", "solv"):
        assert code == 2, (argv, err)
    if "--a" in argv or "--b" in argv:  # counterexamples takes no wab parameters
        assert code == 2, (argv, err)


# Config keys: option names and destinations of the subcommands, spelled
# with - or _, in other cases, and keys no subcommand has.
CONFIG_KEYS = [
    "algebra", "a", "b", "in", "in_range", "out", "out-range", "map", "x", "y", "delta",
    "margin", "quick", "tsv", "tsv_path", "json", "config", "Algebra", "algebar", "", "help",
]
CONFIG_KEY_TEXT = st.text(alphabet="abimnx_- ", min_size=1, max_size=5)
PATH_KEYS = ("tsv", "tsv_path", "json")
# Paths stay relative, inside the run's own working directory.
PATH_TEXT = st.one_of(
    st.sampled_from(["out.tsv", ".", "missing/dir/out.tsv", "a b"]),
    st.text(alphabet="abc.-_ ", max_size=6),
)
CONFIG_VALUE = st.one_of(
    ALGEBRA_TEXT,
    RANGE_TEXT,
    SCALAR_TEXT,
    st.sampled_from(ANY_MAPS + BAD_MAPS + ANY_ELEMENTS + BAD_ELEMENTS),
    st.sampled_from(["true", "false", "TRUE", "yes", "-1", "0", "2", "-0", "1e3"]),
    LITERAL_TEXT,
)


def as_config_lines(flags):
    """``key=value`` lines for argv flags ``[--key, value, ...]``."""
    return [f"{flag.lstrip('-')}={value}" for flag, value in zip(flags[::2], flags[1::2])]


@st.composite
def config_text(draw, command):
    """A config file for ``command``: key=value lines with drawn keys and
    values, mostly on top of valid lines for a drawn algebra, plus comments
    and bad lines."""
    lines = []
    if command != "verify-all" and draw(st.integers(0, 3)):
        algebra, window, maps, elements = draw(st.sampled_from(ALGEBRA_CASES))
        lines += [f"algebra={algebra[0]}"] + as_config_lines(algebra[1:])
        if command != "counterexamples":
            lines += as_config_lines(window)
        if command in ("check-map", "local", "two-local"):
            lines.append(f"map={draw(st.sampled_from(maps))}")
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.one_of(st.sampled_from(CONFIG_KEYS), CONFIG_KEY_TEXT))
        value = draw(PATH_TEXT if key in PATH_KEYS else CONFIG_VALUE)
        line = st.sampled_from([f"{key}={value}", f" {key} = {value} ", f"{key}:{value}"])
        lines.append(draw(line))
    lines += draw(st.lists(st.sampled_from(["# comment", "", "  ", "=", "novalue"]), max_size=2))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def config_argv(draw):
    command = draw(st.sampled_from(["solve", "check-map", "local", "two-local", "counterexamples"]))
    return [command], draw(config_text(command))


@given(config_argv())
@settings(max_examples=80, deadline=None)
def test_config_files_hold_the_exit_code_contract(argv_and_config):
    run_contract(*argv_and_config)


@given(tsv=st.one_of(st.none(), PATH_TEXT), config=st.one_of(st.none(), config_text("verify-all")))
@settings(max_examples=5, deadline=None)
def test_verify_all_holds_the_exit_code_contract(tsv, config):
    argv = ["verify-all"] + ([] if tsv is None else ["--tsv", tsv])
    run_contract(argv, config)


def test_every_window_of_the_suite_the_ladder_and_the_goldens_is_under_the_cap():
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        from workloads import LADDER
    finally:
        sys.path.remove(perfbench)
    windows = [(record.name, *record.window) for record in algebras.CATALOGUE]
    windows += [(name, cli.parse_range(i), cli.parse_range(o)) for _, name, i, o in LADDER]
    for path in sorted((Path(__file__).parent / "data").glob("*.json")):
        echo = read_json(path)["inputsEcho"]
        if echo.get("in") is not None:
            windows.append((echo["algebra"], cli.parse_range(echo["in"]), cli.parse_range(echo["out"])))
    sizes = []
    for name, in_range, out_range in windows:
        # wab at a = 0, b = -1: any parameters give its two lines
        alg = algebras.wab(0, -1) if name == "wab" else algebras.AlgebraSpec(name)
        w = window_from_ranges(alg, in_range, out_range)
        sizes.append(len(w.keys) * len(w.out_keys))
    assert max(sizes) == 33 * 97 <= cli.MAX_UNKNOWNS  # the top ladder rung, wittz -16..16


@pytest.mark.parametrize(
    "ranges, size",
    [
        (["--in", "1..99999999999999999999999"], "about 10^46"),
        (["--in", "-200..200", "--out", "-600..600"], "481601"),
        (["--in", "1.." + "9" * 4300], "about 10^8600"),
    ],
    ids=["huge-in", "wide-in-and-out", "4300-digit-bound"],
)
def test_a_window_over_the_cap_exits_two_before_any_key_is_built(
    tmp_path, monkeypatch, capsys, ranges, size
):
    def no_window(*args):
        pytest.fail("a window over the cap was built")

    monkeypatch.setattr(cli, "window_from_ranges", no_window)
    out = tmp_path / "r.json"
    assert main(["solve", "--algebra", "wittz", *ranges, "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: window too large: {size} unknowns (|I|*|O|) over the cap of 100000\n"
    assert captured.out == ""
    assert not out.exists()


def test_the_cap_counts_both_lines_of_wab(capsys, monkeypatch):
    # 2*160 input keys times 2*160 output keys: 102,400 unknowns
    monkeypatch.setattr(cli, "window_from_ranges", lambda *args: pytest.fail("window built"))
    argv = ["solve", "--algebra", "wab", "--a", "0", "--b", "-1", "--in", "1..160"]
    assert main(argv) == 2
    assert "102400 unknowns" in capsys.readouterr().err


@st.composite
def over_the_cap_argv(draw):
    """argv for a windowed command whose --in/--out ranges, which may start
    below the algebra's floor, hold over 100,000 unknowns."""
    command = draw(st.sampled_from(["solve", "check-map", "local", "two-local"]))
    algebra = draw(st.sampled_from(["wittz", "wittpos", "witt1", "thin", "solv"]))
    lo = draw(st.integers(-10**6, 10))
    width = draw(st.one_of(st.integers(317, 10**6), st.just(10**4300 - 10**6)))
    argv = [command, "--algebra", algebra, "--in", f"{lo}..{lo + width}"]
    if draw(st.booleans()):
        argv += ["--out", f"{lo - draw(st.integers(0, 10))}..{lo + width + draw(st.integers(0, 10))}"]
    if command != "solve":
        maps = {"thin": "thin-delta", "solv": "solv-deltabar"}
        argv += ["--map", maps.get(algebra, "shift:t=1,w=1")]
    return argv


@given(over_the_cap_argv())
@settings(max_examples=40, deadline=None)
def test_windows_over_the_cap_hold_the_exit_code_contract(argv):
    code, err = run_contract(argv)
    assert code == 2
    assert err.startswith("error: window too large: ")


def _engine_exceptions():
    """Every exception class defined in a submodule of the ``deltader`` package."""
    found = set()
    for info in pkgutil.iter_modules(deltader.__path__):
        module = importlib.import_module(f"deltader.{info.name}")
        found |= {
            value
            for value in vars(module).values()
            if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == module.__name__
        }
    return found


def _handled_by_main():
    """The names in the ``except (...)`` of ``cli.main`` that exits 2."""
    tree = ast.parse(Path(cli.__file__).read_text())
    (main_def,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    handlers = [n for n in ast.walk(main_def) if isinstance(n, ast.ExceptHandler)]
    names = set()
    for handler in handlers:
        caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        names |= {node.id for node in caught}
    return names


def test_every_engine_error_exits_2_under_the_cli():
    # check-map turns SupportOverflow into a CliError; every other error the
    # engine defines must be in main's handled tuple, or it ends in a traceback
    exceptions = _engine_exceptions()
    assert {"CliError", "KeyOutOfDomain", "ParseError", "ResultTooLong", "WindowTooSmall"} <= {
        e.__name__ for e in exceptions
    }
    handled = _handled_by_main()
    assert sorted(e.__name__ for e in exceptions - {SupportOverflow} if e.__name__ not in handled) == []
