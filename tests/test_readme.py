"""The README against the code it documents.

Every subcommand appears in the command-line block, and every ``--flag`` on
a line is an option of that line's subcommand, so a flag that the parser
drops or renames fails here before a reader types it. The library example
runs as written. Every backticked name of the code resolves, so a name that
a change removes fails here. And the README states no measured time: a time
depends on the host and goes stale with the code, so timings live in
``CHANGES.md``.
"""

import builtins
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import deltader
from deltader import cli

README = Path(__file__).resolve().parent.parent / "README.md"
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z-]*")
# A number, or a range of two, followed by a unit of time: ``0.10 s``, ``3–4 s``, ``12ms``.
TIME = re.compile(r"(?<![\w.])\d[\d.,]*(?:[–-]\d[\d.,]*)?\s?(?:[mµun]?s|sec|seconds?|min|minutes?)\b")
MODULES = {
    info.name: importlib.import_module(f"deltader.{info.name}")
    for info in pkgutil.iter_modules(deltader.__path__)
}
# A backticked name, alone or called: ``cli.MAX_UNKNOWNS``, ``acceptance.certify(alg, w, margin)``.
SPAN = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"([a-z_]\w*(?:\.\w+)+)(?:\(|$)")
CAMEL = re.compile(r"(_?[A-Z][a-z]\w*(?:\.\w+)?)(?:\(|$)")


def _command_lines():
    """The lines of the first ``sh`` block under ``## Command line``."""
    text = README.read_text()
    section = text[text.index("## Command line\n"):]
    block = section[section.index("```sh\n") + len("```sh\n"):]
    return block[: block.index("```")].splitlines()


def _unknown_flags(lines):
    """(line, flag) for each flag on a ``deltader <command> ...`` line that is
    no option of that command, and the set of commands the lines use."""
    parser = cli.build_parser()
    unknown, used = [], set()
    for line in lines:
        program, command, *rest = line.split()
        assert program == "deltader", line
        actions = cli._subparser(parser, command)._actions
        options = {flag for action in actions for flag in action.option_strings}
        unknown += [(line, flag) for flag in FLAG.findall(" ".join(rest)) if flag not in options]
        used.add(command)
    return unknown, used


def test_the_command_line_block_matches_the_parser():
    unknown, used = _unknown_flags(_command_lines())
    assert unknown == []
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert used == set(sub.choices)


def test_a_stale_flag_is_reported():
    line = "deltader verify-all [--quick] [--json out.json] [--tsv sweep.tsv]"
    assert _unknown_flags([line]) == ([(line, "--quick")], {"verify-all"})


def test_the_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library layout\n"):]
    block = section[section.index("```python\n") + len("```python\n"):]
    exec(compile(block[: block.index("```")], "README.md", "exec"), {})


def _code_names(text):
    """The backticked dotted names whose first part is a deltader module, and
    the backticked CamelCase names, of ``text``."""
    spans = SPAN.findall(text)
    dotted = {m[1] for m in map(DOTTED.match, spans) if m and m[1].split(".")[0] in MODULES}
    return dotted, {m[1] for m in map(CAMEL.match, spans) if m}


def _resolves(owner, path):
    for name in path:
        if not hasattr(owner, name):
            return False
        owner = getattr(owner, name)
    return True


def _unresolved(text):
    """The code names of ``text`` that name nothing: a dotted name as an
    attribute path from the package, a CamelCase one from any deltader
    module or ``builtins``."""
    dotted, camel = _code_names(text)
    owners = (*MODULES.values(), builtins)
    missing = [name for name in dotted if not _resolves(deltader, name.split("."))]
    missing += [name for name in camel if not any(_resolves(o, name.split(".")) for o in owners)]
    return sorted(missing)


def test_the_readme_names_only_code_that_exists():
    text = README.read_text()
    dotted, camel = _code_names(text)
    assert dotted and camel
    assert _unresolved(text) == []


def test_a_stale_name_is_reported():
    text = "`algebras.degree`, `cli.main(argv)`, `SupportOverflow`, `WindowTooSmall`, `Window.columns`"
    assert _unresolved(text) == ["SupportOverflow", "algebras.degree"]


def test_the_readme_states_no_measured_time():
    assert TIME.findall(README.read_text()) == []


@pytest.mark.parametrize(
    "text, found",
    [
        ("takes 0.10 s at 3,201 unknowns", ["0.10 s"]),
        ("differed by 3–4 s on a VM", ["3–4 s"]),
        ("a p50 of 12ms", ["12ms"]),
        ("--in 3..9 --margin 4 exits 2; e1s and 10 shifts", []),
    ],
)
def test_a_measured_time_is_found(text, found):
    assert TIME.findall(text) == found
