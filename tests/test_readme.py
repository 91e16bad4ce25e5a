"""The README's command-line block against the parser it documents.

Every subcommand appears in the block, and every ``--flag`` on a line is an
option of that line's subcommand, so a flag that the parser drops or renames
fails here before a reader types it.
"""

import re
from pathlib import Path

from deltader import cli

README = Path(__file__).resolve().parent.parent / "README.md"
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z-]*")


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
