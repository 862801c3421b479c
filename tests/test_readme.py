"""The README's library and console examples run as written."""

import argparse
import json
import pathlib
import re
import shlex

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_console_examples_match_the_cli(capsys):
    from medlog.cli import main

    block = re.search(r"```console\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    examples = re.findall(r"^\$ medlog (.*)\n((?:(?!\$ ).*\n)*)", block.group(1), re.M)
    assert len(examples) == 5
    for command, expected in examples:
        main(shlex.split(command))
        out = capsys.readouterr().out
        if expected.startswith("{"):  # shown compacted, printed indented
            assert json.loads(out) == json.loads(expected), command
        else:
            assert out == expected, command


def test_readme_command_table_lists_every_option():
    """Each subcommand has one row in the command table, and the row names
    every ``--option`` of its parser; ``--file`` is described once above."""
    from medlog.cli import build_parser

    rows = dict(re.findall(r"^\| `([a-z-]+)( [^`]*)?` \|", README.read_text(encoding="utf-8"),
                           re.M))
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(rows) == sorted(commands)
    for name, parser in commands.items():
        options = {opt for action in parser._actions for opt in action.option_strings
                   if opt.startswith("--")} - {"--help", "--file"}
        missing = [opt for opt in sorted(options)
                   if not re.search(rf"{re.escape(opt)}(?![\w-])", rows[name])]
        assert missing == [], name
