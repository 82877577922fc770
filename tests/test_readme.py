"""The README's examples run and print what their comments say."""
import argparse
import ast
import json
import re
from pathlib import Path

from fiforoute.cli import build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, lang: str = "") -> str:
    """The first fenced block after a level-2 heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"^```{lang}\n(.*?)^```$", section, re.M | re.S).group(1)


def test_quick_start_runs_and_matches_its_comments():
    block = fenced_block("Quick start", "python")
    namespace: dict = {}
    exec(block, namespace)
    checks = [
        (code.strip(), ast.literal_eval(comment.strip()))
        for code, _, comment in (line.partition("#") for line in block.splitlines())
        if code.strip() and comment
    ]
    assert checks == [
        ("result.completions", (3, 4, 5)),
        ("result.makespan", 5),
        ("result.arrivals", ((0, 0, 0), (1, 2, 2), (3, 4, 5))),
    ]
    for expr, expected in checks:
        assert eval(expr, namespace) == expected, expr


def test_command_line_example_files_load(tmp_path, capsys):
    files = dict(line.split(None, 1) for line in fenced_block("Command line").splitlines())
    assert sorted(files) == ["game.json", "state.json"]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main(["load", str(tmp_path / "game.json"), str(tmp_path / "state.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"arrivals": [[0, 0, 0], [1, 2, 2], [3, 4, 5]], "completions": [3, 4, 5], "makespan": 5}


def test_command_line_table_lists_every_subcommand():
    section = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([a-z-]+)", section, re.M)
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert listed == list(sub.choices)


def test_command_line_section_names_every_option():
    section = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    tokens = set(re.findall(r"(?<![\w-])--?[\w-]+", section))
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    missing = [
        (name, option)
        for name, parser in sub.choices.items()
        for action in parser._actions
        for option in action.option_strings
        if option not in ("-h", "--help") and option not in tokens
    ]
    assert missing == []
