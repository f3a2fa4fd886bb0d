"""README's commands and library example run as written."""

import re
import shlex
from pathlib import Path

from cvqss.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def test_every_cli_line_exits_zero(capsys):
    commands = [
        line for block in _blocks("sh") for line in block.splitlines()
        if line.startswith("cvqss ")
    ]
    assert len(commands) == 5
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().err == "", line


def test_library_example_runs(capsys):
    (example,) = _blocks("python")
    exec(example, {})
    assert capsys.readouterr().out.startswith("(")
