"""The README's Python API example runs as written, and every ``hnf``
command it shows is one the CLI accepts."""

import re
import shlex
from pathlib import Path

import pytest

from hnf.cli import build_parser

README = Path(__file__).parents[1] / "README.md"


def test_python_api_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_shell_commands_parse():
    text = README.read_text().replace("\\\n", " ")
    commands = re.findall(r"^hnf (.*)$", text, re.M)
    assert len(commands) >= 3
    for line in commands:
        try:
            build_parser().parse_args(shlex.split(line))
        except SystemExit:
            pytest.fail(f"README command does not parse: hnf {line}")
