"""The README's Python API example runs as written, every ``hnf`` command
it shows is one the CLI accepts, and it lists the report's columns."""

import re
import shlex
from pathlib import Path

import pytest

from hnf.cli import build_parser
from hnf.trainer import _CSV_FIELDS

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


def test_report_columns_match_the_code():
    bullet = re.search(r"^\* `report\.jsonl` / `report\.csv`: one record per "
                       r"row: (.*?)\.\s", README.read_text(), re.M | re.S)
    assert bullet, "README has no report.jsonl / report.csv bullet"
    assert re.findall(r"`(\w+)`", bullet.group(1)) == list(_CSV_FIELDS)
