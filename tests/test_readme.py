"""The README's Python API example runs as written, every ``hnf`` command
it shows is one the CLI accepts, and it lists the report's columns and the
config keys, which are the train flags."""

import re
import shlex
from pathlib import Path

import pytest

from hnf.cli import _TRAIN_SETTINGS, build_parser
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


def test_config_keys_match_the_code():
    sentence = re.search(r"The keys\s+are (.*?)\s+\(a `-`", README.read_text(),
                         re.S)
    assert sentence, "README has no 'The keys are' sentence"
    assert re.findall(r"`(\w+)`", sentence.group(1)) == list(_TRAIN_SETTINGS)


def test_config_keys_are_the_train_flags():
    dests = vars(build_parser().parse_args(["train"])).keys() - {
        "command", "config", "blob_p", "blob_q", "blob_n", "blob_sep"}
    assert dests == _TRAIN_SETTINGS.keys()
