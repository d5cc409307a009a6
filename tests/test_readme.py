"""The README's Python API example runs as written, every ``hnf`` command
it shows is one the CLI accepts, and it lists the report's columns, the
``--config`` fields, one for each train flag, the options each data source
takes, and the error classes behind each exit code."""

import re
import shlex
from contextlib import suppress
from dataclasses import fields

import pytest

from hnf.cli import (_CSV_FIELDS, _DATA_OPTIONS, _TRAIN_SETTINGS,
                     _data_options, build_parser)
from hnf.errors import ConfigError, DataError, ResourceError
from hnf.trainer import TrainConfig
from conftest import ERROR_CLASSES, README, exit_code_rows


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
    """The README lists each setting's ``--config`` field, in flag order."""
    sentence = re.search(r"The fields, in\s+the order of their flags, are "
                         r"(.*?)\s+\(each flag's", README.read_text(), re.S)
    assert sentence, "README has no 'The fields ... are' sentence"
    assert re.findall(r"`([\w.]+)`", sentence.group(1)) == [
        field for _, field in _TRAIN_SETTINGS.values()]


def test_config_keys_are_the_train_flags():
    """Each train flag but ``--config`` and ``--out`` is a setting, and the
    ``config`` fields the settings name are the :class:`TrainConfig`
    fields but the memory budget, which the environment gives."""
    dests = vars(build_parser().parse_args(["train", "--out", "x"])).keys() - {
        "command", "config", "out"}
    assert dests == _TRAIN_SETTINGS.keys()
    assert {field.partition(".")[2] for _, field in _TRAIN_SETTINGS.values()
            if field.startswith("config.")} == {
        f.name for f in fields(TrainConfig)} - {"memory_budget"}


def test_data_source_options_match_the_code():
    """One row per kind of source, listing in the code's order exactly the
    data options the code lets that source take."""
    table = re.search(r"^\| source \| options it takes \|\n\| --- \| --- \|\n"
                      r"((?:\|.*\|\n)+)", README.read_text(), re.M)
    assert table, "README has no data source options table"
    rows = [re.fullmatch(r"\| `(.+)` \| (.+) \|", row).groups()
            for row in table.group(1).splitlines()]
    assert [(source.partition(":")[0], source.count(",")) for source, _ in rows
            ] == [("blobs", 0), ("csv", 0), ("idx", 1), ("idx", 3)]
    for source, options in rows:
        taken = []
        for dest in _DATA_OPTIONS:
            values = {**dict.fromkeys(_DATA_OPTIONS), "seed": 0, dest: 1}
            with suppress(ConfigError):
                _data_options(source, values, config=False)
                taken.append("--" + dest.replace("_", "-"))
        listed = re.findall(r"`(--[\w-]+)`", options)
        assert listed == taken and (taken or options == "none"), source


def test_exit_codes_match_the_classes():
    """Each error class is named in one row of the exit-code table, the row
    of its ``exit_code`` (DataError's for an OSError, ResourceError's for a
    MemoryError), and the table names no other; row 0 names none."""
    rows = exit_code_rows()
    builtin = {OSError: DataError, MemoryError: ResourceError}
    for cls in ERROR_CLASSES:
        assert [code for code, names in rows if cls.__name__ in names] == [
            builtin.get(cls, cls).exit_code], cls.__name__
    assert sorted(name for _, names in rows for name in names) == sorted(
        cls.__name__ for cls in ERROR_CLASSES)
    assert [names for code, names in rows if code == 0] == [[]]
