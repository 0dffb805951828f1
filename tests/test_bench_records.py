"""The BENCH_*.json records at the repository root stay readable: each
parses and names its change, claim, command, the two commits it compared
and the machine it ran on."""

import json
from pathlib import Path

import pytest

RECORDS = sorted((Path(__file__).resolve().parent.parent).glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_fields(path):
    record = json.loads(path.read_text())
    for key in ("name", "command", "parent_commit", "change_commit"):
        assert isinstance(record.get(key), str) and record[key], key
    # a record that claims no gain says so with null
    assert "claim" in record
    assert record["claim"] is None or isinstance(record["claim"], dict)
    env = record["environment"]
    assert isinstance(env["cpu_model"], str) and env["cpu_model"]
    assert isinstance(env["nproc"], int) and env["nproc"] >= 1
