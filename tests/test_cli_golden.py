"""Replay the recorded CLI corpus: every subcommand under each --format it
accepts, plus the refusals, must keep its exit code and its exact stdout.

To re-record after an intended change of output, see
tests/data/record_cli_golden.py.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from stableorders.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.jsonl"
RECORDS = [json.loads(line) for line in GOLDEN.read_text().splitlines()]


@pytest.mark.parametrize("record", RECORDS, ids=[" ".join(r["argv"]) for r in RECORDS])
def test_replay(record, capsys):
    try:
        code = main(list(record["argv"]))
    except SystemExit as exc:
        code = exc.code
    out, _ = capsys.readouterr()
    assert (code, out) == (record["code"], record["stdout"])
