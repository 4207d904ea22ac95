"""Replay the recorded CLI corpus: every subcommand under each --format it
accepts, plus the refusals, must keep its exit code and its exact stdout.

To re-record after an intended change of output, see
tests/data/record_cli_golden.py.
"""
from __future__ import annotations

import json
import random
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


@pytest.mark.parametrize("seed", [0, 1])
def test_replay_in_any_order(seed, capsys):
    # diagrams built by earlier calls in the process change no output
    records = RECORDS * 2
    random.Random(seed).shuffle(records)
    for record in records:
        try:
            code = main(list(record["argv"]))
        except SystemExit as exc:
            code = exc.code
        out, _ = capsys.readouterr()
        assert (code, out) == (record["code"], record["stdout"]), record["argv"]
