"""Each demo tour must print exactly its recorded output.

To re-record after an intended change of output, run this file as a
script: ``PYTHONPATH=src python tests/test_demos.py``.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
TOURS = sorted((ROOT / "demos").glob("*.py"))


def _run(tour: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(tour)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )


def _recorded(tour: Path) -> Path:
    return DATA / f"demo_{tour.stem}.txt"


@pytest.mark.parametrize("tour", TOURS, ids=[t.stem for t in TOURS])
def test_tour_prints_its_record(tour):
    done = _run(tour)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == _recorded(tour).read_text()


def test_every_tour_is_recorded():
    assert len(TOURS) == 4
    assert all(_recorded(t).exists() for t in TOURS)


if __name__ == "__main__":
    for tour in TOURS:
        done = _run(tour)
        if done.returncode:
            sys.exit(f"{tour.name}: exit {done.returncode}\n{done.stderr}")
        _recorded(tour).write_text(done.stdout)
        print(f"recorded {_recorded(tour).relative_to(ROOT)}")
