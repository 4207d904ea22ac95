"""Tests of the verify suites as a library module."""
from __future__ import annotations

import argparse
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stableorders
from stableorders import verify
from stableorders.cli import _build_parser


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", list(verify.SUITES))
def test_every_suite_passes(name, seed):
    report = verify.run_suite(name, seed)
    assert (report.suite, report.failed, report.failures) == (name, 0, [])
    assert report.passed > 0
    assert report.runtime_ms >= 0


def test_report_counts_failures():
    report = verify.VerifyReport("probe")
    report.check("holds", True)
    report.check("breaks", False)
    assert (report.passed, report.failed, report.failures) == (1, 1, ["breaks"])


def test_cli_suite_choices():
    commands = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
    assert suite.choices == ("all", *verify.SUITES)


def test_library_does_not_import_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    modules = [
        f"stableorders.{info.name}"
        for info in pkgutil.iter_modules(stableorders.__path__)
        if info.name != "cli"
    ]
    assert "stableorders.verify" in modules
    probe = f"import sys\nimport {', '.join(modules)}\nprint('stableorders.cli' in sys.modules)\n"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "False\n")
