"""Tests of the verify suites as a library module."""
from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stableorders
from stableorders import verify
from stableorders.cli import _build_parser
from stableorders.lattice import HasseDiagram


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


# The brute-force oracles, which live in verify only, and the helpers that
# nothing in the package called, now gone from it or kept in the tests.
ORACLES = {
    "borel_moves_up", "stable_moves_up", "reachability_oracle", "_meet_join_tables",
    "check_distributive", "find_n5", "height_width", "_filter_poly", "pivot_filter_counts",
    "ordinal_sum_leq",
}
GONE = {"index_weight", "antitone_dual_sequence", "ideal_contains", "is_strictly_decreasing"}
ANSWERING = ("monomials", "orders", "lattice", "filters", "termorders")


def _imported_modules(module):
    """The modules an import statement of module's source names, relative
    ones as they are written: ".verify", "..", "stableorders.verify"."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            names.update(base + ("" if base.endswith(".") else ".") + a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
    return names


def test_oracles_live_only_in_verify():
    assert ORACLES <= vars(verify).keys()
    for name in ANSWERING:
        module = importlib.import_module(f"stableorders.{name}")
        assert not (ORACLES | GONE) & vars(module).keys(), name
        assert not {".verify", "stableorders.verify"} & _imported_modules(module), name
    for info in pkgutil.iter_modules(stableorders.__path__):
        module = importlib.import_module(f"stableorders.{info.name}")
        assert not GONE & vars(module).keys(), info.name
    # cli renders every output format; the diagram renders none
    assert not {"to_dot", "to_json_dict"} & vars(HasseDiagram).keys()

