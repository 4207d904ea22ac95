"""Tests of the verify suites as a library module."""
from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stableorders
from stableorders import verify
from stableorders.bijections import LatticeWalk
from stableorders.cli import _build_parser
from stableorders.lattice import HasseDiagram, build_hasse
from stableorders.monomials import Monomial
from stableorders.orders import Family, PosetId
from stableorders.termorders import TermOrder


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


# Each value class as (class, arguments, other arguments, repr): the repr a
# dataclass wrote, which the plain classes keep.
RECORDS = [
    (PosetId, (Family.BOREL, 3, 4), (Family.BOREL, 3, 5),
     "PosetId(family=<Family.BOREL: 'A'>, nvars=3, degree=4)"),
    (LatticeWalk, (1, ("D", "R")), (0, ()), "LatticeWalk(region=1, steps=('D', 'R'))"),
    (TermOrder, ("weighted", (3, 2, 1), True), ("weighted", (3, 2, 1)),
     "TermOrder(kind='weighted', weights=(3, 2, 1), degree_first=True)"),
    (TermOrder, ("lex",), ("deglex",), "TermOrder(kind='lex', weights=None, degree_first=False)"),
    (verify.Fountain, (((0, 1), (0,)),), (((0, 1),),), "Fountain(rows=((0, 1), (0,)))"),
    (verify.PlanarPartition, (((2, 1), (1, 0)),), (((1,),),), "PlanarPartition(heights=((2, 1), (1, 0)))"),
]


@pytest.mark.parametrize("cls, args, other, text", RECORDS)
def test_records_compare_hash_and_show_their_fields(cls, args, other, text):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and hash(a) == hash(b) and repr(a) == text
    assert a != cls(*other) and a != args
    for name in re.findall(r"(\w+)=", text):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
    with pytest.raises(AttributeError):
        a.note = 1


def test_weighted_order_keeps_its_weights_as_a_tuple():
    assert TermOrder("weighted", [2, 1]) == TermOrder("weighted", (2, 1))
    assert TermOrder("weighted", [2, 1]).weights == (2, 1)


def test_report_is_filled_in_place():
    report = verify.VerifyReport("probe")
    assert report == verify.VerifyReport("probe", 0, 0, [], 0.0)
    assert repr(report) == "VerifyReport(suite='probe', passed=0, failed=0, failures=[], runtime_ms=0.0)"
    assert report.failures is not verify.VerifyReport("probe").failures
    report.runtime_ms = 1.5
    assert report != verify.VerifyReport("probe")
    with pytest.raises(TypeError):
        hash(report)


def test_diagram_equals_only_itself():
    poset = PosetId.parse("A[n=2,d=1]")
    h, again = build_hasse(poset), build_hasse(poset)
    assert h == h and h != again and hash(h) != hash(again)
    assert repr(h) == (
        "HasseDiagram(poset=PosetId(family=<Family.BOREL: 'A'>, nvars=2, degree=1), "
        "vertices=(Monomial([0, 1]), Monomial([1])), covers=((0, 1),))"
    )
    assert h.up_masks() is h.up_masks() and h.down_masks() == [0b01, 0b11]
    with pytest.raises(AttributeError):
        h.note = 1


def test_a_short_call_imports_only_what_it_uses():
    """Under -S, importing the CLI loads none of dataclasses, inspect, ast,
    random and __future__; parsing an exponent vector loads ast, and a
    suite random."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys\n"
        "import stableorders.cli\n"
        "from stableorders import verify\n"
        "from stableorders.monomials import Monomial\n"
        "print(*(m in sys.modules for m in ('dataclasses', 'inspect', 'ast', 'random', '__future__')))\n"
        "Monomial.parse('[2,0,1]')\n"
        "print('ast' in sys.modules, 'random' in sys.modules)\n"
        "verify.run_suite('distributivity')\n"
        "print('random' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "False False False False False\nTrue False\nTrue\n", "")


# The brute-force oracles and the paper's constructions that only re-check
# an answer, which live in verify only, and the helpers that nothing in the
# package called, now gone from it or kept in the tests.
ORACLES = {
    "borel_moves_up", "stable_moves_up", "reachability_oracle", "_meet_join_tables",
    "check_distributive", "find_n5", "height_width", "_filter_poly", "pivot_filter_counts",
    "ordinal_sum_leq",
    "partial_sums",
    "NotGradedError", "_iter_bits", "_longest_path_ranks", "rank_sizes", "gaussian",
    "_is_up_closed", "_interior", "interior", "boundary", "is_filter_by_layers",
    "enumerate_filters", "filter_count_three_vars",
    "young_contains", "remove_first_column", "enumerate_walks", "Fountain", "iter_fountains",
    "count_fountains", "limit_filter_count", "PlanarPartition", "_strict_partitions",
    "_fits_under", "iter_filter_level_stacks",
    "planar_partition_from_levels",
    "random_weight_vector",
    "weighted_walk_count", "diagram_leq",
}
GONE = {"index_weight", "antitone_dual_sequence", "ideal_contains", "is_strictly_decreasing",
        "planar_partition_filter_count"}
ANSWERING = ("monomials", "orders", "lattice", "filters", "bijections", "termorders")


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
    # cli renders every output format; the diagram renders none, and
    # compares nothing: diagram_leq reads its up masks
    assert not {"to_dot", "to_json_dict", "index", "leq", "leq_indices"} & vars(HasseDiagram).keys()
    assert not {"transfer", "times_var"} & vars(Monomial).keys()


# The top-level names and methods of the answering modules that no command
# reaches, each with the reason it stays where it is.
UNREACHED = {
    # the documented middle value of TermOrder.compare, beside LESS and GREATER
    ("termorders", "EQUAL"),
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, nodes, is_method) for each name a module binds at top level by
    def, class or assignment, with the nodes its source spans, and for each
    method other than a dunder, named Class.method.  A class's own nodes
    leave those methods out: reaching it reaches its dunders and the rest
    of its body only."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, [node], False
        elif isinstance(node, ast.ClassDef):
            methods = [sub for sub in node.body if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not _is_dunder(sub.name)]
            yield from ((f"{node.name}.{sub.name}", [sub], True) for sub in methods)
            yield node.name, [sub for sub in ast.iter_child_nodes(node) if sub not in methods], False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, [node], False) for t in targets if isinstance(t, ast.Name))


def _names_used(nodes):
    """(name, is_attribute) for every name and attribute name that the
    nodes' source mentions."""
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Name):
            yield sub.id, False
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, True


def test_answering_modules_hold_only_what_cli_reaches():
    """Walk the call graph from every top-level definition of cli over the
    sources, never importing them, through every module but verify.  A
    top-level name counts as reached when reached code names it or reads it
    as an attribute, and a method when reached code reads its name as an
    attribute of any object; any definition of a reached name is, so the
    walk can only overcount.  What it does not reach belongs in verify."""
    package = Path(__file__).resolve().parents[1] / "src" / "stableorders"
    definitions, methods = {}, {}
    for path in sorted(package.glob("*.py")):
        if path.stem != "verify":
            for name, nodes, is_method in _definitions(ast.parse(path.read_text())):
                # module metadata such as __version__ is read, not called
                if is_method:
                    methods.setdefault(name.rpartition(".")[2], []).append((path.stem, name, nodes))
                elif not _is_dunder(name):
                    definitions.setdefault(name, []).append((path.stem, name, nodes))
    todo = [(name, False) for name, sites in definitions.items() if any(m == "cli" for m, _, _ in sites)]
    seen, reached = set(), set()
    while todo:
        used = todo.pop()
        if used not in seen:
            seen.add(used)
            name, is_attribute = used
            sites = definitions.get(name, []) + (methods.get(name, []) if is_attribute else [])
            for module, full, nodes in sites:
                if (module, full) not in reached:
                    reached.add((module, full))
                    todo.extend(_names_used(nodes))
    unreached = {(module, full) for table in (definitions, methods) for sites in table.values()
                 for module, full, _ in sites} - reached
    assert unreached == UNREACHED
