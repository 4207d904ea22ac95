"""Record the golden CLI corpus replayed by tests/test_cli_golden.py.

Each line of cli_golden.jsonl is one {"argv", "code", "stdout"} record:
the arguments given to stableorders.cli.main, its exit code (argparse's
SystemExit code for usage errors) and the exact text it printed.  Record
only from code whose output is known good, then review the diff:

    PYTHONPATH=src python3 tests/data/record_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from stableorders.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.jsonl")

WALK_FILTER_CSV = "x2^4,x2^5,x2^6,x1*x2^4,x1*x2^5,x1^2*x2^4,x1^3*x2^3,x1^6"
PARTITION_RECORD = json.dumps(
    {"elements": [[2, 0, 0], [1, 1, 0], [0, 2, 0], [1, 0, 1]]}
)


def _both(*argv):
    """The invocation in text and in JSON."""
    return [list(argv), [*argv, "--format", "json"]]


def cases():
    out = []
    # compare: every relation, every family, glued posets, refusals
    for poset, left, right in (
        ("A[n=3,d=3]", "x1^2*x3", "x1*x2*x3"),
        ("A[n=3,d=3]", "x1*x2*x3", "x1^2*x3"),
        ("A[n=2,d=1]", "x1", "x1"),
        ("B[n=3,d=2]", "x2*x3", "x1*x3"),
        ("B[n=4,d=3]", "x1*x4^2", "x2^2*x4"),
        ("C[n=3,d=2]", "x1*x2", "x3^2"),
        ("D[n=2,d=3]", "x1*x2^2", "x1^2*x2"),
        ("A[n=3]", "x1", "x2^3"),
        ("B[n=3]", "x3^2", "x1^3"),
        ("D", "x1", "x1*x2"),
        ("A[*,*]", "x1*x4", "x2*x3"),
    ):
        out += _both("compare", "--poset", poset, left, right)
    out += [
        ["compare", "--poset", "A[n=3,d=2]", "y1", "x1^2"],
        ["compare", "--poset", "E[n=1]", "x1", "x1"],
        ["compare", "--poset", "A[n=3,d=2]", "x1", "x1^2"],
        ["compare", "--poset", "A[n=3,d=4]", "[1,2", "x1"],
        ["compare", "--poset", "A[n=3,d=2]", "--format", "dot", "x1^2", "x1^2"],
    ]
    # hasse: text, json and dot, truncations, refusals
    for poset in ("A[n=2,d=2]", "A[n=3,d=3]", "B[n=3,d=3]", "C[n=3,d=2]", "D[n=2,d=3]"):
        for fmt in ("text", "json", "dot"):
            out.append(["hasse", "--poset", poset, "--format", fmt])
    for poset, degree in (("D[n=2]", "1"), ("B[n=3]", "3"), ("A[n=2]", "3"), ("C[n=2]", "2")):
        for fmt in ("text", "json", "dot"):
            out.append(["hasse", "--poset", poset, "--max-degree", degree, "--format", fmt])
    out += [
        ["hasse", "--poset", "A[n=3,d=2]", "--cap", "2"],
        ["hasse", "--poset", "B[n=3]"],
        ["hasse", "--poset", "Q"],
    ]
    # meet and join, including a missing join and the Borel lattice
    for op, poset, left, right in (
        ("meet", "B[n=3,d=2]", "x1*x3", "x2^2"),
        ("join", "B[n=3,d=2]", "x1*x3", "x2^2"),
        ("meet", "A[n=3,d=2]", "x1*x3", "x2^2"),
        ("join", "A[n=3,d=3]", "x1*x3^2", "x2^3"),
        ("join", "D[n=2,d=2]", "x1", "x2"),
        ("meet", "D[n=2,d=2]", "x1*x2", "x2^2"),
        ("meet", "B[n=4,d=3]", "x1*x4^2", "x2^2*x4"),
        ("join", "B[n=4,d=3]", "x1*x4^2", "x2^2*x4"),
        ("join", "A[n=3]", "x3^2", "x1^3"),
        ("meet", "C[n=3,d=2]", "x1*x2", "x3^2"),
    ):
        out += _both(op, "--poset", poset, left, right)
    out += [
        ["join", "--poset", "D[n=2,d=2]", "x1^2", "x2^2"],
        ["meet", "--poset", "A[n=2,d=2]", "x1^3", "x1"],
        ["join", "--poset", "B[n=3]", "x3^2", "x1^3"],
    ]
    # count: totals, one size, the size profile, refusals
    for argv in (
        ("count", "--poset", "A[n=3,d=4]"),
        ("count", "--poset", "B[n=3,d=2]", "--cardinality", "4"),
        ("count", "--poset", "A[n=3,d=4]", "--cardinality", "0"),
        ("count", "--poset", "A[n=3,d=2]", "--cardinality", "99"),
        ("count", "--poset", "B[n=3,d=2]", "--by-cardinality"),
        ("count", "--poset", "D[n=2]", "--max-degree", "3"),
        ("count", "--poset", "C[n=3,d=3]", "--by-cardinality"),
        ("count", "--poset", "A[n=3,d=30]"),
        # one size on the sweep, fixed-degree and glued
        ("count", "--poset", "B[n=4,d=4]", "--cardinality", "2"),
        ("count", "--poset", "B[n=3]", "--max-degree", "4", "--cardinality", "30"),
        # one size of each closed form past its half, and of a chain
        ("count", "--poset", "A[n=4,d=5]", "--cardinality", "30"),
        ("count", "--poset", "A[n=3,d=9]", "--cardinality", "40"),
        ("count", "--poset", "D[n=2,d=6]", "--cardinality", "20"),
        ("count", "--poset", "B[n=3,d=5]", "--cardinality", "15"),
        ("count", "--poset", "A[n=6,d=1]", "--cardinality", "4"),
    ):
        out += _both(*argv)
    out += [
        ["count", "--poset", "A[n=3,d=3]", "--cap", "2"],
        ["count", "--poset", "B[n=3]"],
    ]
    # enumerate: whole listings, one size, refusals
    for argv in (
        ("enumerate", "--poset", "A[n=2,d=2]"),
        ("enumerate", "--poset", "B[n=3,d=2]", "--cardinality", "4"),
        ("enumerate", "--poset", "A[n=3,d=3]"),
        ("enumerate", "--poset", "A[n=3,d=3]", "--cardinality", "5"),
        ("enumerate", "--poset", "A[n=3,d=2]", "--cardinality", "0"),
        ("enumerate", "--poset", "A[n=3,d=2]", "--cardinality", "-1"),
        ("enumerate", "--poset", "A[n=3,d=2]", "--cardinality", "7"),
        ("enumerate", "--poset", "C[n=3,d=2]"),
        ("enumerate", "--poset", "D[n=2]", "--max-degree", "2"),
        ("enumerate", "--poset", "B[n=3]", "--max-degree", "2", "--cardinality", "3"),
        ("enumerate", "--poset", "B[n=3]", "--max-degree", "3"),
    ):
        out += _both(*argv)
    # JSON listings: the vertex 1 and the empty filter, glued and one-size
    out += [
        ["enumerate", "--poset", "D[n=2,d=0]", "--format", "json"],
        ["enumerate", "--poset", "D[n=3]", "--max-degree", "2", "--format", "json"],
        ["enumerate", "--poset", "C[n=4,d=3]", "--cardinality", "6", "--format", "json"],
    ]
    out += [
        ["enumerate", "--poset", "A[n=3,d=3]", "--cap", "3"],
        ["enumerate", "--poset", "A[n=3,d=3]", "--cardinality", "4", "--cap", "1"],
        ["enumerate", "--poset", "A[n=3,d=2]", "--hasse-cap", "2"],
    ]
    # bijections
    out += _both("bijection", "young", "x1^2*x3")
    out += _both("bijection", "young", "--inverse", "3,1,1")
    out += _both("bijection", "young", "--inverse", "")
    out += [
        ["bijection", "young", "x1", "--inverse", "1"],
        ["bijection", "young"],
    ]
    out += _both("bijection", "partition", "--poset", "A[n=3,d=7]", "--inverse", "[6,5,3,1]")
    out += _both("bijection", "partition", "--poset", "A[n=3,d=2]", "--inverse", "2")
    out += _both("bijection", "partition", "--poset", "A[n=3,d=2]", "--inverse", "")
    out += _both(
        "bijection", "partition", "--poset", "A[n=3,d=2]", "--filter", "x1^2,x1*x2,x2^2"
    )
    out += _both(
        "bijection", "partition", "--poset", "A[n=3,d=2]", "--filter", PARTITION_RECORD
    )
    out += [
        ["bijection", "partition", "--poset", "A[n=3,d=2]", "--filter", "x2^2"],
        ["bijection", "partition", "--poset", "B[n=3,d=2]", "--inverse", "2"],
        ["bijection", "partition", "--inverse", "2"],
        ["bijection", "partition", "--poset", "A[n=3,d=2]"],
    ]
    out += _both("bijection", "walk", "--poset", "D[n=2,d=6]", "--filter", WALK_FILTER_CSV)
    out += _both("bijection", "walk", "--poset", "D[n=2,d=1]", "--filter", "")
    out += _both("bijection", "walk", "--inverse", "DDDDRRRDRRDRDDRR", "--region", "8")
    out += _both("bijection", "walk", "--inverse", "DDRR", "--region", "2")
    out += [
        ["bijection", "walk", "--inverse", "DR", "--region", "2"],
        ["bijection", "walk", "--inverse", "DR"],
        ["bijection", "walk", "--poset", "D[n=2,d=6]", "--filter", '{"x": 1}'],
        ["bijection", "walk", "--poset", "D[n=2,d=6]", "--filter", "[1]"],
        ["bijection", "walk", "--poset", "A[n=2,d=6]", "--filter", "x1^6"],
    ]
    out += _both("bijection", "squarefree", "--degree", "7", "--parts", "6,5,3,1")
    out += _both("bijection", "squarefree", "--degree", "7", "--inverse", "x3*x4*x6*x8")
    out += [
        ["bijection", "squarefree", "--degree", "7"],
        ["bijection", "squarefree", "--degree", "2", "--parts", "9"],
    ]
    # term orders
    for argv in (
        ("termorder", "check", "--order", "degrevlex", "--n", "3", "--max-degree", "4"),
        ("termorder", "check", "--order", "lex", "--n", "2", "--max-degree", "1"),
        ("termorder", "check", "--order", "deglex", "--n", "2", "--max-degree", "3"),
        ("termorder", "check", "--order", "weighted", "--weights", "1,2,3",
         "--n", "3", "--max-degree", "3"),
        ("termorder", "check", "--order", "weighted", "--weights", "3,2,1",
         "--degree-first", "--n", "3", "--max-degree", "3"),
        ("termorder", "separate", "x1*x3", "x2^2", "--n", "3"),
        ("termorder", "separate", "x1*x4", "x2*x3"),
    ):
        out += _both(*argv)
    out += [
        ["termorder", "check", "--order", "weighted", "--n", "3"],
        ["termorder", "separate", "x2^2", "x1*x2"],
    ]
    # ideals
    for argv in (
        ("ideal", "check", "--order", "B", "--gens", "x2^2"),
        ("ideal", "check", "--order", "A", "--gens", "x2*x3,x2^2,x1*x3,x1*x2,x1^2"),
        ("ideal", "check", "--order", "B", "--gens", "x1^2,x1*x2,x2^2,x1*x2^2"),
        ("ideal", "close", "--order", "B", "--gens", "x2^2"),
        ("ideal", "close", "--order", "A", "--gens", "x2*x3"),
        ("ideal", "close", "--order", "A", "--gens", "x1^3,x2*x4"),
    ):
        out += _both(*argv)
    out += [["ideal", "check", "--order", "A", "--gens", ""]]
    # generating functions
    for terms in ("0", "4", "12"):
        out += _both("gf", "fountains", "--terms", terms)
    # verify
    out += _both("verify", "--suite", "all", "--seed", "0")
    out += _both("verify", "--suite", "splicing", "--seed", "5")
    out += _both("verify", "--suite", "fountains")
    # usage errors
    out += [
        ["verify", "--suite", "nonsense"],
        ["frobnicate"],
        [],
        ["gf", "fountains", "--terms", "x"],
        ["hasse", "--poset", "A[n=2,d=2]", "--format", "yaml"],
    ]
    return out


def run(argv):
    """(exit code, stdout) of one call of main; stderr is discarded."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue()


def record(path=GOLDEN):
    with open(path, "w") as fh:
        for argv in cases():
            code, stdout = run(argv)
            fh.write(json.dumps({"argv": argv, "code": code, "stdout": stdout}) + "\n")


if __name__ == "__main__":
    record()
