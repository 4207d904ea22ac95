"""Differential of `stableorders count`, `enumerate`, `gf fountains`,
`hasse`, `ideal`, the `bijection partition`/`walk --filter` directions,
`compare`, `meet`, `join`, `termorder` and `verify` between a git revision
and this tree.

    python3 tests/data/diff_cli.py REV

Run from the root of a checkout.  REV's files are exported with `git archive`
into a temporary directory (nothing is fetched).  The same argv list then
runs through `stableorders.cli.main` in one child process per tree, one tree
at a time, each under a 1.5 GB address-space limit.  Every argv whose exit
code, stdout or stderr differs is printed (`verify` is compared on exit code
and stdout only, as its stderr holds timings), and the last line is a
summary such as `diff_cli: 0 of 1234 argv differ`.  Exit code 1 when any
differ.

The `count` argv cover A/B/C/D with n 1-5 and d 0-7 (plain, --format json,
--by-cardinality and --cardinality inside and outside the profile), glued
posets with --max-degree, the sizes of D[n=2,d], glued D[n=2] and B[n=3,d]
for d 8-30, side 3 past them (A and C[n=4,d] and glued A and C[n=3] to
degree d for d 8-12, A and C[n,3] for n 5-9), a small --cap, and the width
and vertex-count refusals.  The `enumerate` argv cover small A/B/C/D posets, fixed-degree
and glued, and the closed-form posets A[n=3,d=9], C[n=6,d=2], D[n=2,d=6]
and B[n=3,d=6], each at every cardinality from -1 to N+1 and none, as text
and JSON, with the default --cap and with --cap at the count less one and
at the count; the counts come from this tree's `filter_counts_by_size`.
They also list D[n=2,d=30], A[n=4,d=6], B[n=4,d=5] and C[n=4,d=6] at the
cardinalities 0-3 and N-3..N, as text and JSON.
The `gf fountains` argv ask for 0..400 and 1500 terms, and 10^9.

The `hasse` argv cover A/B/C/D with n 1-4 and d 0-4, and the glued posets
with --max-degree -1..3, as text, JSON and DOT; larger posets; chains of up
to 2000 variables, the widest the slot budget lets through; and the vertex
cap and unbounded refusals.  The `ideal check` and `ideal close` argv run
both orders on seeded generator sets of up to four monomials in up to five
variables, as text and JSON, on closures of up to 42,504 generators, and on
malformed and too-wide generators.  The `bijection partition` and `walk`
argv send every filter of A[n=3,d] (d 0-6) and D[n=2,d] (d 0-5), from this
tree's `verify.enumerate_filters`, as a comma list, a JSON list of names or
a JSON record, and the same filters without their top member (no longer
filters), with ground-set outsiders, and malformed payloads, among them JSON
nested 100,000 deep, inline and in a file.

The `compare`, `meet` and `join` argv take seeded pairs from the ground sets
of A/B/C/D with n 1-4 and d 0-3, and of the glued posets up to degree 3, as
text and JSON, with operands outside the ground set and malformed ones.  The
`termorder check` argv cover every kind, weighted ones with rising and
falling weights, with and without --degree-first, n 1-4 and max degree 0-4,
and a small --cap; the `termorder separate` argv take seeded pairs of
monomials in up to four variables.  The `verify` argv run every suite and
`all` with seeds 0-3.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import tempfile
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
LIMIT = 1_500_000_000
sys.path.insert(0, str(ROOT / "src"))

from stableorders.filters import filter_counts_by_size  # noqa: E402
from stableorders.lattice import build_hasse  # noqa: E402
from stableorders.monomials import Monomial, graded_lex_key, monomials_up_to_degree  # noqa: E402
from stableorders.orders import PosetId, ground_monomials  # noqa: E402
from stableorders.verify import SUITES, enumerate_filters  # noqa: E402

# Runs in each child: read the argv list from stdin, print one JSON record
# [code, stdout, stderr] per argv.
CHILD = r"""
import contextlib, io, json, sys
from stableorders.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded, so that the other tree is compared with it
            code = f"raised {type(exc).__name__}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _vertices(family, n, d):
    return comb(n + d, n) if family == "D" else comb(n - 1 + d, d)


def count_cases():
    out = []
    for family in "ABCD":
        for n in range(1, 6):
            for d in range(8):
                poset = f"{family}[n={n},d={d}]"
                size = _vertices(family, n, d)
                count = ["count", "--poset", poset]
                out += [
                    count,
                    [*count, "--format", "json"],
                    [*count, "--by-cardinality", *(("--format", "json") if d % 2 else ())],
                    [*count, "--cardinality", str(size // 2)],
                    [*count, "--cardinality", str((size + 1, -1)[d % 2]), "--format", "json"],
                ]
        for n in range(1, 5):
            for degree in range(-1, 6):
                glued = ["count", "--poset", f"{family}[n={n}]", "--max-degree", str(degree)]
                out += [glued, [*glued, "--by-cardinality"], [*glued, "--cardinality", "2"]]
        out.append(["count", "--poset", f"{family}[n=3]"])
        out.append(["count", "--poset", family, "--max-degree", "2"])
    # the sizes of D[n=2,d] and B[n=3,d], both of C(d+2, 2) vertices, past d = 7
    for d in range(8, 31):
        size = comb(d + 2, 2)
        for poset in ([f"D[n=2,d={d}]"], [f"B[n=3,d={d}]"], ["D[n=2]", "--max-degree", str(d)]):
            count = ["count", "--poset", *poset]
            out += [
                [*count, "--by-cardinality", *(("--format", "json") if d % 2 else ())],
                [*count, "--cardinality", str(size // 2)],
                [*count, "--cardinality", str((size + 1, 3)[d % 2]), "--format", "json"],
            ]
    # side 3 past d = 7: A and C[n=4,d] and glued A and C[n=3] (A[n=4,d]) to
    # d = 12, the largest whose two sweeps take seconds, and A and C[n,3]
    side_three = [([f"{f}[n=4,d={d}]"], comb(d + 3, 3)) for f in "AC" for d in range(8, 13)]
    side_three += [([f"{f}[n={n},d=3]"], comb(n + 2, 3)) for f in "AC" for n in range(5, 10)]
    side_three += [([f"{f}[n=3]", "--max-degree", str(d)], comb(d + 3, 3))
                   for f in "AC" for d in range(8, 13)]
    for poset, size in side_three:
        count = ["count", "--poset", *poset]
        out += [count, [*count, "--by-cardinality"], [*count, "--cardinality", str(size // 3)]]
    for poset in ("A[n=3,d=4]", "C[n=5,d=2]", "D[n=2,d=4]", "B[n=3,d=4]", "A[n=9,d=1]",
                  "D[n=1,d=9]", "B[n=5,d=3]"):
        out.append(["count", "--poset", poset, "--cap", "3"])
        out.append(["count", "--poset", poset, "--cap", "3", "--by-cardinality"])
    for poset in ("A[n=3]", "D[n=2]"):
        out.append(["count", "--poset", poset, "--max-degree", "4", "--cap", "5"])
    # the width bound, and vertex counts over the cap or too large to compute
    for poset in ("A[n=1000001,d=0]", "D[n=1000001,d=0]", "B[n=300000000,d=0]",
                  "C[n=1000001,d=1]", "D[n=1000001]"):
        for extra in ((), ("--cap", "2000000"), ("--max-degree", "0")):
            out.append(["count", "--poset", poset, *extra])
    for poset in ("A[n=30,d=10]", "A[n=1000000,d=1000000]", "D[n=2,d=1000]", "A[n=3,d=400]",
                  "B[n=3,d=400]", "A[n=400,d=2]", "A[n=60000,d=1]", "D[n=1,d=60000]"):
        out.append(["count", "--poset", poset])
        out.append(["count", "--poset", poset, "--by-cardinality"])
    # malformed input
    out += [
        ["count", "--poset", "E[n=2,d=2]"],
        ["count", "--poset", "A[n=0,d=2]"],
        ["count", "--poset", "A[n=2,d=-1]"],
        ["count", "--poset", "A[n=2,d=2]", "--cardinality", "x"],
        ["count"],
    ]
    return out


def _enumerate_posets():
    """(poset text, --max-degree or None) of every enumerated poset."""
    out = []
    for family in "ABCD":
        for n in range(1, 5):
            for d in range(5):
                if _vertices(family, n, d) <= 20:
                    out.append((f"{family}[n={n},d={d}]", None))
            for degree in range(-1, 4):
                glued = _vertices("D", n, degree) if degree >= 0 else 0
                if glued <= 20:
                    out.append((f"{family}[n={n}]", degree))
    out += [("A[n=3,d=9]", None), ("C[n=6,d=2]", None), ("D[n=2,d=6]", None),
            ("B[n=3,d=6]", None), ("C[n=4,d=4]", None), ("D[n=2]", 5)]
    return out


def enumerate_cases():
    out = []
    for poset, max_degree in _enumerate_posets():
        profile = filter_counts_by_size(build_hasse(PosetId.parse(poset), max_degree=max_degree))
        base = ["enumerate", "--poset", poset]
        if max_degree is not None:
            base += ["--max-degree", str(max_degree)]
        for cardinality in [None, *range(-1, len(profile) + 1)]:
            if cardinality is None:
                argv, count = base, sum(profile)
            else:
                argv = [*base, "--cardinality", str(cardinality)]
                count = profile[cardinality] if 0 <= cardinality < len(profile) else 0
            for fmt in ((), ("--format", "json")):
                for cap in ((), ("--cap", str(count - 1)), ("--cap", str(count))):
                    out.append([*argv, *fmt, *cap])
    # the smallest and largest sizes of larger posets, where the walk drops
    # the vertices whose up-sets do not fit
    for family, n, d in (("D", 2, 30), ("A", 4, 6), ("B", 4, 5), ("C", 4, 6)):
        size = _vertices(family, n, d)
        for cardinality in (*range(4), *range(size - 3, size + 1)):
            for fmt in ((), ("--format", "json")):
                out.append(["enumerate", "--poset", f"{family}[n={n},d={d}]",
                            "--cardinality", str(cardinality), *fmt])
    return out


def fountain_cases():
    as_json = ("--format", "json")
    out = [["gf", "fountains", "--terms", str(t), *(as_json if t % 7 == 3 else ())]
           for t in range(401)]
    out += [["gf", "fountains", "--terms", "1500"], ["gf", "fountains", "--terms", "1000000000"]]
    return out


def hasse_cases():
    formats = [(), ("--format", "json"), ("--format", "dot")]
    out = []
    for family in "ABCD":
        for n in range(1, 5):
            for d in range(5):
                out += [["hasse", "--poset", f"{family}[n={n},d={d}]", *f] for f in formats]
            for degree in range(-1, 4):
                glued = ["hasse", "--poset", f"{family}[n={n}]", "--max-degree", str(degree)]
                out += [[*glued, *f] for f in formats]
        out.append(["hasse", "--poset", f"{family}[n=3]"])
        out.append(["hasse", "--poset", f"{family}[n=3,d=4]", "--cap", "3"])
    for poset in ("A[n=3,d=12]", "B[n=5,d=4]", "C[n=5,d=4]", "D[n=4,d=5]"):
        out += [["hasse", "--poset", poset, *f] for f in formats]
    for poset in ("A[n=1200,d=1]", "B[n=1200,d=1]", "C[n=1000,d=1]", "A[n=2000,d=1]",
                  "A[n=30,d=10]", "A[n=1000001,d=0]"):
        out.append(["hasse", "--poset", poset])
    return out


def ideal_cases():
    rng = random.Random(18)
    out = []
    for k in range(150):
        gens = []
        for _ in range(rng.randint(1, 4)):
            exps = [rng.randint(0, 2) for _ in range(rng.randint(1, 5))]
            terms = [f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps, 1) if e]
            gens.append("*".join(terms) or "1")
        for order in "AB":
            for action in ("check", "close"):
                argv = ["ideal", action, "--order", order, "--gens", ",".join(gens)]
                out.append([*argv, "--format", "json"] if k % 3 == 0 else argv)
    for gens in ("x20^5", "x12^4", "x1200", "x2*x3,x1^3", "x4^3,x2*x5^2",
                 "x1,x300000000", "", "y1", "x0", "[1,2", "x2^2,"):
        for order in "AB":
            for action in ("check", "close"):
                out.append(["ideal", action, "--order", order, "--gens", gens])
    return out


def _payloads(members, k):
    """The members as a comma list, a JSON list of names or a JSON record."""
    names = [str(m) for m in sorted(members, key=graded_lex_key)]
    if k % 3 == 0:
        return ",".join(names)
    if k % 3 == 1:
        return json.dumps(names)
    return json.dumps({"elements": [list(m.exps) for m in members]})


def bijection_cases(tmp):
    deep = ["[" * 100000, '{"elements": ' + "[" * 100000]
    for i, payload in enumerate(deep):
        (tmp / f"deep{i}.json").write_text(payload)
    out = []
    for kind, family, n, degrees in (("partition", "A", 3, range(7)), ("walk", "D", 2, range(6))):
        for d in degrees:
            poset = f"{family}[n={n},d={d}]"
            base = ["bijection", kind, "--poset", poset]
            for k, members in enumerate(enumerate_filters(build_hasse(PosetId.parse(poset)))):
                out.append([*base, "--filter", _payloads(members, k),
                            *(("--format", "json") if k % 4 == 1 else ())])
                top = max(members, key=graded_lex_key, default=None)
                if len(members) > 1:
                    out.append([*base, "--filter", _payloads(members - {top}, k)])
                if k % 5 == 0:
                    outsider = Monomial.from_terms({n + 1: d + 1})
                    out.append([*base, "--filter", _payloads(members | {outsider}, k)])
            for bad in ('{"foo":1}', '{"elements": 3}', '{"elements": [true]}', '{"elements": [',
                        f"x1^{d + 1}", "x300000000", "[]", "", "x1^-1", "{}"):
                out.append([*base, "--filter", bad])
        out.append(["bijection", kind, "--poset", f"{family}[n={n + 1},d=2]", "--filter", "[]"])
        poset = f"{family}[n={n},d=2]"
        for i, payload in enumerate(deep):
            for argument in (payload, str(tmp / f"deep{i}.json")):
                out.append(["bijection", kind, "--poset", poset, "--filter", argument])
    return out


def operand_cases():
    rng = random.Random(20)
    out = []
    posets = [(f"{family}[n={n},d={d}]", None) for family in "ABCD" for n in range(1, 5)
              for d in range(4)]
    posets += [(f"{family}[n={n}]", n) for family in "ABCD" for n in range(1, 5)]
    posets += [("A", 3), ("B", 3), ("D", 3)]
    for k, (text, nvars) in enumerate(posets):
        poset = PosetId.parse(text)
        pool = ground_monomials(poset) if nvars is None else monomials_up_to_degree(nvars, 3)
        names = [str(m) for m in pool]
        pairs = [(rng.choice(names), rng.choice(names)) for _ in range(12)]
        pairs += [("x5^2", names[0]), (names[-1], "x1^9"), ("x0", "x1"), ("x1^-1", "x2")]
        for i, (left, right) in enumerate(pairs):
            command = ("compare", "meet", "join")[i % 3]
            argv = [command, "--poset", text, left, right]
            out.append([*argv, "--format", "json"] if (i + k) % 4 == 0 else argv)
    return out


def termorder_cases():
    rng = random.Random(21)
    out = []
    for n in range(1, 5):
        for max_degree in range(5):
            base = ["--n", str(n), "--max-degree", str(max_degree)]
            for kind in ("lex", "deglex", "degrevlex"):
                out.append(["termorder", "check", "--order", kind, *base])
            falling = ",".join(str(n - i) for i in range(n))
            rising = ",".join(str(i + 1) for i in range(n))
            for weights in (falling, rising):
                for first in ((), ("--degree-first",)):
                    out.append(["termorder", "check", "--order", "weighted", "--weights", weights,
                                *first, *base, *(("--format", "json") if max_degree % 2 else ())])
    out += [["termorder", "check", "--order", "lex", "--n", "3", "--max-degree", "4",
             "--cap", "100"],
            ["termorder", "check", "--order", "weighted", "--n", "3"],
            ["termorder", "check", "--order", "lex", "--n", "0"]]
    pool = [str(m) for m in monomials_up_to_degree(4, 3)]
    for i in range(120):
        left, right = rng.choice(pool), rng.choice(pool)
        out.append(["termorder", "separate", left, right,
                    *(("--n", "4") if i % 3 == 0 else ()),
                    *(("--format", "json") if i % 4 == 1 else ())])
    return out


def verify_cases():
    return [["verify", "--suite", suite, "--seed", str(seed)]
            for suite in ("all", *SUITES) for seed in range(4)]


def cases(tmp):
    return (count_cases() + enumerate_cases() + fountain_cases() + hasse_cases()
            + ideal_cases() + bijection_cases(tmp) + operand_cases() + termorder_cases()
            + verify_cases())


def _run(src, argv_list):
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=json.dumps(argv_list),
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT)),
    )
    if done.returncode:
        sys.exit(f"diff_cli: the child for {src} failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout)


def main(rev):
    with tempfile.TemporaryDirectory() as tmp:
        argv_list = cases(Path(tmp))
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        before = _run(Path(tmp) / "src", argv_list)
        after = _run(ROOT / "src", argv_list)
    differ = 0
    for argv, old, new in zip(argv_list, before, after):
        if argv[0] == "verify":  # its stderr holds timings
            old, new = old[:2], new[:2]
        if old != new:
            differ += 1
            print(f"{' '.join(argv):.300}\n  {rev}: {old!r:.300}\n  tree: {new!r:.300}")
    print(f"diff_cli: {differ} of {len(argv_list)} argv differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
