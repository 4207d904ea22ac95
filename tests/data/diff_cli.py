"""Differential of `stableorders count`, `enumerate` and `gf fountains`
between a git revision and this tree.

    python3 tests/data/diff_cli.py REV

Run from the root of a checkout.  REV's files are exported with `git archive`
into a temporary directory (nothing is fetched).  The same argv list then
runs through `stableorders.cli.main` in one child process per tree, one tree
at a time, each under a 1.5 GB address-space limit.  Every argv whose exit
code, stdout or stderr differs is printed, and the last line is a summary
such as `diff_cli: 0 of 1234 argv differ`.  Exit code 1 when any differ.

The `count` argv cover A/B/C/D with n 1-5 and d 0-7 (plain, --format json,
--by-cardinality and --cardinality inside and outside the profile), glued
posets with --max-degree, a small --cap, and the width and vertex-count
refusals.  The `enumerate` argv cover small A/B/C/D posets, fixed-degree
and glued, and the closed-form posets A[n=3,d=9], C[n=6,d=2], D[n=2,d=6]
and B[n=3,d=6], each at every cardinality from -1 to N+1 and none, as text
and JSON, with the default --cap and with --cap at the count less one and
at the count; the counts come from this tree's `filter_counts_by_size`.
The `gf fountains` argv ask for 0..400 and 1500 terms, and 10^9.
"""

from __future__ import annotations

import json
import os
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
from stableorders.orders import PosetId  # noqa: E402

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
    return out


def fountain_cases():
    as_json = ("--format", "json")
    out = [["gf", "fountains", "--terms", str(t), *(as_json if t % 7 == 3 else ())]
           for t in range(401)]
    out += [["gf", "fountains", "--terms", "1500"], ["gf", "fountains", "--terms", "1000000000"]]
    return out


def cases():
    return count_cases() + enumerate_cases() + fountain_cases()


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
    argv_list = cases()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        before = _run(Path(tmp) / "src", argv_list)
    after = _run(ROOT / "src", argv_list)
    differ = 0
    for argv, old, new in zip(argv_list, before, after):
        if old != new:
            differ += 1
            print(f"{' '.join(argv)}\n  {rev}: {old!r:.300}\n  tree: {new!r:.300}")
    print(f"diff_cli: {differ} of {len(argv_list)} argv differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
