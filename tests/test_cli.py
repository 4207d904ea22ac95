"""End-to-end tests of the command line interface."""
from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from stableorders.cli import main

WALK_FILTER_CSV = "x2^4,x2^5,x2^6,x1*x2^4,x1*x2^5,x1^2*x2^4,x1^3*x2^3,x1^6"
WALK_STEPS = "DDDDRRRDRRDRDDRR"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestCompare:
    def test_strict(self, capsys):
        code, out, _ = run(capsys, "compare", "--poset", "A[n=3,d=3]", "x1^2*x3", "x1*x2*x3")
        assert (code, out) == (0, "x1^2*x3 > x1*x2*x3\n")

    def test_incomparable(self, capsys):
        code, out, _ = run(capsys, "compare", "--poset", "B[n=3,d=2]", "x2*x3", "x1*x3")
        assert (code, out) == (0, "x2*x3 || x1*x3\n")

    def test_equal(self, capsys):
        code, out, _ = run(capsys, "compare", "--poset", "A[n=2,d=1]", "x1", "x1")
        assert (code, out) == (0, "x1 = x1\n")

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--poset", "A[n=3,d=3]", "--format", "json",
            "x1*x2*x3", "x1^2*x3",
        )
        assert code == 0
        assert json.loads(out) == {
            "poset": "A[n=3,d=3]",
            "left": "x1*x2*x3",
            "right": "x1^2*x3",
            "relation": "lt",
        }

    def test_bad_monomial(self, capsys):
        code, _, err = run(capsys, "compare", "--poset", "A[n=3,d=2]", "y1", "x1^2")
        assert code == 2
        assert err.startswith("error:")

    def test_bad_poset(self, capsys):
        code, _, err = run(capsys, "compare", "--poset", "E[n=1]", "x1", "x1")
        assert code == 2
        assert err.startswith("error:")

    def test_outside_ground_set(self, capsys):
        code, _, err = run(capsys, "compare", "--poset", "A[n=3,d=2]", "x1", "x1^2")
        assert code == 2
        assert "ground set" in err

    def test_unclosed_exponent_vector(self, capsys):
        code, out, err = run(capsys, "compare", "--poset", "A[n=3,d=4]", "[1,2", "x1")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1


class TestHasse:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "hasse", "--poset", "A[n=2,d=2]")
        assert code == 0
        assert out.splitlines() == [
            "poset: A[n=2,d=2]",
            "vertices: 3",
            "covers: 2",
            "x1*x2 covers x2^2",
            "x1^2 covers x1*x2",
        ]

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "hasse", "--poset", "A[n=2,d=2]", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph hasse {")
        assert '"x1*x2" -> "x2^2";' in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "hasse", "--poset", "A[n=2,d=2]", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["poset"] == "A[n=2,d=2]"
        assert [v["monomial"] for v in data["vertices"]] == ["x2^2", "x1*x2", "x1^2"]
        assert data["covers"] == [[0, 1], [1, 2]]

    def test_cap(self, capsys):
        code, _, err = run(capsys, "hasse", "--poset", "A[n=3,d=2]", "--cap", "2")
        assert code == 2
        assert err == "error: 6 vertices exceed the cap of 2; raise it with --cap\n"
        code, _, err = run(capsys, "count", "--poset", "A[n=3,d=2]", "--cap", "2")
        assert code == 2
        assert err == "error: 6 vertices exceed the cap of 2; raise it with --cap\n"

    @pytest.mark.parametrize(
        "poset, count",
        [("A[n=30,d=10]", "635745396"), ("A[n=1000000,d=1000000]", "at least 2**999999")],
    )
    def test_cap_refuses_before_listing(self, capsys, poset, count):
        # listing the 635,745,396 vertices first would exhaust memory
        for command, flag in (("hasse", "--cap"), ("count", "--cap"), ("enumerate", "--hasse-cap")):
            code, out, err = run(capsys, command, "--poset", poset)
            assert (code, out) == (2, "")
            assert err == f"error: {count} vertices exceed the cap of 50000; raise it with {flag}\n"

    def test_truncation(self, capsys):
        code, out, _ = run(capsys, "hasse", "--poset", "D[n=2]", "--max-degree", "1")
        assert code == 0
        assert "vertices: 3" in out

    def test_unbounded_without_truncation(self, capsys):
        code, _, err = run(capsys, "hasse", "--poset", "B[n=3]")
        assert code == 2
        assert "max_degree" in err or "truncate" in err

    def test_long_stable_chain(self, capsys):
        # one cover per vertex: only x_v -> x_{v-1} covers when e_v = 1
        code, out, _ = run(capsys, "hasse", "--poset", "B[n=1200,d=1]")
        assert code == 0
        assert out.splitlines()[:4] == [
            "poset: B[n=1200,d=1]", "vertices: 1200", "covers: 1199", "x1199 covers x1200",
        ]


class TestMeetJoin:
    def test_stable_meet(self, capsys):
        code, out, _ = run(capsys, "meet", "--poset", "B[n=3,d=2]", "x1*x3", "x2^2")
        assert (code, out) == (0, "x3^2\n")

    def test_meet_json(self, capsys):
        code, out, _ = run(
            capsys, "meet", "--poset", "B[n=3,d=2]", "--format", "json", "x1*x3", "x2^2"
        )
        data = json.loads(out)
        assert code == 0
        assert data["meet"] == "x3^2"
        assert data["exponents"] == [0, 0, 2]

    def test_divisibility_join(self, capsys):
        code, out, _ = run(capsys, "join", "--poset", "D[n=2,d=2]", "x1", "x2")
        assert (code, out) == (0, "x1*x2\n")

    def test_join_missing(self, capsys):
        code, _, err = run(capsys, "join", "--poset", "D[n=2,d=2]", "x1^2", "x2^2")
        assert code == 1
        assert err.startswith("no join:")

    def test_borel_meet(self, capsys):
        code, out, _ = run(capsys, "meet", "--poset", "A[n=3,d=2]", "x1*x3", "x2^2")
        assert (code, out) == (0, "x2*x3\n")

    @pytest.mark.parametrize(
        "command, expected",
        [("compare", "x1 > x2"), ("meet", "x2"), ("join", "x1")],
    )
    def test_stable_on_many_variables(self, capsys, command, expected):
        # the case split goes down one variable per step, past the old recursion limit
        code, out, _ = run(capsys, command, "--poset", "B[n=1500,d=1]", "x1", "x2")
        assert (code, out) == (0, expected + "\n")

    def test_stable_meet_with_many_divisors(self, capsys):
        # x1^7*...*x7^7 has 8^7 divisors, which the old meet listed one by one
        code, out, _ = run(
            capsys, "meet", "--poset", "B[n=8,d=56]",
            "x1^55*x7", "x1^7*x2^7*x3^7*x4^7*x5^7*x6^7*x7^7*x8^7",
        )
        assert (code, out) == (0, "x1^7*x7^7*x8^42\n")


class TestWindow:
    @pytest.mark.parametrize(
        "poset, command, expected",
        [
            ("A[n=200000000]", "compare", "x1 > x2"),
            ("A[n=200000000]", "meet", "x2"),
            ("C[n=200000000]", "compare", "x1 < x2"),
            ("C[n=200000000]", "meet", "x1"),
            ("B[n=200000000,d=1]", "compare", "x1 > x2"),
            ("B[n=200000000,d=1]", "meet", "x2"),
        ],
    )
    def test_huge_nvars(self, poset, command, expected):
        # answered in the operands' window, never padded to nvars: a whole
        # process under a 1.5 GB address-space limit
        src = Path(__file__).resolve().parents[1] / "src"
        limit = 1_500_000_000
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "stableorders.cli", command, "--poset", poset, "x1", "x2"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            timeout=60,
        )
        elapsed = time.perf_counter() - start
        assert (done.returncode, done.stdout, done.stderr) == (0, expected + "\n", "")
        assert elapsed < 1.0


class TestCount:
    def test_total(self, capsys):
        code, out, _ = run(capsys, "count", "--poset", "A[n=3,d=4]")
        assert (code, out) == (0, "32\n")

    def test_cardinality(self, capsys):
        code, out, _ = run(capsys, "count", "--poset", "B[n=3,d=2]", "--cardinality", "4")
        assert (code, out) == (0, "2\n")

    def test_by_cardinality(self, capsys):
        code, out, _ = run(capsys, "count", "--poset", "B[n=3,d=2]", "--by-cardinality")
        assert code == 0
        assert out.splitlines() == ["0 1", "1 1", "2 1", "3 2", "4 2", "5 1", "6 1"]

    def test_by_cardinality_json(self, capsys):
        code, out, _ = run(
            capsys, "count", "--poset", "B[n=3,d=2]", "--by-cardinality", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"poset": "B[n=3,d=2]", "counts": [1, 1, 1, 2, 2, 1, 1]}

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "count", "--poset", "A[n=3,d=4]", "--cardinality", "0", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"poset": "A[n=3,d=4]", "count": 1, "cardinality": 0}

    @pytest.mark.parametrize(
        "poset_text, expected",
        [
            ("A[n=3,d=45]", 2**46),  # past the old recursion limit
            ("A[n=2,d=1500]", 1502),
            ("A[n=3,d=30]", 2**31),  # the old memo ran out of memory here
            ("A[n=1200,d=1]", 1201),  # the old ground set recursed per variable
        ],
    )
    def test_large_posets(self, capsys, poset_text, expected):
        code, out, _ = run(capsys, "count", "--poset", poset_text)
        assert (code, out) == (0, f"{expected}\n")

    def test_sweep_budget(self, capsys, monkeypatch):
        monkeypatch.setattr("stableorders.filters.SWEEP_BUDGET_BYTES", 1000)
        code, out, err = run(capsys, "count", "--poset", "A[n=4,d=4]")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "live states" in err and "budget" in err
        # enumerate counts under the same budget, which --cap does not raise
        code, out, err = run(capsys, "enumerate", "--poset", "A[n=4,d=4]")
        assert (code, out) == (2, "")
        assert err.startswith("error: filter counting needs") and err.endswith(" MiB\n")


class TestEnumerate:
    def test_text(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--poset", "B[n=3,d=2]", "--cardinality", "4"
        )
        assert code == 0
        assert sorted(out.splitlines()) == [
            "{x1^2, x1*x2, x1*x3, x2^2}",
            "{x1^2, x1*x2, x2^2, x2*x3}",
        ]

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--poset", "A[n=2,d=2]", "--format", "json"
        )
        data = json.loads(out)
        assert code == 0
        assert data["poset"] == "A[n=2,d=2]"
        recorded = {tuple(tuple(e) for e in f["elements"]) for f in data["filters"]}
        assert recorded == {
            (),
            ((2,),),
            ((2,), (1, 1)),
            ((2,), (1, 1), (0, 2)),
        }

    def test_long_chain(self, capsys):
        # 1501 elements in a chain: deeper than the recursion limit
        code, out, _ = run(capsys, "enumerate", "--poset", "A[n=2,d=1500]")
        lines = out.splitlines()
        assert (code, len(lines)) == (0, 1502)
        assert lines[:2] == ["{}", "{x1^1500}"]
        assert lines[-1].count(", ") == 1500
        code, out, _ = run(capsys, "enumerate", "--poset", "A[n=2,d=1500]", "--format", "json")
        records = json.loads(out)["filters"]
        assert (code, len(records)) == (0, 1502)
        assert records[:2] == [{"elements": []}, {"elements": [[1500]]}]
        assert records[-1]["elements"] == [[1500 - k, k] if k else [1500] for k in range(1501)]
        # the chain's filters are its top k elements, from k = 0 up
        assert [len(r["elements"]) for r in records] == list(range(1502))

    def test_cap(self, capsys):
        code, _, err = run(capsys, "enumerate", "--poset", "A[n=3,d=3]", "--cap", "3")
        assert (code, err) == (2, "error: 16 filters exceed the cap of 3; raise it with --cap\n")
        code, _, err = run(
            capsys, "enumerate", "--poset", "A[n=3,d=3]", "--cardinality", "4", "--cap", "1"
        )
        assert (code, err) == (2, "error: 2 filters exceed the cap of 1; raise it with --cap\n")
        # the diagram's cap has its own flag: --cap bounds the filters
        code, _, err = run(
            capsys, "enumerate", "--poset", "A[n=3,d=3]", "--cap", "100", "--hasse-cap", "9"
        )
        assert code == 2
        assert err == "error: 10 vertices exceed the cap of 9; raise it with --hasse-cap\n"

    def test_cardinality_on_a_large_poset(self, capsys):
        # 1081 elements: pruning by size must not recurse through the poset
        code, out, _ = run(
            capsys, "enumerate", "--poset", "A[n=3,d=45]", "--cardinality", "3"
        )
        assert (code, out.splitlines()) == (
            0,
            ["{x1^45, x1^44*x2, x1^44*x3}", "{x1^45, x1^44*x2, x1^43*x2^2}"],
        )

    def test_closed_pipe(self):
        # the reader stops after 100 of about 350,000 bytes
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "stableorders.cli", "enumerate", "--poset", "A[n=3,d=9]"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.read(100).startswith(b"{}\n")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (1, b"")


class TestBijections:
    def test_young_forward(self, capsys):
        code, out, _ = run(capsys, "bijection", "young", "x1^2*x3")
        assert (code, out) == (0, "[3,1,1]\n")

    def test_young_inverse(self, capsys):
        code, out, _ = run(capsys, "bijection", "young", "--inverse", "3,1,1")
        assert (code, out) == (0, "x1^2*x3\n")

    def test_young_json(self, capsys):
        code, out, _ = run(capsys, "bijection", "young", "x2^2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"partition": [2, 2]}

    def test_young_needs_exactly_one_direction(self, capsys):
        code, _, err = run(capsys, "bijection", "young", "x1", "--inverse", "1")
        assert code == 2
        assert "either" in err

    def test_partition_inverse_then_forward(self, capsys):
        code, out, _ = run(
            capsys, "bijection", "partition", "--poset", "A[n=3,d=7]",
            "--inverse", "[6,5,3,1]", "--format", "json",
        )
        assert code == 0
        record = json.loads(out)
        assert len(record["elements"]) == 15
        code, out, _ = run(
            capsys, "bijection", "partition", "--poset", "A[n=3,d=7]",
            "--filter", json.dumps(record),
        )
        assert (code, out) == (0, "[6,5,3,1]\n")

    def test_partition_filter_from_file(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "bijection", "partition", "--poset", "A[n=3,d=2]",
            "--inverse", "2", "--format", "json",
        )
        record = json.loads(out)
        path = tmp_path / "filter.json"
        path.write_text(json.dumps(record))
        code, out, _ = run(
            capsys, "bijection", "partition", "--poset", "A[n=3,d=2]",
            "--filter", str(path),
        )
        assert (code, out) == (0, "[2]\n")

    def test_partition_filter_from_stdin(self, capsys, monkeypatch):
        payload = json.dumps({"elements": [[2], [1, 1], [0, 2]]})
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, out, _ = run(
            capsys, "bijection", "partition", "--poset", "A[n=3,d=2]", "--filter", "-"
        )
        assert (code, out) == (0, "[3]\n")

    def test_partition_filter_from_csv(self, capsys):
        code, out, _ = run(
            capsys, "bijection", "partition", "--poset", "A[n=3,d=2]",
            "--filter", "x1^2,x1*x2,x2^2",
        )
        assert (code, out) == (0, "[3]\n")

    def test_partition_rejects_non_filters(self, capsys):
        code, _, err = run(
            capsys, "bijection", "partition", "--poset", "A[n=3,d=2]",
            "--filter", "x2^2",
        )
        assert code == 2
        assert "not a filter" in err

    def test_partition_needs_the_right_poset(self, capsys):
        code, _, err = run(
            capsys, "bijection", "partition", "--poset", "B[n=3,d=2]", "--inverse", "2"
        )
        assert code == 2
        assert "A[n=3,d=<degree>]" in err

    def test_walk_forward(self, capsys):
        code, out, _ = run(
            capsys, "bijection", "walk", "--poset", "D[n=2,d=6]",
            "--filter", WALK_FILTER_CSV, "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"region": 8, "steps": WALK_STEPS, "weight": 8}

    def test_walk_inverse(self, capsys):
        code, out, _ = run(
            capsys, "bijection", "walk", "--inverse", WALK_STEPS, "--region", "8",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {
            "elements": [
                [6], [3, 3], [2, 4], [1, 5], [0, 6], [1, 4], [0, 5], [0, 4],
            ]
        }

    @pytest.mark.parametrize("payload", ['{"foo":1}', '{"elements": 3}'])
    def test_walk_rejects_malformed_records(self, capsys, payload):
        code, out, err = run(
            capsys, "bijection", "walk", "--poset", "D[n=2,d=6]", "--filter", payload
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_walk_inverse_needs_region(self, capsys):
        code, _, err = run(capsys, "bijection", "walk", "--inverse", "DR")
        assert code == 2
        assert "--region" in err

    def test_squarefree(self, capsys):
        code, out, _ = run(
            capsys, "bijection", "squarefree", "--degree", "7", "--parts", "6,5,3,1"
        )
        assert (code, out) == (0, "x3*x4*x6*x8\n")
        code, out, _ = run(
            capsys, "bijection", "squarefree", "--degree", "7", "--inverse", "x3*x4*x6*x8"
        )
        assert (code, out) == (0, "[6,5,3,1]\n")


class TestTermOrders:
    def test_check_passes(self, capsys):
        code, out, _ = run(
            capsys, "termorder", "check", "--order", "degrevlex", "--n", "3",
            "--max-degree", "4",
        )
        assert code == 0
        assert out.splitlines() == ["refines: yes", "sample relation: 1 < x3"]

    def test_check_fails(self, capsys):
        code, out, _ = run(
            capsys, "termorder", "check", "--order", "weighted", "--weights", "1,2,3",
            "--n", "3", "--max-degree", "3",
        )
        assert code == 1
        assert out.splitlines() == [
            "refines: no",
            "violated: x3 < x2 in the exchange order",
        ]

    def test_check_json(self, capsys):
        code, out, _ = run(
            capsys, "termorder", "check", "--order", "deglex", "--n", "2",
            "--max-degree", "3", "--format", "json",
        )
        data = json.loads(out)
        assert code == 0
        assert data["refines"] is True
        assert data["order"] == "deglex"

    def test_weighted_needs_weights(self, capsys):
        code, _, err = run(
            capsys, "termorder", "check", "--order", "weighted", "--n", "3"
        )
        assert code == 2
        assert "weight" in err

    def test_weighted_refuses_empty_weights(self, capsys):
        code, out, err = run(
            capsys, "termorder", "check", "--order", "weighted", "--weights", "[]",
            "--n", "1", "--max-degree", "0",
        )
        assert (code, out) == (2, "")
        assert err == "error: a weighted order needs a weight vector\n"

    def test_separate(self, capsys):
        code, out, _ = run(capsys, "termorder", "separate", "x1*x3", "x2^2", "--n", "3")
        assert code == 0
        assert out.splitlines() == ["above: [3,2,1]", "below: [4,3,1]"]

    def test_separate_on_many_variables(self, capsys):
        # the weight vectors are walked without recursion: one frame per
        # variable would pass the recursion limit
        code, out, err = run(capsys, "termorder", "separate", "x1*x3", "x2^2", "--n", "2000")
        assert (code, err) == (0, "")
        above = [2000, 1999, *range(1998, 0, -1)]
        below = [2001, 2000, *range(1998, 0, -1)]
        assert out.splitlines() == [
            f"above: [{','.join(map(str, above))}]",
            f"below: [{','.join(map(str, below))}]",
        ]

    def test_separate_comparable(self, capsys):
        code, _, err = run(capsys, "termorder", "separate", "x2^2", "x1*x2")
        assert code == 2
        assert "nothing to separate" in err

    def test_check_cap(self, capsys):
        # 12,870 monomials: about 1.7e8 ordered pairs, refused before the scan
        code, out, err = run(
            capsys, "termorder", "check", "--order", "lex", "--n", "8", "--max-degree", "8"
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: 165624030 pairs of monomials exceed the cap of 1000000; raise it with --cap"
        ]

    def test_check_cap_flag(self, capsys):
        # 15 monomials, 210 ordered pairs
        argv = ("termorder", "check", "--order", "lex", "--n", "2", "--max-degree", "4")
        code, _, err = run(capsys, *argv, "--cap", "209")
        assert code == 2
        assert "210 pairs" in err and "--cap" in err
        code, out, _ = run(capsys, *argv, "--cap", "210")
        assert (code, out) == (0, "refines: yes\nsample relation: 1 < x2\n")


class TestIdeals:
    def test_check_open(self, capsys):
        code, out, _ = run(capsys, "ideal", "check", "--order", "B", "--gens", "x2^2")
        assert code == 1
        assert out.splitlines() == [
            "minimal generators: {x2^2}",
            "closed under exchange moves: no",
        ]

    def test_check_closed(self, capsys):
        code, out, _ = run(
            capsys, "ideal", "check", "--order", "A",
            "--gens", "x2*x3,x2^2,x1*x3,x1*x2,x1^2",
        )
        assert code == 0
        assert out.splitlines() == [
            "minimal generators: {x1^2, x1*x2, x1*x3, x2^2, x2*x3}",
            "closed under exchange moves: yes",
        ]

    def test_close(self, capsys):
        code, out, _ = run(capsys, "ideal", "close", "--order", "B", "--gens", "x2^2")
        assert (code, out) == (0, "{x1^2, x1*x2, x2^2}\n")
        code, out, _ = run(capsys, "ideal", "close", "--order", "A", "--gens", "x2*x3")
        assert (code, out) == (0, "{x1^2, x1*x2, x1*x3, x2^2, x2*x3}\n")

    def test_close_json(self, capsys):
        code, out, _ = run(
            capsys, "ideal", "close", "--order", "B", "--gens", "x2^2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == {"elements": [[2], [1, 1], [0, 2]]}

    def test_close_long_chain(self, capsys):
        code, out, _ = run(capsys, "ideal", "close", "--order", "A", "--gens", "x1200")
        assert code == 0
        assert out == "{" + ", ".join(f"x{i}" for i in range(1, 1201)) + "}\n"

    def test_close_large_closure(self, capsys):
        # the closure's 1,365 generators are all the degree-4 monomials in 12 variables
        code, out, _ = run(capsys, "ideal", "close", "--order", "A", "--gens", "x12^4")
        assert code == 0
        assert out.count(", ") + 1 == comb(15, 4) == 1365

    def test_needs_generators(self, capsys):
        code, _, err = run(capsys, "ideal", "check", "--order", "A", "--gens", "")
        assert code == 2
        assert "at least one" in err


class TestGeneratingFunctions:
    def test_fountains(self, capsys):
        code, out, _ = run(capsys, "gf", "fountains", "--terms", "12")
        assert (code, out) == (0, "1 1 1 2 3 5 9 15 26 45 78 135 234\n")

    def test_fountains_json(self, capsys):
        code, out, _ = run(capsys, "gf", "fountains", "--terms", "4", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"coefficients": [1, 1, 1, 2, 3]}


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "fountains")
        assert code == 0
        assert out == "fountains: PASS (3 checks)\n"
        assert "[fountains took" in err
        assert "took" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "fountains", "--format", "json")
        assert code == 0
        assert json.loads(out) == [
            {"suite": "fountains", "passed": 3, "failed": 0, "failures": []}
        ]

    def test_deterministic_stdout(self, capsys):
        first = run(capsys, "verify", "--suite", "splicing", "--seed", "5")
        second = run(capsys, "verify", "--suite", "splicing", "--seed", "5")
        assert first[0] == second[0] == 0
        assert first[1] == second[1]

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "nonsense"])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestParserReuse:
    # one process, one parser: no call may see what an earlier one parsed
    SEQUENCE = [
        ["frobnicate"],
        ["meet", "--poset", "B[n=3,d=2]", "x1*x3", "x2^2"],
        ["join", "--poset", "B[n=3,d=2]", "x1*x3", "x2^2"],
        ["compare", "--poset", "B[n=3,d=2]", "x2*x3", "x1*x3"],
        ["hasse", "--poset", "A[n=2,d=2]", "--format", "dot"],
        ["count", "--poset", "A[n=3,d=4]"],
    ]

    def test_mixed_sequence_matches_golden(self, capsys, monkeypatch):
        from stableorders import cli

        golden = Path(__file__).parent / "data" / "cli_golden.jsonl"
        records = [json.loads(line) for line in golden.read_text().splitlines()]
        expected = {tuple(r["argv"]): (r["code"], r["stdout"]) for r in records}
        builds = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        for argv in self.SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, _ = capsys.readouterr()
            assert (code, out) == expected[tuple(argv)], argv
        assert len(builds) == 1
        cli._parser.cache_clear()

    def test_import_builds_no_parser(self):
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
            "import stableorders.cli\n"
            "print(len(built))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=60,
        )
        assert (done.returncode, done.stdout) == (0, "0\n")


class TestUsage:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()
