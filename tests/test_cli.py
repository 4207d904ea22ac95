"""End-to-end tests of the command line interface."""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import seed as fixed_seed
from hypothesis import strategies as st

from stableorders import cli, filters, lattice
from stableorders.cli import _build_parser, main
from stableorders.filters import catalan
from stableorders.monomials import Monomial
from stableorders.orders import PosetId

WALK_FILTER_CSV = "x2^4,x2^5,x2^6,x1*x2^4,x1*x2^5,x1^2*x2^4,x1^3*x2^3,x1^6"
WALK_STEPS = "DDDDRRRDRRDRDDRR"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def width_error(width):
    """The refusal of a variable x_width above the width bound."""
    return f"error: x{width} lies above x1000000, the last variable allowed\n"


def run_limited(*argv):
    """The CLI as a whole process under a 1.5 GB address-space limit: the
    finished process and its wall time in seconds."""
    src = Path(__file__).resolve().parents[1] / "src"
    limit = 1_500_000_000
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "stableorders.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        timeout=60,
    )
    return done, time.perf_counter() - start


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

    @pytest.mark.parametrize(
        "command, left, right, message",
        [
            ("compare", "x1^2", "x3", "x3 is not in the ground set of A[n=2,d=2]"),
            ("meet", "x1^2", "x3^2", "x3^2 is not in the ground set of A[n=2,d=2]"),
            # the left operand's ground-set check comes first
            ("compare", "x1", "x3", "x1 is not in the ground set of A[n=2,d=2]"),
            ("join", "x3", "x1", "x3 is not in the ground set of A[n=2,d=2]"),
            # both operands parse before either is checked
            ("compare", "x3", "x1^", "malformed monomial term 'x1^' in 'x1^'"),
            # a zero exponent names no variable
            ("compare", "x1*x9^0", "x1*x2", "x1 is not in the ground set of A[n=2,d=2]"),
        ],
    )
    def test_variable_above_n(self, capsys, command, left, right, message):
        code, out, err = run(capsys, command, "--poset", "A[n=2,d=2]", left, right)
        assert (code, out, err) == (2, "", f"error: {message}\n")

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

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "hasse", "--poset", "A[n=2,d=2]", "--format", "dot")
        assert (code, out) == (0, (
            'digraph hasse {\n'
            '  "x2^2";\n'
            '  "x1*x2";\n'
            '  "x1^2";\n'
            '  "x1*x2" -> "x2^2";\n'
            '  "x1^2" -> "x1*x2";\n'
            "}\n\n"
        ))

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "hasse", "--poset", "A[n=2,d=2]", "--format", "json")
        payload = {
            "poset": "A[n=2,d=2]",
            "vertices": [
                {"monomial": "x2^2", "exponents": [0, 2]},
                {"monomial": "x1*x2", "exponents": [1, 1]},
                {"monomial": "x1^2", "exponents": [2, 0]},
            ],
            "covers": [[0, 1], [1, 2]],
        }
        assert (code, out) == (0, json.dumps(payload, indent=2) + "\n")

    @pytest.mark.parametrize(
        "poset, max_degree",
        [("A[n=3,d=2]", None), ("B[n=4,d=3]", None), ("C[n=3,d=3]", None), ("D[n=2,d=3]", None),
         ("A[n=1,d=4]", None), ("B[n=3]", 2), ("D[n=3]", -1), ("A[n=40,d=1]", None)],
    )
    def test_json_is_the_indented_document(self, capsys, poset, max_degree):
        # written record by record, it is byte for byte the document
        # json.dumps(indent=2) makes of the whole diagram, vertices padded to n
        extra = () if max_degree is None else ("--max-degree", str(max_degree))
        code, out, _ = run(capsys, "hasse", "--poset", poset, *extra, "--format", "json")
        pid = PosetId.parse(poset)
        h = lattice.build_hasse(pid, max_degree=max_degree)
        payload = {
            "poset": poset,
            "vertices": [{"monomial": str(m), "exponents": m.exponent_vector(pid.nvars)}
                         for m in h.vertices],
            "covers": [list(c) for c in h.covers],
        }
        assert (code, out) == (0, json.dumps(payload, indent=2) + "\n")

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

    @pytest.mark.parametrize("command", ["hasse", "enumerate"])
    def test_wide_chain_is_refused_before_listing(self, capsys, command):
        # vertex x_k holds k exponent slots, so the 20,000 vertices hold about
        # 2 * 10**8: listing them ran past 40 s under a 1.5 GB limit
        code, out, err = run(capsys, command, "--poset", "A[n=20000,d=1]")
        assert (code, out) == (2, "")
        assert err == ("error: 20000 vertices of up to 20000 exponent slots exceed "
                       "the budget of 4000000 slots\n")

    @pytest.mark.parametrize(
        "poset, max_degree, slots",
        [("A[n=3,d=3]", None, 30), ("D[n=2]", 2, 12), ("C[n=4,d=1]", None, 16)],
    )
    def test_slot_budget_edge(self, monkeypatch, poset, max_degree, slots):
        pid = PosetId.parse(poset)
        monkeypatch.setattr(lattice, "SLOT_BUDGET", slots)
        assert len(lattice.build_hasse(pid, max_degree=max_degree)) * pid.nvars == slots
        monkeypatch.setattr(lattice, "SLOT_BUDGET", slots - 1)
        with pytest.raises(ValueError, match=f"exceed the budget of {slots - 1} slots"):
            lattice.build_hasse(pid, max_degree=max_degree)

    @fixed_seed(20302)
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=12))
    def test_a_name_is_its_own_json_string(self, exps):
        # the JSON writer quotes a vertex's name as it is
        name = str(Monomial(exps))
        assert f'"{name}"' == json.dumps(name)

    @pytest.mark.parametrize(
        "argv, flag",
        [(("hasse", "--poset", "A[n=3,d=2]"), "--cap"),
         (("enumerate", "--poset", "A[n=3,d=2]"), "--hasse-cap"),
         (("hasse", "--poset", "D[n=2]", "--max-degree", "2"), "--cap"),
         (("enumerate", "--poset", "D[n=2]", "--max-degree", "2"), "--hasse-cap")],
    )
    def test_a_held_diagram_is_refused_as_a_new_one(self, capsys, monkeypatch, argv, flag):
        # the same line, whether or not an earlier call built the diagram
        monkeypatch.setattr(lattice, "_built", {})
        monkeypatch.setattr(lattice, "_held", [0, 0])
        cold = [run(capsys, *argv, flag, "2"), run(capsys, *argv, flag, "5")]
        assert run(capsys, *argv)[0] == 0 and lattice._built
        assert [run(capsys, *argv, flag, "2"), run(capsys, *argv, flag, "5")] == cold
        assert cold[0] == (2, "", f"error: 6 vertices exceed the cap of 2; raise it with {flag}\n")
        monkeypatch.setattr(lattice, "SLOT_BUDGET", 11)
        assert run(capsys, *argv) == (
            2, "", f"error: 6 vertices of up to {PosetId.parse(argv[2]).nvars} exponent slots exceed "
                   "the budget of 11 slots\n")

    def test_slot_budget_comes_after_the_vertex_cap(self, capsys):
        code, _, err = run(capsys, "hasse", "--poset", "A[n=20000,d=1]", "--cap", "100")
        assert (code, err) == (2, "error: 20000 vertices exceed the cap of 100; raise it with --cap\n")

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
        # answered in the operands' window, never padded to nvars
        done, elapsed = run_limited(command, "--poset", poset, "x1", "x2")
        assert (done.returncode, done.stdout, done.stderr) == (0, expected + "\n", "")
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "argv, width",
        [
            pytest.param(
                ("compare", "--poset", "A[n=2,d=2]", "x1^2", "x300000000"), 300000000,
                id="compare-x1^2-x300000000-x300000000",
            ),
            pytest.param(
                ("meet", "--poset", "A[n=2,d=2]", "x300000000*x1", "x1^2"), 300000000,
                id="meet-x300000000*x1-x1^2-x1*x300000000",
            ),
            pytest.param(
                ("join", "--poset", "A[n=2,d=2]", "x1^2", "x300000000^5*x2"), 300000000,
                id="join-x1^2-x300000000^5*x2-x2*x300000000^5",
            ),
            pytest.param(
                ("bijection", "partition", "--poset", "A[n=3,d=2]", "--filter", "x300000000"),
                300000000, id="bijection partition-x300000000",
            ),
            pytest.param(
                ("bijection", "walk", "--poset", "D[n=2,d=3]", "--filter", "x300000000"),
                300000000, id="bijection walk-x300000000",
            ),
            pytest.param(
                ("termorder", "separate", "x1", "x300000000", "--n", "2"), 300000000,
                id="termorder separate-x1-x300000000",
            ),
            *(
                pytest.param(argv, width, id=" ".join(argv))
                for argv, width in [
                    (("compare", "--poset", "A", "x1", "x300000000"), 300000000),
                    (("join", "--poset", "C[n=4,d=2]", "x1^2", "x300000000"), 300000000),
                    (("ideal", "check", "--order", "A", "--gens", "x300000000"), 300000000),
                    (("ideal", "close", "--order", "B", "--gens", "x1,x300000000"), 300000000),
                    (("bijection", "young", "--inverse", "100000000"), 100000000),
                    (("bijection", "young", "x300000000"), 300000000),
                    (("bijection", "squarefree", "--degree", "100000000", "--parts", "1"),
                     100000001),
                    (("bijection", "squarefree", "--degree", "3", "--inverse", "x300000000"),
                     300000000),
                    (("bijection", "partition", "--poset", "A[n=3,d=2]",
                      "--filter", '["x300000000"]'), 300000000),
                    (("termorder", "separate", "x1", "x300000000"), 300000000),
                    (("termorder", "separate", "x1*x3", "x2^2", "--n", "100000000"), 100000000),
                    (("termorder", "check", "--order", "lex", "--n", "300000000",
                      "--max-degree", "0"), 300000000),
                    (("hasse", "--poset", "A[n=300000000,d=0]"), 300000000),
                    (("count", "--poset", "D[n=300000000,d=0]"), 300000000),
                    (("enumerate", "--poset", "A[n=300000000]", "--max-degree", "0"), 300000000),
                ]
            ),
        ],
    )
    def test_huge_variable_index(self, argv, width):
        # refused before an exponent tuple that wide is built, whatever the
        # poset's n: x300000000 alone would take gigabytes
        done, elapsed = run_limited(*argv)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", width_error(width))
        assert elapsed < 1.0

    def test_operand_at_the_bound(self):
        done, elapsed = run_limited("compare", "--poset", "A", "x1", "x1000000")
        assert (done.returncode, done.stdout, done.stderr) == (0, "x1 > x1000000\n", "")
        assert elapsed < 1.0

    def test_huge_variable_index_with_no_variables(self):
        # the operands parse before --n 0 is refused, and the parse refuses
        # the index before it builds an exponent tuple
        done, elapsed = run_limited("termorder", "separate", "x1", "x300000000", "--n", "0")
        assert (done.returncode, done.stdout, done.stderr) == (2, "", width_error(300000000))
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

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("A[n=3,d=300]", "--cap", "100"), "45451 vertices exceed the cap of 100"),
            (("C[n=300,d=2]", "--cap", "100", "--by-cardinality"),
             "45150 vertices exceed the cap of 100"),
            (("D[n=2,d=300]", "--cap", "100"), "45451 vertices exceed the cap of 100"),
            (("D[n=2]", "--max-degree", "300", "--cap", "100"),
             "45451 vertices exceed the cap of 100"),
            (("B[n=3,d=300]", "--cap", "100", "--cardinality", "3"),
             "45451 vertices exceed the cap of 100"),
            (("A[n=20000,d=1]", "--cap", "100"), "20000 vertices exceed the cap of 100"),
            (("D[n=1,d=60000]",), "60001 vertices exceed the cap of 50000"),
        ],
    )
    def test_closed_forms_keep_the_cap(self, capsys, argv, error):
        code, out, err = run(capsys, "count", "--poset", *argv)
        assert (code, out, err) == (2, "", f"error: {error}; raise it with --cap\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("A[n=1000001,d=1]", "--cap", "2000000"),
            ("B[n=1000001,d=0]",),
            ("C[n=1000001,d=0]", "--by-cardinality"),
            ("D[n=1000001,d=0]", "--cardinality", "1"),
            ("D[n=1000001]", "--max-degree", "0"),
        ],
    )
    def test_closed_forms_keep_the_width_bound(self, capsys, argv):
        code, out, err = run(capsys, "count", "--poset", *argv)
        assert (code, out, err) == (2, "", width_error(1000001))

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("A[n=3,d=300]",), 2**301),
            (("D[n=2,d=300]",), catalan(302)),
            (("B[n=3,d=300]",), sum(catalan(i) for i in range(302))),
            (("A[n=20000,d=1]",), 20001),
            (("A[n=3,d=100]", "--cardinality", "7"), 5),
        ],
    )
    def test_closed_forms_answer_past_the_sweep(self, argv, expected):
        # the sweep ran past 60 s or out of memory on the first and fourth
        done, elapsed = run_limited("count", "--poset", *argv)
        assert (done.returncode, done.stdout, done.stderr) == (0, f"{expected}\n", "")
        assert elapsed < 5.0

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("A[n=3,d=20000]", "--cap", "1000000000"), 2**20001),
            (("D[n=2,d=8000]", "--cap", "100000000", "--format", "json"), catalan(8002)),
            (("A[n=3,d=20000]", "--cap", "1000000000", "--format", "json"), 2**20001),
        ],
        ids=["A-text", "D-json", "A-json"],
    )
    def test_counts_past_the_digit_limit(self, capsys, argv, expected):
        # 6,022 and 4,812 digits, past the 4,300 that Python 3.11 converts
        # by default; the answer is read back as a Decimal, which no such
        # limit bounds
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run(capsys, "count", "--poset", *argv)
        assert (code, err) == (0, "")
        with localcontext() as context:
            context.prec = 10_000
            answer = json.loads(out, parse_int=Decimal)["count"] if "json" in argv else Decimal(out)
            assert answer == Decimal(expected)
        # the limit is lifted for the output only, and still bounds argv
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        if limit:
            with pytest.raises(SystemExit):
                main(["count", "--poset", "A[n=3,d=2]", "--cap", "9" * (limit + 1)])
            assert "invalid int value" in capsys.readouterr().err

    def test_closed_form_profile(self):
        done, elapsed = run_limited("count", "--poset", "A[n=300,d=2]", "--by-cardinality")
        assert (done.returncode, done.stderr) == (0, "")
        lines = done.stdout.splitlines()
        assert len(lines) == 45151 and lines[:6] == ["0 1", "1 1", "2 1", "3 2", "4 2", "5 3"]
        assert sum(int(line.split()[1]) for line in lines) == 2**300
        assert elapsed < 10.0

    @pytest.mark.parametrize(
        "argv, lines, total, line",
        [
            # the size-3 filters are three of the d+1 maximal monomials, or
            # one of the d below two of them with both
            (("D[n=2,d=100]",), 5152, catalan(102), f"3 {comb(101, 3) + 100}"),
            (("B[n=3,d=60]",), 1892, sum(map(catalan, range(62))), "2 1"),
        ],
        ids=["D", "B"],
    )
    def test_layer_tables_answer_by_size(self, argv, lines, total, line):
        # both ran two frontier sweeps: past 60 s and 3.6 s whole-process
        done, elapsed = run_limited("count", "--poset", *argv, "--by-cardinality")
        assert (done.returncode, done.stderr) == (0, "")
        out = done.stdout.splitlines()
        assert len(out) == lines and line in out
        assert sum(int(entry.split()[1]) for entry in out) == total
        k, count = line.split()
        done, _ = run_limited("count", "--poset", *argv, "--cardinality", k)
        assert (done.returncode, done.stdout, done.stderr) == (0, f"{count}\n", "")
        assert elapsed < 20.0

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_table_budget(self, capsys, monkeypatch, fmt):
        # the walk tables of D[n=2,d=5] hold 280 entries, those of B[n=3,d=5]
        # 307; cut at size 3 and at size 7 they hold 104 and 135
        refusal = "error: counting by size at degree 5 needs a walk table of {} entries, over the budget of {}\n"
        monkeypatch.setattr(filters, "TABLE_BUDGET", 280)
        for argv in (("D[n=2,d=5]", "--by-cardinality"), ("D[n=2]", "--max-degree", "5", "--cardinality", "3"),
                     ("B[n=3,d=5]", "--cardinality", "7")):
            code, out, err = run(capsys, "count", "--poset", *argv, "--format", fmt)
            assert (code, bool(out), err) == (0, True, "")
        code, out, err = run(capsys, "count", "--poset", "B[n=3,d=5]", "--by-cardinality", "--format", fmt)
        assert (code, out, err) == (2, "", refusal.format(307, 280))
        monkeypatch.setattr(filters, "TABLE_BUDGET", 279)
        code, out, err = run(capsys, "count", "--poset", "D[n=2,d=5]", "--by-cardinality", "--format", fmt)
        assert (code, out, err) == (2, "", refusal.format(280, 279))
        monkeypatch.setattr(filters, "TABLE_BUDGET", 134)
        code, out, err = run(capsys, "count", "--poset", "B[n=3,d=5]", "--cardinality", "7", "--format", fmt)
        assert (code, out, err) == (2, "", refusal.format(135, 134))
        # past its cap, enumerate reads the same table cut at its size, and names no flag
        monkeypatch.setattr(filters, "TABLE_BUDGET", 103)
        code, out, err = run(capsys, "enumerate", "--poset", "D[n=2,d=5]", "--cardinality", "3",
                             "--cap", "10", "--format", fmt)
        assert (code, out, err) == (2, "", refusal.format(104, 103))
        # the totals build no table
        code, out, err = run(capsys, "count", "--poset", "D[n=2,d=5]", "--format", fmt)
        assert (code, err) == (0, "") and str(catalan(7)) in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_product_budget(self, capsys, monkeypatch, fmt):
        # by size, the side-3 product of A[n=4,d=4] charges 180 entries, 8 cut
        # at size 3; the side-2 one of A[n=3,d=5] 46, 5 cut at size 2
        refusal = ("error: counting by size on a {} box needs a product table of {} entries, "
                   "over the budget of {}\n")
        monkeypatch.setattr(filters, "TABLE_BUDGET", 180)
        for argv in (("A[n=4,d=4]", "--by-cardinality"), ("C[n=3]", "--max-degree", "4", "--cardinality", "3")):
            code, out, err = run(capsys, "count", "--poset", *argv, "--format", fmt)
            assert (code, bool(out), err) == (0, True, "")
        monkeypatch.setattr(filters, "TABLE_BUDGET", 179)
        code, out, err = run(capsys, "count", "--poset", "A[n=4,d=4]", "--by-cardinality", "--format", fmt)
        assert (code, out, err) == (2, "", refusal.format("3 x 4", 180, 179))
        monkeypatch.setattr(filters, "TABLE_BUDGET", 7)
        for argv in (("C[n=4,d=4]", "--cardinality", "3"), ("A[n=3]", "--max-degree", "4", "--cardinality", "3")):
            code, out, err = run(capsys, "count", "--poset", *argv, "--format", fmt)
            assert (code, out, err) == (2, "", refusal.format("3 x 4", 8, 7))
        monkeypatch.setattr(filters, "TABLE_BUDGET", 45)
        code, out, err = run(capsys, "count", "--poset", "C[n=2]", "--max-degree", "5", "--by-cardinality",
                             "--format", fmt)
        assert (code, out, err) == (2, "", refusal.format("2 x 5", 46, 45))
        monkeypatch.setattr(filters, "TABLE_BUDGET", 4)
        code, out, err = run(capsys, "count", "--poset", "A[n=3,d=5]", "--cardinality", "2", "--format", fmt)
        assert (code, out, err) == (2, "", refusal.format("2 x 5", 5, 4))
        # past its cap, enumerate reads the same product cut at its size, and names no flag
        monkeypatch.setattr(filters, "TABLE_BUDGET", 7)
        code, out, err = run(capsys, "enumerate", "--poset", "C[n=4,d=4]", "--cardinality", "3",
                             "--cap", "10", "--format", fmt)
        assert (code, out, err) == (2, "", refusal.format("3 x 4", 8, 7))
        # the totals build no table
        code, out, err = run(capsys, "count", "--poset", "A[n=4,d=4]", "--format", fmt)
        assert (code, err) == (0, "") and "352" in out

    @pytest.mark.parametrize(
        "argv",
        [("A[n=4,d=4]",), ("C[n=5,d=3]",), ("A[n=3]", "--max-degree", "4"),
         ("C[n=2]", "--max-degree", "7"), ("A[n=2]", "--max-degree", "-1")],
    )
    def test_every_cardinality(self, capsys, argv):
        max_degree = int(argv[2]) if len(argv) > 1 else None
        h = lattice.build_hasse(PosetId.parse(argv[0]), max_degree=max_degree)
        profile = filters.filter_counts_by_size(h)
        for k in range(-1, len(h) + 2):
            code, out, err = run(capsys, "count", "--poset", *argv, "--cardinality", str(k))
            assert (code, out, err) == (0, f"{profile[k] if 0 <= k <= len(h) else 0}\n", "")

    def test_side_three_answers_at_once(self):
        # the two sweeps took 6.2 s to print 1, and the sweep of A[n=40,d=3]
        # exited 2 at its memory budget after 11.7 s
        done, elapsed = run_limited("count", "--poset", "A[n=4,d=12]", "--cardinality", "2")
        assert (done.returncode, done.stdout, done.stderr) == (0, "1\n", "")
        assert elapsed < 5.0
        expected = Fraction(1)
        for i in range(1, 41):
            for j in range(i, 41):
                for k in range(j, 41):
                    expected *= Fraction(i + j + k - 1, i + j + k - 2)
        done, elapsed = run_limited("count", "--poset", "A[n=40,d=3]")
        assert (done.returncode, done.stdout, done.stderr) == (0, f"{expected}\n", "")
        assert elapsed < 5.0

    def test_product_budget_default(self):
        # A[n=3,d=5000] by size would build 16,536,610,687 entries up to
        # half its 12,507,501 vertices; the 132,870,535 of A[n=3,d=1000] are
        # admitted
        done, elapsed = run_limited("count", "--poset", "A[n=3,d=5000]", "--cap", "1000000000",
                                    "--by-cardinality")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == ("error: counting by size on a 2 x 5000 box needs a product table of "
                               "16536610687 entries, over the budget of 200000000\n")
        assert elapsed < 5.0
        half = 1001 * 1002 // 4
        entries = sum(min(i * (i + 1) // 2, half) + 1 for i in range(1, 1002))
        assert entries == 132_870_535 <= filters.TABLE_BUDGET

    def test_table_budget_default(self):
        # B[n=3,d=314] is under the vertex cap, and its tables would hold
        # 52,517,725,385 entries
        done, elapsed = run_limited("count", "--poset", "B[n=3,d=314]", "--by-cardinality")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == ("error: counting by size at degree 314 needs a walk table of "
                               "52517725385 entries, over the budget of 200000000\n")
        assert elapsed < 5.0

    def test_sweep_budget(self, capsys, monkeypatch):
        # B[n=4,d=4] has no closed form, so count sweeps it
        monkeypatch.setattr("stableorders.filters.SWEEP_BUDGET_BYTES", 1000)
        code, out, err = run(capsys, "count", "--poset", "B[n=4,d=4]")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "live states" in err and "budget" in err
        # enumerate counts under the same budget, which --cap does not raise
        code, out, err = run(capsys, "enumerate", "--poset", "B[n=4,d=4]")
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

    @pytest.mark.parametrize(
        "poset_text, cardinality, listing",
        [
            # the empty filter, whose mask has no lowest member
            ("B[n=3,d=2]", 0, [[]]),
            # the full filter, which holds vertex 0
            ("B[n=3,d=2]", 6, [[(2,), (1, 1), (1, 0, 1), (0, 2), (0, 1, 1), (0, 0, 2)]]),
            # the unit vertex, whose exponents are []
            ("A[n=3,d=0]", None, [[], [()]]),
            ("D[n=2,d=1]", 3, [[(1,), (0, 1), ()]]),
            # exponents of two digits
            ("A[n=2,d=12]", 3, [[(12,), (11, 1), (10, 2)]]),
            ("D[n=1,d=11]", 2, [[(11,), (10,)]]),
        ],
    )
    def test_rendering_edge_cases(self, capsys, poset_text, cardinality, listing):
        sized = [] if cardinality is None else ["--cardinality", str(cardinality)]
        code, out, _ = run(capsys, "enumerate", "--poset", poset_text, *sized)
        texts = ("{" + ", ".join(str(Monomial(e)) for e in f) + "}\n" for f in listing)
        assert (code, out) == (0, "".join(texts))
        code, out, _ = run(capsys, "enumerate", "--poset", poset_text, *sized, "--format", "json")
        payload = {"poset": poset_text, "filters": [{"elements": [list(e) for e in f]} for f in listing]}
        assert (code, out) == (0, json.dumps(payload, indent=2) + "\n")

    @pytest.mark.parametrize(
        "argv, lines",
        [
            # the sweeps for a bound on the count passed their memory budget;
            # C(126, 2) and C(210, 1) bound the count within the cap
            (["--poset", "D[n=5,d=4]", "--cardinality", "2"], 2415),
            (["--poset", "D[n=4]", "--max-degree", "6", "--cardinality", "1"], 84),
        ],
    )
    def test_few_subsets_are_listed_without_a_count(self, capsys, argv, lines):
        code, out, err = run(capsys, "enumerate", *argv)
        size = int(argv[-1])
        listed = out.splitlines()
        assert (code, err, len(listed), len(set(listed))) == (0, "", lines, lines)
        assert all(line.count(", ") == size - 1 for line in listed)

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

    @pytest.mark.parametrize("form", ["inline", "stdin", "file"])
    @pytest.mark.parametrize("payload", ["[" * 100000, '{"elements": ' + "[" * 100000])
    @pytest.mark.parametrize("kind, poset", [("partition", "A[n=3,d=2]"), ("walk", "D[n=2,d=2]")])
    def test_deeply_nested_filter_json(self, capsys, monkeypatch, tmp_path, kind, poset, payload,
                                       form):
        # the JSON decoder used to end in a RecursionError traceback, exit 1
        argument = payload
        if form == "stdin":
            monkeypatch.setattr("sys.stdin", io.StringIO(payload))
            argument = "-"
        elif form == "file":
            argument = str(tmp_path / "filter.json")
            Path(argument).write_text(payload)
        code, out, err = run(capsys, "bijection", kind, "--poset", poset, "--filter", argument)
        assert (code, out, err) == (2, "", "error: the filter JSON is nested too deeply\n")

    @pytest.mark.parametrize(
        "payload",
        ["x1^2,x1*x2,x2^2", '{"elements": [[2], [1, 1], [0, 2]]}', '["x1^2", [1, 1], "x2^2"]'],
        ids=["csv", "record", "list"],
    )
    def test_filter_slot_budget(self, capsys, monkeypatch, payload):
        # the top layer of D[n=2,d=2] holds 1 + 2 + 2 exponent slots
        argv = ("bijection", "walk", "--poset", "D[n=2,d=2]", "--filter", payload)
        monkeypatch.setattr(cli, "SLOT_BUDGET", 5)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, "DDRDRDRR\n", "")
        monkeypatch.setattr(cli, "SLOT_BUDGET", 4)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (
            2, "", "error: the first 3 monomials hold 5 exponent slots, over the budget of 4 slots\n")

    @pytest.mark.parametrize("payload", ['{"foo":1}', '{"elements": 3}'])
    def test_walk_rejects_malformed_records(self, capsys, payload):
        code, out, err = run(
            capsys, "bijection", "walk", "--poset", "D[n=2,d=6]", "--filter", payload
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (("partition", "--poset", "A[n=3,d=300000000]", "--filter", "[]"), 0, "[]\n", ""),
            (("partition", "--poset", "A[n=3,d=300000000]",
              "--filter", "x1^300000000,x1^299999999*x2"), 0, "[2]\n", ""),
            (("walk", "--poset", "D[n=2,d=300000000]", "--filter", "[]"), 2, "",
             "error: a walk of 600000004 steps exceeds the cap of 50000\n"),
            (("partition", "--poset", "A[n=3,d=300000000]", "--inverse", "300000000"), 2, "",
             "error: a filter of 300000000 monomials exceeds the cap of 50000\n"),
        ],
    )
    def test_huge_degree(self, argv, code, out, err):
        # sized by the filter or the parts given: the degree-sized lists they
        # used to build ran out of memory
        done, elapsed = run_limited("bijection", *argv)
        assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
        assert elapsed < 5.0

    def test_walk_at_the_cap(self, capsys):
        code, out, _ = run(capsys, "bijection", "walk", "--poset", "D[n=2,d=24998]", "--filter", "")
        assert (code, out) == (0, "DR" * 25000 + "\n")
        code, out, err = run(capsys, "bijection", "walk", "--poset", "D[n=2,d=24999]",
                             "--filter", "")
        assert (code, out, err) == (2, "", "error: a walk of 50002 steps exceeds the cap of 50000\n")

    def test_walk_inverse_at_the_cap(self, capsys):
        # D^r R^r leaves (r-1)r/2 monomials: 49770 at r = 316, 50086 at 317
        for region, size in ((316, 49770), (317, 50086)):
            steps = "D" * region + "R" * region
            code, out, err = run(capsys, "bijection", "walk", "--region", str(region),
                                 "--inverse", steps)
            if size <= 50000:
                assert (code, out.count(", "), err) == (0, size - 1, "")
            else:
                assert (code, out, err) == (
                    2, "", f"error: a filter of {size} monomials exceeds the cap of 50000\n")

    def test_walk_inverse_is_sized_before_listing(self):
        # r = 2000 listed 1999000 monomials in 37 s before the cap
        done, elapsed = run_limited("bijection", "walk", "--region", "2000",
                                    "--inverse", "D" * 2000 + "R" * 2000)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: a filter of 1999000 monomials exceeds the cap of 50000\n"
        assert elapsed < 5.0

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

    @pytest.mark.parametrize(
        "operands, message",
        [
            # a malformed operand is refused first, then an --n below 1,
            # then the left operand outside x1..xn, then the right one
            (("x3", "bad", "--n", "0"), "malformed monomial term 'bad' in 'bad'"),
            (("x1", "x2", "--n", "0"), "nvars must be at least 1"),
            (("x3", "bad", "--n", "2"), "malformed monomial term 'bad' in 'bad'"),
            (("x3", "x5", "--n", "2"), "x3 is not in the ground set of A[n=2]"),
            (("x1", "x3", "--n", "2"), "x3 is not in the ground set of A[n=2]"),
        ],
    )
    def test_separate_refusal_order(self, capsys, operands, message):
        code, out, err = run(capsys, "termorder", "separate", *operands)
        assert (code, out, err) == (2, "", f"error: {message}\n")

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

    @pytest.mark.parametrize("order", ["A", "B"])
    def test_close_is_capped(self, capsys, order):
        # C(35, 6) = 1,623,160 generators: the closure ran past 60 s
        code, out, err = run(capsys, "ideal", "close", "--order", order, "--gens", "x30^6")
        assert (code, out, err) == (2, "", "error: the closure passed the cap of 50000 generators\n")

    def test_close_cap_edge(self, capsys, monkeypatch):
        # the closure of x3^2 is the six degree-2 monomials in three variables
        monkeypatch.setattr(filters, "VERTEX_CAP", 6)
        code, out, _ = run(capsys, "ideal", "close", "--order", "A", "--gens", "x3^2")
        assert (code, out.count(", ") + 1) == (0, 6)
        monkeypatch.setattr(filters, "VERTEX_CAP", 5)
        code, out, err = run(capsys, "ideal", "close", "--order", "A", "--gens", "x3^2")
        assert (code, out, err) == (2, "", "error: the closure passed the cap of 5 generators\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_check_pair_budget(self, capsys, monkeypatch, fmt):
        # minimal_generators tests pairs: 8,000 incomparable x_i*x_j ran 39 s
        # whole-process; these five generators make ten pairs
        argv = ("ideal", "check", "--order", "A", "--gens", "x1*x2,x1*x3,x2*x3,x4^2,x5^2",
                "--format", fmt)
        monkeypatch.setattr(filters, "GENERATOR_PAIR_BUDGET", 10)
        code, out, err = run(capsys, *argv)
        assert (code, bool(out), err) == (1, True, "")
        monkeypatch.setattr(filters, "GENERATOR_PAIR_BUDGET", 9)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: 5 generators make 10 pairs, over the budget of 9\n")

    def test_check_pair_budget_default(self, capsys):
        # 1,414 generators make 998,991 pairs and 1,415 make 1,000,405
        gens = [f"x{i}*x{j}" for j in range(2, 60) for i in range(1, j)][:1415]
        code, out, err = run(capsys, "ideal", "check", "--order", "A", "--gens", ",".join(gens))
        assert (code, out, err) == (
            2, "", "error: 1415 generators make 1000405 pairs, over the budget of 1000000\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_gens_slot_budget(self, capsys, monkeypatch, fmt):
        # a parsed tuple is as long as its largest variable index: these
        # three generators hold 2 + 4 + 5 exponent slots
        argv = ("ideal", "check", "--order", "A", "--gens", "x1*x2,x3*x4,x5", "--format", fmt)
        monkeypatch.setattr(cli, "SLOT_BUDGET", 11)
        code, out, err = run(capsys, *argv)
        assert (code, bool(out), err) == (1, True, "")
        monkeypatch.setattr(cli, "SLOT_BUDGET", 10)
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (
            2, "", "error: the first 3 monomials hold 11 exponent slots, over the budget of 10 slots\n")

    def test_gens_slot_budget_default(self):
        # twenty generators near x999000 ran 6-7 s whole-process, building
        # and printing 10^6-slot tuples; the fifth passes 4,000,000 slots
        gens = ",".join(f"x{999000 + 2 * i}*x{999001 + 2 * i}" for i in range(20))
        done, elapsed = run_limited("ideal", "check", "--order", "A", "--gens", gens)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == ("error: the first 5 monomials hold 4995025 exponent slots, "
                               "over the budget of 4000000 slots\n")
        assert elapsed < 5.0

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

    def test_fountains_terms_cap(self):
        # a list of 10^9 coefficients would exhaust the address space
        done, elapsed = run_limited("gf", "fountains", "--terms", "1000000000")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: 1000000000 terms exceed the cap of 5000\n"
        assert elapsed < 5.0


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
    # one process, one parser per command name: no call may see what an
    # earlier one parsed
    SEQUENCE = [
        ["frobnicate"],
        ["meet", "--poset", "B[n=3,d=2]", "x1*x3", "x2^2"],
        ["join", "--poset", "B[n=3,d=2]", "x1*x3", "x2^2"],
        ["compare", "--poset", "B[n=3,d=2]", "x2*x3", "x1*x3"],
        ["hasse", "--poset", "A[n=2,d=2]", "--format", "dot"],
        ["count", "--poset", "A[n=3,d=4]"],
        ["meet", "--poset", "B[n=3,d=2]", "x1*x3", "x2^2"],
        ["frobnicate"],
    ]

    def test_mixed_sequence_matches_golden(self, capsys, monkeypatch):
        from stableorders import cli

        golden = Path(__file__).parent / "data" / "cli_golden.jsonl"
        records = [json.loads(line) for line in golden.read_text().splitlines()]
        expected = {tuple(r["argv"]): (r["code"], r["stdout"]) for r in records}
        builds = []
        build = cli._build_parser
        monkeypatch.setattr(
            cli, "_build_parser", lambda command=None: builds.append(command) or build(command)
        )
        cli._parser.cache_clear()
        for argv in self.SEQUENCE:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, _ = capsys.readouterr()
            assert (code, out) == expected[tuple(argv)], argv
        # each name's parser is built once, on its first call; an unknown
        # name gets the full parser
        assert builds == [None, "meet", "join", "compare", "hasse", "count"]
        cli._parser.cache_clear()

    @staticmethod
    def fresh_call(call):
        """How many ArgumentParsers a fresh interpreter constructs, and how
        many times it reads the terminal size, while it imports
        stableorders.cli and then runs call."""
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import argparse, contextlib, io, shutil\n"
            "built, reads = [], []\n"
            "init, size = argparse.ArgumentParser.__init__, shutil.get_terminal_size\n"
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
            "shutil.get_terminal_size = lambda *a: reads.append(1) or size(*a)\n"
            "import stableorders.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    {call}\n"
            "print(len(built), len(reads))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return tuple(map(int, done.stdout.split()))

    def test_import_builds_no_parser(self):
        assert self.fresh_call("pass") == (0, 0)

    def test_one_call_builds_only_its_command(self):
        # count alone, not the top level too nor all 21, and termorder check
        # as the command and its two actions; each reads the terminal size
        # once, not once per formatter (9 and 18 times)
        count = "stableorders.cli.main(['count', '--poset', 'A[n=3,d=4]'])"
        assert self.fresh_call(count) == (1, 1)
        check = "stableorders.cli.main(['termorder', 'check', '--order', 'lex', '--n', '3'])"
        assert self.fresh_call(check) == (3, 1)


def _subcommands(parser, path=()):
    """(path, parser) of every subcommand below parser, nested ones too."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield path + (name,), sub
                yield from _subcommands(sub, path + (name,))


def _has_subcommands(parser):
    return any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)


# one valid command line after the path of each subcommand that takes no
# further subcommand
VALID = {
    ("compare",): ["--poset", "A[n=2,d=2]", "x1^2", "x2^2"],
    ("hasse",): ["--poset", "A[n=2,d=2]"],
    ("meet",): ["--poset", "A[n=2,d=2]", "x1^2", "x2^2"],
    ("join",): ["--poset", "A[n=2,d=2]", "x1^2", "x2^2"],
    ("count",): ["--poset", "A[n=2,d=2]"],
    ("enumerate",): ["--poset", "A[n=2,d=2]"],
    ("bijection", "young"): ["x1^2"],
    ("bijection", "partition"): ["--poset", "A[n=3,d=2]", "--inverse", "2"],
    ("bijection", "walk"): ["--inverse", "DR", "--region", "1"],
    ("bijection", "squarefree"): ["--degree", "3", "--parts", "2,1"],
    ("termorder", "check"): ["--order", "lex", "--n", "3"],
    ("termorder", "separate"): ["x1*x3", "x2^2"],
    ("ideal", "check"): ["--order", "A", "--gens", "x1"],
    ("ideal", "close"): ["--order", "A", "--gens", "x1"],
    ("gf", "fountains"): ["--terms", "5"],
    ("verify",): ["--suite", "poset-ids"],
}


def _parity_cases():
    """Per subcommand: --help, no arguments, an unknown option, an extra
    positional and, where it has one, a missing required option."""
    for path, parser in _subcommands(_build_parser()):
        path = list(path)
        valid = VALID.get(tuple(path), [])
        yield path + ["--help"]
        yield path
        yield path + valid + ["--bogus"]
        yield path + valid + ["extra"]
        required = [a for a in parser._actions if a.option_strings and a.required]
        if required:
            i = valid.index(required[0].option_strings[0])
            yield path + valid[:i] + valid[i + 2:]


# command lines the generated cases miss: an abbreviated option, "--" before
# an operand, help with a word after it, an unknown option with a required
# one missing, and words left over before a nested action's options
EXTRA_PARITY = [
    ["count", "--pos", "A[n=2,d=2]"],
    ["compare", "--poset", "A[n=2,d=2]", "--", "x1^2", "x2^2"],
    ["compare", "--poset", "A[n=2,d=2]", "x1^2", "--", "x2^2"],
    ["count", "-h", "extra"],
    ["termorder", "check", "-h", "extra"],
    ["count", "--bogus"],
    ["bijection", "walk", "extra", "--inverse", "DR", "--region", "1"],
    ["termorder", "check", "--bogus", "--order", "lex", "--n", "3"],
]


def _parse_outcome(parse, argv, capsys):
    """The parsed arguments, or the exit code, then stdout and stderr."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return result, out, err


class TestPerCommandParser:
    """main parses a known subcommand's words with that subcommand's parser
    alone, and hands leftover words and any other first word to the full
    parser: at the entry point, every command line gets what the full
    parser makes of it, at any terminal width."""

    def test_every_leaf_has_a_valid_command_line(self):
        leaves = {p for p, sub in _subcommands(_build_parser()) if not _has_subcommands(sub)}
        assert leaves == set(VALID)

    @pytest.mark.parametrize("argv", [*_parity_cases(), *EXTRA_PARITY], ids=" ".join)
    def test_same_as_full_parser(self, argv, capsys, monkeypatch):
        try:
            for columns in ("60", "200"):
                monkeypatch.setenv("COLUMNS", columns)
                cli._parser.cache_clear()  # a parser wraps at the width read when it is built
                full = _parse_outcome(_build_parser().parse_args, argv, capsys)
                assert _parse_outcome(cli._parse_argv, argv, capsys) == full, columns
        finally:
            cli._parser.cache_clear()

    @pytest.mark.parametrize("columns", ["50", "200"])
    def test_help_wraps_as_argparse_does(self, columns, monkeypatch):
        # the same help with argparse's own formatters, which each read the
        # terminal width when they format
        monkeypatch.setenv("COLUMNS", columns)
        parsers = [_build_parser(), *map(_build_parser, cli._SUBCOMMANDS)]
        parsers += [sub for parser in parsers for _, sub in _subcommands(parser)]
        ours = [parser.format_help() for parser in parsers]
        for parser in parsers:
            parser.formatter_class = argparse.HelpFormatter
        assert [parser.format_help() for parser in parsers] == ours

    @pytest.mark.parametrize(
        "argv, code, error",
        [
            (["--help"], 0, None),
            ([], 2, "stableorders: error: the following arguments are required: command"),
            (["frobnicate"], 2, "stableorders: error: argument command: invalid choice: "),
        ],
    )
    def test_full_path(self, argv, code, error, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        outcome = (excinfo.value.code, *capsys.readouterr())
        assert outcome == _parse_outcome(_build_parser().parse_args, argv, capsys)
        assert outcome[0] == code
        # the usage line lists every command, and an error names the
        # missing or unknown word "command"
        names = [path[0] for path, _ in _subcommands(_build_parser()) if len(path) == 1]
        assert "{" + ",".join(names) + "}" in outcome[1] + outcome[2]
        if error is not None:
            assert outcome[2].splitlines()[-1].startswith(error)


class TestUsage:
    @pytest.mark.parametrize("command", ["hasse", "count", "enumerate"])
    def test_unbounded_poset_names_max_degree(self, command, capsys):
        # the flag, not the library's keyword max_degree
        assert run(capsys, command, "--poset", "B[n=3]") == (
            2, "", "error: B[n=3] is degree-unbounded; pass --max-degree to truncate\n")

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()
