"""The exit contract of the command line, over generated argv.

Every command line ends one of three ways: answered with exit 0, a checked
property failing with exit 1, or refused with exit 2.  No traceback reaches
stderr, and a refusal other than an argparse usage error is one line.

command_lines(seed, count) is a seeded generator of argv that uses the
standard library alone.  It covers every subcommand and nested action, with
valid words and malformed ones: monomials with huge or zero indices and
exponents, poset ids, --filter JSON (inline, from a file and from standard
input), partitions, walks, weights, and caps raised on small posets.  The
sizes it asks for stay small enough to run in-process, and no word it
makes starts a process or a thread.
"""
from __future__ import annotations

import argparse
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from stableorders import lattice
from stableorders.cli import _build_parser, main

SEED, COUNT = 20261022, 4000

HUGE = "1" + "0" * 30  # past any machine-sized int
BIG_INDEX = "300000000"  # a variable index past the width bound
VERY_LONG = "9" * 5000  # past the interpreter's default digit limit

SMALL_POSETS = [
    "A[n=1,d=2]", "A[n=2,d=2]", "A[n=3,d=2]", "A[n=3,d=3]", "A[n=4,d=2]",
    "B[n=2,d=3]", "B[n=3,d=2]", "B[n=3,d=3]", "B[n=4,d=2]",
    "C[n=2,d=2]", "C[n=3,d=2]", "C[n=3,d=3]",
    "D[n=1,d=3]", "D[n=2,d=2]", "D[n=2,d=3]", "D[n=3,d=2]",
]
GLUED_POSETS = ["A[n=2]", "A[n=3]", "B[n=2]", "B[n=3]", "C[n=2]", "C[n=3]", "D[n=2]", "D[n=3]"]
UNBOUNDED_POSETS = ["A", "B", "D", "A[*,d=3]", "B[*,d=2]", "D[*,d=2]"]
BAD_POSETS = [
    "", "E", "C", "A[", "A[n=0,d=1]", "A[n=2,d=-1]", "A[n=x,d=1]", "A[n=2,n=3]",
    "A[n=1,d=2,x=3]", "A[k=2]", "a[n=2,d=2]", f"A[n={BIG_INDEX},d=0]",
    f"D[n={BIG_INDEX},d=0]", f"A[n=2,d={BIG_INDEX}]", f"D[n=2,d={BIG_INDEX}]",
    f"A[n={HUGE},d=1]", f"B[n=3,d={HUGE}]", f"A[n={VERY_LONG},d=1]", "A[n=30,d=10]",
]
BAD_MONOMIALS = [
    "", "x", "x0", "x-1", "x1^", "x1^-1", "x1^1.5", "y1", "X1", "x1**x2", "x1*",
    "*x1", "x1^^2", "x1 x2", "1*1", "0", "2", f"x{BIG_INDEX}", "x1000001",
    f"x{HUGE}", f"x{VERY_LONG}", f"x1^{VERY_LONG}", "x١", "x1^٢",
]
BAD_INTS = ["-1", "0", "x", "", "1.5", HUGE, BIG_INDEX, f"-{HUGE}", VERY_LONG]


def _monomial(rng, nvars=4, degree=3):
    """A monomial word: mostly a product of small powers, written in the
    several spellings the parser takes, sometimes with a huge or zero index
    or exponent, sometimes malformed."""
    roll = rng.random()
    if roll < 0.6:
        terms = []
        for _ in range(rng.randint(1, degree)):
            i, e = rng.randint(1, nvars), rng.randint(0, 3)
            terms.append(rng.choice([f"x{i}^{e}", f"x{i}"] if e == 1 else [f"x{i}^{e}"]))
        return "1" if rng.random() < 0.05 else "*".join(terms)
    if roll < 0.75:
        return f"x{rng.randint(1, 2)}^{rng.choice([HUGE, BIG_INDEX, '0', '70000'])}"
    if roll < 0.8:
        return f"x{rng.choice([HUGE, BIG_INDEX, '0'])}^{rng.randint(0, 2)}"
    return rng.choice(BAD_MONOMIALS)


def _poset(rng, fixed_weight=0.6):
    roll = rng.random()
    if roll < fixed_weight:
        return rng.choice(SMALL_POSETS)
    if roll < fixed_weight + 0.15:
        return rng.choice(GLUED_POSETS)
    if roll < fixed_weight + 0.25:
        return rng.choice(UNBOUNDED_POSETS)
    return rng.choice(BAD_POSETS)


def _int(rng, low, high):
    return str(rng.randint(low, high)) if rng.random() < 0.8 else rng.choice(BAD_INTS)


def _parts(rng, largest=4):
    """A partition word: comma separated, sometimes bracketed, sometimes
    not a partition or not a number."""
    roll = rng.random()
    if roll < 0.7:
        parts = sorted(rng.sample(range(1, largest + 1), rng.randint(0, largest)), reverse=True)
        text = ",".join(map(str, parts))
        return f"[{text}]" if rng.random() < 0.2 else text
    return rng.choice(["1,1", "1,2", "0", "-1", "a", "3,,1", ",", "[", BIG_INDEX, HUGE,
                       f"{HUGE},1", VERY_LONG, "[[1]]"])


def _walk(rng, region):
    steps = ["D"] * region + ["R"] * region
    if rng.random() < 0.7:  # an admissible walk: never more rights than downs
        out, downs = [], 0
        while len(out) < 2 * region:
            if downs < region and (downs == len(out) - downs or rng.random() < 0.5):
                out.append("D")
                downs += 1
            else:
                out.append("R")
        return "".join(out)
    rng.shuffle(steps)
    return rng.choice(["".join(steps), "", "DX", "RD", "D" * (region + 1), "dr", "DR" * 3])


def _filter_word(rng, tmp_path, stdin):
    """A --filter word: inline JSON, a JSON file, '-' (standard input, which
    the payload goes to), or comma separated monomials."""
    members = [_monomial(rng, 3, 3) for _ in range(rng.randint(0, 5))]
    roll = rng.random()
    if roll < 0.3:
        return ",".join(members)
    if roll < 0.45:
        payload = json.dumps(members)
    elif roll < 0.55:
        payload = json.dumps({"elements": [[rng.randint(0, 3) for _ in range(3)] for _ in members]})
    else:
        payload = rng.choice([
            "[", "[1]", '{"a": 1}', '"x1"', "[" * 5000, "[" * 100 + "]" * 100, '{"elements": 3}',
            '{"elements": [[-1, 2]]}', f'{{"elements": [[{HUGE}]]}}', '[null]', "{}", "[[1, 2]]",
            '["x1", "x1"]', f'[[{BIG_INDEX}]]', "NaN", '{"elements": [[1.5]]}',
        ])
    form = rng.random()
    if form < 0.15:
        stdin.append(payload)
        return "-"
    if form < 0.3:
        path = tmp_path / f"filter{rng.randrange(10**9)}.json"
        path.write_text(payload)
        return str(path)
    return payload


def _leaf(rng, tmp_path, stdin):
    """One command line, before any stray word is added."""
    fmt = ["--format", rng.choice(["text", "json"])] if rng.random() < 0.4 else []
    kind = rng.choice([
        "compare", "meet", "join", "hasse", "count", "enumerate", "young", "partition", "walk",
        "squarefree", "check", "separate", "ideal", "gf", "verify",
    ])
    if kind in ("compare", "meet", "join"):
        return [kind, "--poset", _poset(rng), _monomial(rng), _monomial(rng), *fmt]
    if kind in ("hasse", "count", "enumerate"):
        cap = rng.choice(["1000000000", "0", "5", "-1", "x", HUGE]) if rng.random() < 0.3 else None
        # a cap is raised on small posets only
        poset = rng.choice(SMALL_POSETS + GLUED_POSETS) if cap in ("1000000000", HUGE) else _poset(rng)
        argv = [kind, "--poset", poset] + ([] if cap is None else ["--cap", cap])
        if rng.random() < 0.4:
            argv += ["--max-degree", _int(rng, -1, 4)]
        if kind == "hasse":
            fmt = ["--format", rng.choice(["text", "json", "dot", "xml"])] if rng.random() < 0.5 else []
        if kind != "hasse" and rng.random() < 0.4:
            argv += ["--cardinality", _int(rng, -1, 12)]
        if kind == "count" and rng.random() < 0.3:
            argv.append("--by-cardinality")
        if kind == "enumerate" and rng.random() < 0.2:
            argv += ["--hasse-cap", rng.choice(["1000000000", "3", "0", "x"])]
        return argv + fmt
    if kind == "young":
        if rng.random() < 0.5:
            return ["bijection", "young", _monomial(rng), *fmt]
        return ["bijection", "young", "--inverse", _parts(rng), *fmt]
    if kind == "partition":
        degree = rng.randint(0, 4)
        poset = f"A[n=3,d={degree}]" if rng.random() < 0.8 else _poset(rng, 0.3)
        argv = ["bijection", "partition", "--poset", poset]
        if rng.random() < 0.5:
            return argv + ["--inverse", _parts(rng, degree + 2), *fmt]
        return argv + ["--filter", _filter_word(rng, tmp_path, stdin), *fmt]
    if kind == "walk":
        if rng.random() < 0.5:
            region = rng.randint(0, 4)
            return ["bijection", "walk", "--region", _int(rng, 0, 4), "--inverse",
                    _walk(rng, region), *fmt]
        poset = f"D[n=2,d={rng.randint(0, 4)}]" if rng.random() < 0.8 else _poset(rng, 0.3)
        return ["bijection", "walk", "--poset", poset,
                "--filter", _filter_word(rng, tmp_path, stdin), *fmt]
    if kind == "squarefree":
        argv = ["bijection", "squarefree", "--degree", _int(rng, 0, 5)]
        if rng.random() < 0.5:
            return argv + ["--parts", _parts(rng, 6), *fmt]
        return argv + ["--inverse", _monomial(rng, 6, 4), *fmt]
    if kind == "check":
        order = rng.choice(["lex", "deglex", "degrevlex", "weighted", "revlex"])
        argv = ["termorder", "check", "--order", order, "--n", _int(rng, 1, 4),
                "--max-degree", _int(rng, 0, 4)]
        if order == "weighted" or rng.random() < 0.1:
            argv += ["--weights", rng.choice([_parts(rng, 6), "3,2,1", "1,2,3", "0,0", "5,-1", ""])]
        if rng.random() < 0.3:
            argv.append("--degree-first")
        if rng.random() < 0.2:
            argv += ["--cap", rng.choice(["1000000000", "0", "10", "x"])]
        return argv + fmt
    if kind == "separate":
        argv = ["termorder", "separate", _monomial(rng), _monomial(rng)]
        if rng.random() < 0.4:
            argv += ["--n", _int(rng, 1, 5)]
        if rng.random() < 0.2:
            argv += ["--budget", rng.choice(["0", "10", "100000", "-1", "x"])]
        return argv + fmt
    if kind == "ideal":
        gens = ",".join(_monomial(rng) for _ in range(rng.randint(0, 4)))
        return ["ideal", rng.choice(["check", "close"]), "--order", rng.choice("ABCD"),
                "--gens", gens, *fmt]
    if kind == "gf":
        return ["gf", "fountains", "--terms", _int(rng, 0, 30), *fmt]
    suite = rng.choice(["oracle-equivalence", "gaussian-ranks", "blattice-meet",
                        "distributivity", "fountains", "term-orders", "nope"])
    return ["verify", "--suite", suite, "--seed", _int(rng, 0, 3), *fmt]


def command_lines(seed, count, tmp_path):
    """count argv of the generator at seed, each with the text its standard
    input holds and the subcommand path it was made for; files named by
    --filter words go under tmp_path."""
    rng = random.Random(seed)
    for _ in range(count):
        stdin = []
        argv = _leaf(rng, tmp_path, stdin)
        path = tuple(argv[:2] if argv[0] in ("bijection", "termorder", "ideal", "gf") else argv[:1])
        roll = rng.random()
        if roll < 0.03:  # a stray word, a missing one, or a misspelt option
            argv.insert(rng.randint(1, len(argv)), rng.choice(["extra", "--bogus", "-x"]))
        elif roll < 0.05 and len(argv) > 1:
            del argv[rng.randrange(1, len(argv))]
        elif roll < 0.06:
            argv.append("--help")
        yield argv, "".join(stdin), path


def _leaves(parser, path=()):
    """The path of every subcommand below parser that takes no further one."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                if any(isinstance(a, argparse._SubParsersAction) for a in sub._actions):
                    yield from _leaves(sub, path + (name,))
                else:
                    yield path + (name,)


def _outcome(argv, stdin, monkeypatch):
    """(exit code, stderr, whether argparse ended the call) of one argv."""
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    out, err = io.StringIO(), io.StringIO()
    usage = False
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: help, or a usage error
            code, usage = exc.code, True
    return code, err.getvalue(), usage


def test_every_command_line_keeps_the_exit_contract(monkeypatch, tmp_path):
    monkeypatch.setattr(lattice, "_built", {})
    monkeypatch.setattr(lattice, "_held", [0, 0])
    start = time.perf_counter()
    paths = set()
    for argv, stdin, path in command_lines(SEED, COUNT, tmp_path):
        code, err, usage = _outcome(argv, stdin, monkeypatch)
        paths.add(path)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 2 and not usage:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    assert paths == set(_leaves(_build_parser()))  # every subcommand and nested action
    assert time.perf_counter() - start < 30


# Found by the generator: a Young diagram listed a row per unit of degree
# (MemoryError or OverflowError past about 10^7), and the closure and the
# closedness test looked up every exponent below each one, so a generator
# such as x2^(10^30), or x1^300000000 alone, ran without end.
@pytest.mark.parametrize(("argv", "code", "stdout"), [
    (["bijection", "young", f"x1^{HUGE}"], 2, ""),
    (["bijection", "young", "x2^300000000"], 2, ""),
    (["bijection", "young", "x1^4000001"], 2, ""),
    (["bijection", "young", "x3*x1^2"], 0, "[3,1,1]\n"),
    (["ideal", "close", "--order", "A", "--gens", f"x2^{HUGE}"], 2, ""),
    (["ideal", "close", "--order", "A", "--gens", "x2^70000"], 2, ""),
    (["ideal", "close", "--order", "B", "--gens", f"x1*x3^{HUGE}"], 2, ""),
    (["ideal", "close", "--order", "A", "--gens", "x1^300000000"], 0, "{x1^300000000}\n"),
    (["ideal", "close", "--order", "B", "--gens", f"x2^{HUGE},x1"], 0, f"{{x2^{HUGE}, x1}}\n"),
    (["ideal", "check", "--order", "A", "--gens", f"x2^{HUGE}"], 1,
     f"minimal generators: {{x2^{HUGE}}}\nclosed under exchange moves: no\n"),
    (["ideal", "check", "--order", "A", "--gens", f"x1,x2^{HUGE}"], 0,
     f"minimal generators: {{x2^{HUGE}, x1}}\nclosed under exchange moves: yes\n"),
])
def test_huge_exponents_answer_or_refuse_at_once(argv, code, stdout):
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        assert main(argv) == code
    assert out.getvalue() == stdout and err.getvalue().count("\n") == (code == 2)
    assert time.perf_counter() - start < 2
