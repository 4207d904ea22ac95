"""Seeded operation lists for the three workloads, with their checks.

Each operation is one ``stableorders.cli.main(argv)`` call: an argv list, the
exit code a correct program returns, and a check of its stdout.  Inputs and
expected answers come from ``reference`` only, never from ``stableorders``.
The seed picks elements, payload formats and order; the number of operations
of each kind on each poset is fixed, so every seed asks for the same amount
of work.
"""

from __future__ import annotations

import hashlib
import json
import random
import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import reference as ref


@dataclass(frozen=True)
class Op:
    argv: tuple
    code: int
    check: Callable[[str], Optional[str]]
    kind: str
    poset: str = ""
    # Run on a fresh import of the package, so no cache of an earlier call helps.
    fresh: bool = False


def digest(ops):
    """Hash of every argv and expected exit code, in order."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([list(op.argv), op.code]).encode())
    return h.hexdigest()[:16]


def pid(family, n, d=None):
    return f"{family}[n={n}]" if d is None else f"{family}[n={n},d={d}]"


_POSETS = {}


def poset(family, n, degree=None, max_degree=None):
    key = (family, n, degree, max_degree)
    if key not in _POSETS:
        _POSETS[key] = ref.RefPoset(family, n, degree, max_degree)
    return _POSETS[key]


# ---------------------------------------------------------------------------
# checks


def _expect_text(expected):
    def check(out):
        if out != expected:
            return f"expected {expected[:120]!r}, got {out[:120]!r}"
        return None

    return check


def _expect_json(expected):
    def check(out):
        try:
            got = json.loads(out)
        except ValueError:
            return f"unreadable JSON {out[:120]!r}"
        if got != expected:
            return f"expected {str(expected)[:120]}, got {str(got)[:120]}"
        return None

    return check


def _expect(fmt, text, obj):
    return _expect_json(obj) if fmt == "json" else _expect_text(text)


def _silent(out):
    return f"expected no stdout, got {out[:120]!r}" if out else None


def _read_filter_text(line):
    """'{x1^2, x1*x2}' -> frozenset of names."""
    body = line.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"not a filter: {line[:80]!r}")
    body = body[1:-1].strip()
    return frozenset(ref.fmt(ref.parse(t)) for t in body.split(",")) if body else frozenset()


def _read_filter_json(record):
    return frozenset(ref.fmt(ref.strip(e)) for e in record["elements"])


def _check_filters(fmt, P, expected_count, size):
    """The listing holds expected_count distinct filters of P, each of the
    requested size."""

    def check(out):
        try:
            if fmt == "json":
                listed = [_read_filter_json(r) for r in json.loads(out)["filters"]]
            else:
                listed = [_read_filter_text(line) for line in out.splitlines()]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable listing: {exc}"
        if len(listed) != expected_count:
            return f"listed {len(listed)} filters, expected {expected_count}"
        if len(set(listed)) != len(listed):
            return "a filter is listed twice"
        for names in listed:
            if size is not None and len(names) != size:
                return f"filter of size {len(names)} listed for size {size}"
            if not names <= P.by_name.keys() or not P.is_filter(P.by_name[x] for x in names):
                return f"not a filter: {sorted(names)[:6]}"
        return None

    return check


def _check_hasse(fmt, P, name):
    covers = P.covers()
    names = set(P.by_name)

    def check(out):
        try:
            if fmt == "json":
                data = json.loads(out)
                got_names = [v["monomial"] for v in data["vertices"]]
                got = [(got_names[lo], got_names[hi]) for lo, hi in data["covers"]]
                head_ok = data["poset"] == name
            else:
                lines = out.splitlines()
                head_ok = lines[:3] == [
                    f"poset: {name}",
                    f"vertices: {len(names)}",
                    f"covers: {len(covers)}",
                ]
                got_names = names if head_ok else ()
                got = [tuple(reversed(line.split(" covers "))) for line in lines[3:]]
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable diagram: {exc}"
        if not head_ok:
            return f"wrong header {out[:120]!r}"
        if len(got_names) != len(names) or set(got_names) != names:
            return "wrong vertex set"
        if len(got) != len(covers) or set(got) != covers:
            return f"wrong covers ({len(got)} listed, {len(covers)} expected)"
        return None

    return check


# ---------------------------------------------------------------------------
# queries: short pairwise calls on recurring posets

QUERY_POSETS = [
    ("A", 6, 8), ("A", 4, 10), ("A", 3, 12),
    ("B", 6, 8), ("B", 5, 7), ("B", 3, 12),
    ("C", 5, 8), ("C", 6, 6),
    ("D", 3, 10), ("D", 4, 8),
]
GLUED_QUERY_POSETS = [("A", 3), ("A", 4), ("B", 3), ("B", 4), ("D", 3), ("D", 4)]
COMPARES_PER_POSET = 36
MEETS_PER_POSET = 10
# A join on B[n=6,d=8] costs 45 to 90 ms, depending on the pair.
JOINS_PER_POSET = {("B", 6, 8): 4}
GLUED_COMPARES_PER_POSET = 10
# (n, max degree, refines?).  The 24 checks on n=4 up to degree 4, at about
# 60 ms each, are the slowest calls after the joins on B[n=6,d=8]; the
# reported tail percentile falls among them, where their costs are close.
TERMORDER_CHECKS = [(3, 4, True), (3, 4, False), (3, 5, True), (3, 5, True),
                    (4, 3, True), (4, 3, False)] + [(4, 4, True)] * 24
SEPARATES = [3, 3, 3, 3, 4, 4, 4, 4]
_SYMBOL = {"lt": "<", "gt": ">", "eq": "=", "incomparable": "||"}


def _fixed_ground(family, n, d):
    return ref.up_to_degree(n, d) if family == "D" else ref.of_degree(n, d)


def _fixed_leq(family, n, d, m, mp):
    if family == "A":
        return ref.borel_leq(m, mp, n)
    if family == "C":
        return ref.borel_leq(m[::-1], mp[::-1], n)
    if family == "D":
        return all(a <= b for a, b in zip(m, mp))
    P = poset("B", n, d)
    return P.leq(P.index[m], P.index[mp])


def _relation(forward, backward):
    if forward and backward:
        return "eq"
    return "lt" if forward else "gt" if backward else "incomparable"


def _fixed_bound(family, n, d, m, mp, want_join):
    """The meet or join as a padded tuple, or None when there is none."""
    pick = max if want_join else min
    if family in ("A", "C"):
        flip = (lambda t: t[::-1]) if family == "C" else (lambda t: t)
        sums = [pick(a, b) for a, b in zip(ref.partial_sums(flip(m), n), ref.partial_sums(flip(mp), n))]
        return flip(ref.pad(ref.from_partial_sums(sums), n))
    if family == "D":
        out = tuple(pick(a, b) for a, b in zip(m, mp))
        return out if sum(out) <= d else None
    P = poset("B", n, d)
    k = P.bound(P.index[m], P.index[mp], want_join)
    return None if k is None else P.vertices[k]


def _monomial_arg(rng, m):
    """The monomial as text, or now and then as an exponent vector."""
    if rng.random() < 0.15:
        return "[" + ",".join(map(str, ref.strip(m))) + "]"
    return ref.fmt(ref.strip(m))


def _compare_op(rng, family, n, d, m, mp, forward, backward, kind):
    rel = _relation(forward, backward)
    fmt = "json" if rng.random() < 0.2 else "text"
    left, right = ref.fmt(ref.strip(m)), ref.fmt(ref.strip(mp))
    name = pid(family, n, d)
    argv = ("compare", "--poset", name, _monomial_arg(rng, m), _monomial_arg(rng, mp), "--format", fmt)
    check = _expect(fmt, f"{left} {_SYMBOL[rel]} {right}\n",
                    {"poset": name, "left": left, "right": right, "relation": rel})
    return Op(argv, 0, check, kind, name)


def _bound_op(rng, family, n, d, m, mp, op):
    fmt = "json" if rng.random() < 0.2 else "text"
    name = pid(family, n, d)
    argv = (op, "--poset", name, _monomial_arg(rng, m), _monomial_arg(rng, mp), "--format", fmt)
    result = _fixed_bound(family, n, d, m, mp, op == "join")
    if result is None:
        return Op(argv, 1, _silent, op, name)
    r = ref.strip(result)
    obj = {"poset": name, "left": ref.fmt(ref.strip(m)), "right": ref.fmt(ref.strip(mp)),
           op: ref.fmt(r), "exponents": list(r)}
    return Op(argv, 0, _expect(fmt, ref.fmt(r) + "\n", obj), op, name)


def _random_weights(rng, n, decreasing):
    gaps = [rng.randint(1, 5) for _ in range(n)]
    weights = [sum(gaps[i:]) for i in range(n)]
    return weights if decreasing else weights[::-1]


def _termorder_check_op(rng, n, max_degree, refining):
    kind, weights, first = "weighted", None, False
    if refining and n == 4:
        kind = rng.choice(["lex", "deglex", "degrevlex"])  # alike in cost
    elif refining:
        kind = rng.choice(["lex", "deglex", "degrevlex", "weighted", "weighted-first"])
        if kind.startswith("weighted"):
            weights, first = _random_weights(rng, n, True), kind == "weighted-first"
            kind = "weighted"
    else:
        weights = _random_weights(rng, n, False)
    argv = ["termorder", "check", "--order", kind, "--n", str(n), "--max-degree", str(max_degree)]
    if weights:
        argv += ["--weights", ",".join(map(str, weights))]
    if first:
        argv.append("--degree-first")
    ok = ref.refines(kind, weights, first, n, max_degree)

    def check(out):
        lines = out.splitlines()
        if len(lines) != 2 or lines[0] != ("refines: yes" if ok else "refines: no"):
            return f"expected refines {ok}, got {out[:120]!r}"
        try:
            if ok:
                pair = lines[1].removeprefix("sample relation: ").split(" < ")
            else:
                pair = lines[1].removeprefix("violated: ").removesuffix(" in the exchange order").split(" < ")
            low, high = (ref.pad(ref.parse(t), n) for t in pair)
        except ValueError:
            return f"unreadable witness {lines[1]!r}"
        if low == high or not ref.borel_leq(low, high, n):
            return f"witness {lines[1]!r} is not a strict exchange relation"
        if (ref.order_compare(kind, weights, first, low, high) == -1) != ok:
            return f"witness {lines[1]!r} does not show the answer"
        return None

    return Op(tuple(argv), 0 if ok else 1, check, "termorder-check")


def _incomparable_pair(rng, n):
    while True:
        d = rng.randint(2, 5)
        ground = ref.of_degree(n, d)
        m, mp = rng.sample(ground, 2)
        if not ref.borel_leq(m, mp, n) and not ref.borel_leq(mp, m, n):
            return m, mp


def _separate_op(rng, n):
    m, mp = _incomparable_pair(rng, n)
    argv = ("termorder", "separate", ref.fmt(ref.strip(m)), ref.fmt(ref.strip(mp)), "--n", str(n))

    def check(out):
        lines = out.splitlines()
        try:
            above, below = (
                tuple(int(t) for t in line.split(": ", 1)[1].strip("[]").split(","))
                for line in lines
            )
        except ValueError:
            return f"unreadable witnesses {out[:120]!r}"
        for w, want in ((above, 1), (below, -1)):
            if len(w) != n or any(a <= b for a, b in zip(w, w[1:])) or w[-1] < 1:
                return f"{w} is not a strictly decreasing positive weight vector"
            if ref.order_compare("weighted", w, False, m, mp) != want:
                return f"{w} does not order the pair as claimed"
        return None

    return Op(argv, 0, check, "termorder-separate")


def _malformed_queries(rng):
    """Refusals, each expected to exit 2.  The first one is a known defect:
    an unclosed exponent vector escapes as SyntaxError."""
    n, d = rng.choice([(3, 4), (4, 3), (3, 6)])
    name = pid("A", n, d)
    a, b = rng.sample(ref.of_degree(n, d), 2)
    x, y = ref.fmt(ref.strip(a)), ref.fmt(ref.strip(b))
    wrong_degree = ref.fmt((d + 1,))
    c, e = _incomparable_pair(rng, 3)
    argvs = [
        ("compare", "--poset", name, "[1,2", "x1"),
        ("compare", "--poset", f"Q[n={n}]", x, y),
        ("compare", "--poset", name, x, wrong_degree),
        ("compare", "--poset", name, x.replace("x1", "x0") if "x1" in x else "x0", y),
        ("compare", "--poset", name, x, "y1"),
        ("meet", "--poset", pid("B", n), x, y),
        ("comparee", "--poset", name, x, y),
        ("compare", "--poset", name, x),
        ("termorder", "check", "--order", "weighted", "--n", str(n)),
        ("termorder", "separate", ref.fmt(ref.strip(c)), ref.fmt(ref.strip(c)), "--n", "3"),
        ("compare", "--poset", f"A[n={n},d=x]", x, y),
        ("compare", "--poset", "C", x, y),
        ("join", "--poset", name, ref.fmt(ref.strip(e)), f"x{n + 1}^{d}"),
    ]
    return [Op(argv, 2, _silent, "malformed") for argv in argvs]


def queries(seed):
    rng = random.Random(seed)
    ops = []
    for family, n, d in QUERY_POSETS:
        ground = _fixed_ground(family, n, d)
        for _ in range(COMPARES_PER_POSET):
            m, mp = rng.choice(ground), rng.choice(ground)
            ops.append(_compare_op(rng, family, n, d, m, mp,
                                   _fixed_leq(family, n, d, m, mp),
                                   _fixed_leq(family, n, d, mp, m), "compare"))
        for op, count in (("meet", MEETS_PER_POSET), ("join", JOINS_PER_POSET.get((family, n, d), 10))):
            for _ in range(count):
                m, mp = rng.choice(ground), rng.choice(ground)
                ops.append(_bound_op(rng, family, n, d, m, mp, op))
    for family, n in GLUED_QUERY_POSETS:
        for _ in range(GLUED_COMPARES_PER_POSET):
            low = rng.randint(1, 4)
            m = rng.choice(ref.of_degree(n, low))
            mp = rng.choice(ref.of_degree(n, rng.randint(low, low + 3)))
            ops.append(_compare_op(rng, family, n, None, m, mp,
                                   ref.glued_leq(family, m, mp, n),
                                   ref.glued_leq(family, mp, m, n), "compare-glued"))
    ops += [_termorder_check_op(rng, n, md, ok) for n, md, ok in TERMORDER_CHECKS]
    ops += [_separate_op(rng, n) for n in SEPARATES]
    ops += _malformed_queries(rng)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# counting: a ladder of posets, each call on a fresh import, so that no call
# reuses another's work

# (family, n, degree, max_degree): fixed-degree rungs by rising vertex count,
# then glued truncations.  RECURSION_RUNGS are past the depth at which the
# recursive filter counter raises RecursionError; they get hasse and count.
COUNT_LADDER = [
    ("A", 2, 60, None), ("C", 3, 10, None), ("B", 3, 10, None), ("D", 2, 10, None),
    ("A", 4, 6, None), ("C", 4, 6, None), ("B", 3, 11, None), ("D", 2, 11, None),
    ("A", 3, 14, None), ("A", 4, 7, None), ("A", 3, 16, None),
    ("D", 3, None, 4), ("B", 2, None, 7), ("A", 2, None, 10), ("D", 2, None, 10),
    ("B", 3, None, 4), ("C", 3, None, 5), ("A", 3, None, 6),
]
RECURSION_RUNGS = [("A", 3, 45, None), ("A", 2, 1500, None)]


def filter_poly(family, n, d, max_degree):
    """Filter counts by size: a closed form where one applies, else the
    reference counter."""
    if max_degree is None or family == "D":
        size = d if max_degree is None else max_degree
        if family == "A" and n == 2:
            return (1,) * (size + 2)
        if family in ("A", "C") and n == 3:
            return ref.distinct_parts_poly(size)
        if family in ("A", "C") and n == 4:
            return ref.four_var_poly(size)
        if family == "D" and n == 2:
            return ref.staircase_poly(size)
    return poset(family, n, d, max_degree).filter_poly()


def _rung_ops(rng, family, n, d, max_degree, by_cardinality=True):
    name = pid(family, n, d)
    extra = () if max_degree is None else ("--max-degree", str(max_degree))
    P = poset(family, n, d, max_degree)
    fmt = rng.choice(["text", "json"])
    ops = [Op(("hasse", "--poset", name, *extra, "--format", fmt), 0,
              _check_hasse(fmt, P, name), "hasse", name)]
    poly = filter_poly(family, n, d, max_degree)
    total = sum(poly)
    fmt = rng.choice(["text", "json"])
    ops.append(Op(("count", "--poset", name, *extra, "--format", fmt), 0,
                  _expect(fmt, f"{total}\n", {"poset": name, "count": total}), "count", name))
    if by_cardinality:
        counts = list(poly) + [0] * (len(P) + 1 - len(poly))
        fmt = rng.choice(["text", "json"])
        text = "".join(f"{v} {c}\n" for v, c in enumerate(counts))
        ops.append(Op(("count", "--poset", name, *extra, "--by-cardinality", "--format", fmt), 0,
                      _expect(fmt, text, {"poset": name, "counts": counts}),
                      "count-by-cardinality", name))
    return ops


def _verify_check(out):
    lines = out.splitlines()
    bad = [line for line in lines if not (line.endswith(" checks)") and ": PASS (" in line)]
    if len(lines) != 10 or bad:
        return f"verify did not pass every suite: {bad[:3] or lines[:3]}"
    return None


def counting(seed):
    rng = random.Random(seed)
    ops = []
    for rung in COUNT_LADDER:
        ops += _rung_ops(rng, *rung)
    for family, n, d, _ in RECURSION_RUNGS:
        ops += _rung_ops(rng, family, n, d, None, by_cardinality=False)
    rng.shuffle(ops)
    ops.append(Op(("verify", "--suite", "all", "--seed", str(seed)), 0, _verify_check, "verify"))
    return [dataclasses.replace(op, fresh=True) for op in ops]


# ---------------------------------------------------------------------------
# enumeration: listings and bijection round trips

ENUM_POSETS = [("A", 3, 9), ("D", 2, 6), ("B", 3, 6), ("C", 4, 4)]
PARTITION_DEGREES = (5, 6, 7, 8)
WALK_DEGREES = (4, 5, 6, 7)
FOUNTAIN_TERMS = 120


def _payload(rng, names_exps):
    """A filter as a JSON record, a bare JSON list of names, or a comma list."""
    style = rng.choice(["record", "list", "names"])
    items = sorted(names_exps)
    rng.shuffle(items)
    if style == "record":
        return json.dumps({"elements": [list(e) for e in items]})
    if style == "list":
        return json.dumps([ref.fmt(ref.strip(e)) for e in items])
    return ",".join(ref.fmt(ref.strip(e)) for e in items)


def _random_filter(rng, P):
    gens = rng.sample(range(len(P)), rng.randint(1, 3))
    return [P.vertices[k] for k in sorted(P.closure(gens))]


def _expect_filter(members):
    want = frozenset(ref.fmt(ref.strip(m)) for m in members)

    def check(out):
        try:
            got = _read_filter_text(out)
        except ValueError as exc:
            return str(exc)
        return None if got == want else f"round trip changed the filter: {sorted(got ^ want)[:6]}"

    return check


def _enumerate_ops(family, n, d):
    """Full listings, and listings of the three middle cardinalities."""
    name = pid(family, n, d)
    P = poset(family, n, d)
    poly = filter_poly(family, n, d, None)
    ops = []
    for fmt in ("text", "json"):
        ops.append(Op(("enumerate", "--poset", name, "--format", fmt), 0,
                      _check_filters(fmt, P, sum(poly), None), "enumerate", name))
        for size in range(len(P) // 2 - 1, len(P) // 2 + 2):
            ops.append(Op(("enumerate", "--poset", name, "--cardinality", str(size), "--format", fmt), 0,
                          _check_filters(fmt, P, poly[size], size), "enumerate-cardinality", name))
    return ops


def _partition_trip(rng, d):
    name = pid("A", 3, d)
    members = _random_filter(rng, poset("A", 3, d))
    parts = ref.filter_partition(members)
    parts_text = ",".join(map(str, parts))
    fmt = rng.choice(["text", "json"])
    return [
        Op(("bijection", "partition", "--poset", name, "--filter", _payload(rng, members), "--format", fmt),
           0, _expect(fmt, f"[{parts_text}]\n", {"partition": list(parts)}), "bijection", name),
        Op(("bijection", "partition", "--poset", name, "--inverse", parts_text),
           0, _expect_filter(members), "bijection", name),
    ]


def _walk_trip(rng, d):
    name = pid("D", 2, d)
    members = _random_filter(rng, poset("D", 2, d))
    walk = ref.filter_walk(members, d)
    return [
        Op(("bijection", "walk", "--poset", name, "--filter", _payload(rng, members)),
           0, _expect_text(walk + "\n"), "bijection", name),
        Op(("bijection", "walk", "--region", str(d + 2), "--inverse", walk),
           0, _expect_filter(members), "bijection", name),
    ]


def _malformed_payloads(rng):
    """Bad --filter payloads, each expected to exit 2.  The first two are
    known defects: they escape as KeyError and TypeError."""
    d = rng.randint(4, 7)
    kind, family, n = rng.choice([("partition", "A", 3), ("walk", "D", 2)])
    name = pid(family, n, d)
    P = poset(family, n, d)
    least = max(range(len(P)), key=lambda k: P.up[k].bit_count())
    bottom = ref.fmt(ref.strip(P.vertices[least]))
    outside = ref.fmt((d + 1,))
    payloads = ['{"foo":1}', '{"elements": 3}', bottom, outside, '{"elements": [', '{"elements": [true]}']
    return [Op(("bijection", kind, "--poset", name, "--filter", p), 2, _silent, "malformed", name)
            for p in payloads]


def enumeration(seed):
    rng = random.Random(seed)
    ops = []
    for family, n, d in ENUM_POSETS:
        ops += _enumerate_ops(family, n, d)
    for d in PARTITION_DEGREES:
        ops += _partition_trip(rng, d)
    for d in WALK_DEGREES:
        ops += _walk_trip(rng, d)
    coefficients = ref.fountain_series(FOUNTAIN_TERMS)
    ops.append(Op(("gf", "fountains", "--terms", str(FOUNTAIN_TERMS)), 0,
                  _expect_text(" ".join(map(str, coefficients)) + "\n"), "gf"))
    ops += _malformed_payloads(rng)
    rng.shuffle(ops)
    return ops


WORKLOADS = {"queries": queries, "counting": counting, "enumeration": enumeration}
