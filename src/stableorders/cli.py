"""Command line interface: compare monomials, build Hasse diagrams, compute
meets and joins, count and enumerate filters, run the combinatorial
bijections, test term orders, and verify the package's claims.

Exit codes: 0 on success (or a verified property), 1 when a check or
verification fails, 2 on bad usage or malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations, compress

from .monomials import Monomial, graded_lex_key, monomials_up_to_degree
from .orders import (
    Family,
    PosetId,
    ground_monomials,
    leq,
    monomial_from_partial_sums,
    partial_sums,
    reachability_oracle,
    relation,
)
from .lattice import (
    CapExceededError,
    NotLatticeError,
    _meet_join_tables,
    build_hasse,
    check_distributive,
    find_n5,
    gaussian,
    height_width,
    join,
    join_stable,
    meet,
    meet_stable,
    rank_sizes,
)
from .filters import (
    SweepBudgetError,
    _filter_masks,
    borel_closure,
    boundary,
    catalan,
    count_filters,
    enumerate_filters,
    filter_count_three_vars,
    filter_counts_by_size,
    interior,
    is_borel_ideal,
    is_filter,
    is_filter_by_layers,
    is_stable_ideal,
    minimal_generators,
    pivot_filter_counts,
    stable_closure,
    stable_filter_counts,
    weighted_walk_count,
)
from .bijections import (
    LatticeWalk,
    count_fountains,
    distinct_partition_to_filter,
    distinct_partition_to_squarefree,
    enumerate_walks,
    filter_to_distinct_partition,
    filter_to_walk,
    fountain_gf_coefficients,
    limit_filter_count,
    monomial_to_young,
    planar_partition_filter_count,
    planar_partition_from_levels,
    iter_filter_level_stacks,
    remove_first_column,
    squarefree_to_distinct_partition,
    walk_to_filter,
    walk_weight,
    young_contains,
    young_to_monomial,
)
from .termorders import (
    GREATER,
    LESS,
    REFINES_PAIR_CAP,
    TermOrder,
    ordinal_sum_leq,
    random_weight_vector,
    refines_borel,
    separating_witnesses,
)

_RELATION_SYMBOL = {"lt": "<", "gt": ">", "eq": "=", "incomparable": "||"}


# ---------------------------------------------------------------------------
# small input/output helpers


def _parse_elements(text):
    """Comma separated monomials, e.g. 'x1^2,x1*x2' (empty string allowed)."""
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(Monomial.parse(tok) for tok in text.split(","))


def _elements_from_json(data):
    """Decode a filter record: {"elements": [...]} or a bare list, entries
    being exponent arrays or monomial strings."""
    if isinstance(data, dict):
        if "elements" not in data:
            raise ValueError('a filter record needs an "elements" list')
        data = data["elements"]
    if not isinstance(data, list):
        raise ValueError("filter elements must be a JSON list")
    out = set()
    for entry in data:
        if isinstance(entry, str):
            out.add(Monomial.parse(entry))
        elif isinstance(entry, list):
            out.add(Monomial(entry))
        else:
            raise ValueError("filter entries must be exponent arrays or monomial strings")
    return frozenset(out)


def _filter_payload(text):
    """Filter elements from inline JSON, '-' (standard input), a JSON file
    path, or a comma separated monomial list."""
    if text is None:
        raise ValueError("give the filter with --filter")
    if text == "-":
        return _elements_from_json(json.load(sys.stdin))
    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        return _elements_from_json(json.loads(stripped))
    try:
        with open(text) as fh:
            return _elements_from_json(json.load(fh))
    except OSError:
        return _parse_elements(text)


def _elements_json_dict(elements):
    return {"elements": [list(m.exps) for m in _sorted_elements(elements)]}


def _parse_parts(text):
    text = text.strip().strip("[]")
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


def _format_parts(parts):
    return "[" + ",".join(str(p) for p in parts) + "]"


def _sorted_elements(elements):
    return sorted(elements, key=graded_lex_key, reverse=True)


def _format_filter(elements):
    return "{" + ", ".join(str(m) for m in _sorted_elements(elements)) + "}"


def _emit(args, payload, *lines):
    """The one place that picks the output format: the payload as indented
    JSON under --format json, otherwise the text lines, one per line."""
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _emit_monomial(args, m):
    _emit(args, {"monomial": str(m), "exponents": list(m.exps)}, m)


def _emit_partition(args, parts):
    _emit(args, {"partition": list(parts)}, _format_parts(parts))


def _emit_filter(args, elements):
    _emit(args, _elements_json_dict(elements), _format_filter(elements))


# ---------------------------------------------------------------------------
# command handlers


def _cmd_compare(args):
    poset = PosetId.parse(args.poset)
    m = Monomial.parse(args.left)
    mp = Monomial.parse(args.right)
    rel = relation(poset, m, mp)
    payload = {"poset": str(poset), "left": str(m), "right": str(mp), "relation": rel}
    _emit(args, payload, f"{m} {_RELATION_SYMBOL[rel]} {mp}")
    return 0


def _capped(flag, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a cap refusal naming the flag that raises the cap."""
    try:
        return fn(*args, **kwargs)
    except SweepBudgetError:
        raise  # no flag raises the sweep's budget
    except CapExceededError as exc:
        raise CapExceededError(f"{exc}; raise it with {flag}") from None


def _cmd_hasse(args):
    poset = PosetId.parse(args.poset)
    h = _capped("--cap", build_hasse, poset, cap=args.cap, max_degree=args.max_degree)
    # each format is built only when asked for: large diagrams make them costly
    if args.format == "dot":
        print(h.to_dot())
    elif args.format == "json":
        _emit(args, h.to_json_dict())
    else:
        header = (f"poset: {poset}", f"vertices: {len(h)}", f"covers: {len(h.covers)}")
        covers = (f"{h.vertices[hi]} covers {h.vertices[lo]}" for lo, hi in h.covers)
        _emit(args, None, *header, *covers)
    return 0


def _cmd_bound(args):
    poset = PosetId.parse(args.poset)
    m = Monomial.parse(args.left)
    mp = Monomial.parse(args.right)
    op = join if args.operation == "join" else meet
    try:
        result = op(poset, m, mp)
    except NotLatticeError as exc:
        print(f"no {args.operation}: {exc}", file=sys.stderr)
        return 1
    _emit(
        args,
        {
            "poset": str(poset),
            "left": str(m),
            "right": str(mp),
            args.operation: str(result),
            "exponents": list(result.exps),
        },
        result,
    )
    return 0


def _cmd_count(args):
    poset = PosetId.parse(args.poset)
    h = _capped("--cap", build_hasse, poset, cap=args.cap, max_degree=args.max_degree)
    if args.by_cardinality:
        counts = list(filter_counts_by_size(h))
        _emit(
            args,
            {"poset": str(poset), "counts": counts},
            *(f"{v} {cnt}" for v, cnt in enumerate(counts)),
        )
        return 0
    total = count_filters(h, args.cardinality)
    payload = {"poset": str(poset), "count": total}
    if args.cardinality is not None:
        payload["cardinality"] = args.cardinality
    _emit(args, payload, total)
    return 0


# A filter's bitmask spelt from its highest bit down, one byte 0 or 1 per
# vertex: the selectors that pick its members out of a reversed table.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")

# json.dumps(indent=2) starts each exponent list of "elements" here
_JSON_INDENT = "\n" + " " * 8


def _cmd_enumerate(args):
    poset = PosetId.parse(args.poset)
    h = _capped("--hasse-cap", build_hasse, poset, cap=args.hasse_cap, max_degree=args.max_degree)
    masks = _capped("--cap", _filter_masks, h, args.cardinality, cap=args.cap)
    # A filter lists its vertices by descending graded-lex rank, the order
    # of _sorted_elements.  build_hasse lists the vertices in graded-lex
    # order, so a mask's bits read from the highest down give that order.
    width = f"0{len(h)}b"

    def members(table, mask):
        return compress(table, format(mask, width).encode().translate(_BIT_BYTES))

    # each vertex is rendered once, and each format only when asked for
    if args.format == "json":
        # the layout of json.dumps(payload, indent=2), record by record,
        # around each exponent list laid out by json.dumps at its depth
        table = [json.dumps(list(m.exps), indent=2).replace("\n", _JSON_INDENT)
                 for m in reversed(h.vertices)]
        sep, write = "," + _JSON_INDENT, sys.stdout.write
        write(f'{{\n  "poset": {json.dumps(str(poset))},\n  "filters": ')
        opening = "[\n"
        for mask in masks:
            elements = f"[{_JSON_INDENT}{sep.join(members(table, mask))}\n      ]" if mask else "[]"
            write(f'{opening}    {{\n      "elements": {elements}\n    }}')
            opening = ",\n"
        write("[]\n}\n" if opening == "[\n" else "\n  ]\n}\n")
    else:
        table = [str(m) for m in reversed(h.vertices)]
        sys.stdout.writelines(f"{{{', '.join(members(table, mask))}}}\n" for mask in masks)
    return 0


def _cmd_bijection_young(args):
    if (args.monomial is None) == (args.inverse is None):
        raise ValueError("give either a monomial or --inverse PARTS")
    if args.monomial is not None:
        _emit_partition(args, monomial_to_young(Monomial.parse(args.monomial)))
    else:
        _emit_monomial(args, young_to_monomial(_parse_parts(args.inverse)))
    return 0


def _degree_of(args, family, nvars, what):
    poset = PosetId.parse(args.poset) if args.poset else None
    if (
        poset is None
        or poset.family is not family
        or poset.nvars != nvars
        or poset.degree is None
    ):
        raise ValueError(
            f"the {what} bijection needs --poset {family.code}[n={nvars},d=<degree>]"
        )
    return poset.degree


def _cmd_bijection_partition(args):
    degree = _degree_of(args, Family.BOREL, 3, "partition")
    if args.inverse is not None:
        _emit_filter(args, distinct_partition_to_filter(_parse_parts(args.inverse), degree))
    else:
        parts = filter_to_distinct_partition(_filter_payload(args.filter), degree)
        _emit_partition(args, parts)
    return 0


def _cmd_bijection_walk(args):
    if args.inverse is not None:
        if args.region is None:
            raise ValueError("--inverse needs --region")
        _emit_filter(args, walk_to_filter(LatticeWalk.from_string(args.region, args.inverse)))
    else:
        degree = _degree_of(args, Family.DIVISIBILITY, 2, "walk")
        walk = filter_to_walk(_filter_payload(args.filter), degree)
        payload = {"region": walk.region, "steps": str(walk), "weight": walk_weight(walk)}
        _emit(args, payload, walk)
    return 0


def _cmd_bijection_squarefree(args):
    if (args.parts is None) == (args.inverse is None):
        raise ValueError("give either --parts or --inverse MONOMIAL")
    if args.parts is not None:
        m = distinct_partition_to_squarefree(_parse_parts(args.parts), args.degree)
        _emit_monomial(args, m)
    else:
        parts = squarefree_to_distinct_partition(Monomial.parse(args.inverse), args.degree)
        _emit_partition(args, parts)
    return 0


def _cmd_termorder_check(args):
    weights = _parse_parts(args.weights) if args.weights else None
    order = TermOrder(args.order, weights=weights, degree_first=args.degree_first)
    ok, witness = _capped("--cap", refines_borel, order, args.n, args.max_degree, cap=args.cap)
    payload = {"order": args.order, "refines": ok}
    lines = [f"refines: {'yes' if ok else 'no'}"]
    if not ok:
        payload["violated"] = [str(witness[0]), str(witness[1])]
        lines.append(f"violated: {witness[0]} < {witness[1]} in the exchange order")
    elif witness is not None:
        payload["sample"] = [str(witness[0]), str(witness[1])]
        lines.append(f"sample relation: {witness[1]} < {witness[0]}")
    _emit(args, payload, *lines)
    return 0 if ok else 1


def _cmd_termorder_separate(args):
    m = Monomial.parse(args.left)
    mp = Monomial.parse(args.right)
    above, below = separating_witnesses(m, mp, nvars=args.n, budget=args.budget)
    lines = (f"above: {_format_parts(above)}", f"below: {_format_parts(below)}")
    _emit(args, {"above": list(above), "below": list(below)}, *lines)
    return 0


def _cmd_ideal(args):
    gens = _parse_elements(args.gens)
    if not gens:
        raise ValueError("--gens must name at least one monomial")
    close = borel_closure if args.order == "A" else stable_closure
    is_closed = is_borel_ideal if args.order == "A" else is_stable_ideal
    if args.action == "close":
        _emit_filter(args, close(gens))
        return 0
    mingens = minimal_generators(gens)
    ok = is_closed(gens)
    _emit(
        args,
        {
            "closed": ok,
            "minimal_generators": [str(m) for m in _sorted_elements(mingens)],
        },
        f"minimal generators: {_format_filter(mingens)}",
        f"closed under exchange moves: {'yes' if ok else 'no'}",
    )
    return 0 if ok else 1


def _cmd_gf(args):
    coeffs = fountain_gf_coefficients(args.terms)
    _emit(args, {"coefficients": coeffs}, " ".join(str(c) for c in coeffs))
    return 0


def _cmd_verify(args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    reports = [run_suite(name, seed=args.seed) for name in names]
    lines = []
    for r in reports:
        if r.failed:
            lines.append(f"{r.suite}: FAIL ({r.failed} of {r.passed + r.failed} checks)")
            lines += [f"  - {f}" for f in r.failures[:10]]
        else:
            lines.append(f"{r.suite}: PASS ({r.passed} checks)")
    _emit(
        args,
        [
            {
                "suite": r.suite,
                "passed": r.passed,
                "failed": r.failed,
                "failures": r.failures,
            }
            for r in reports
        ],
        *lines,
    )
    for r in reports:
        print(f"[{r.suite} took {r.runtime_ms:.0f} ms]", file=sys.stderr)
    return 1 if any(r.failed for r in reports) else 0


# ---------------------------------------------------------------------------
# verification suites


@dataclass
class VerifyReport:
    suite: str
    passed: int
    failed: int
    failures: list[str]
    runtime_ms: float


@dataclass
class _Checker:
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, name, condition):
        if condition:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(name)


def run_suite(name, seed=0):
    """Run one verification suite and report pass/fail counts."""
    fn = _SUITES[name]
    checker = _Checker()
    start = time.perf_counter()
    fn(checker, random.Random(seed))
    ms = (time.perf_counter() - start) * 1000.0
    return VerifyReport(name, checker.passed, checker.failed, checker.failures, ms)


def _suite_oracle_equivalence(c, rng):
    poset_texts = (
        "A[n=2,d=4]",
        "A[n=3,d=3]",
        "B[n=3,d=3]",
        "B[n=4,d=2]",
        "C[n=3,d=3]",
        "D[n=2,d=3]",
    )
    for text in poset_texts:
        poset = PosetId.parse(text)
        ground = ground_monomials(poset)
        ok = all(
            leq(poset, m, mp) == reachability_oracle(poset, m, mp)
            for m in ground
            for mp in ground
        )
        c.check(f"comparisons match move reachability on {text}", ok)
    ok = all(
        monomial_from_partial_sums(partial_sums(m)) == m
        for m in monomials_up_to_degree(4, 3)
    )
    c.check("partial-sum round trip (4 vars, degree <= 3)", ok)


def _suite_gaussian_ranks(c, rng):
    for n in (2, 3, 4):
        for d in (1, 2, 3, 4):
            h = build_hasse(PosetId(Family.BOREL, n, d))
            ranks = rank_sizes(h)
            coeffs = gaussian(n - 1, d).coefficients
            c.check(f"rank sizes match gaussian({n - 1},{d})", tuple(ranks) == coeffs)
            unimodal = all(
                ranks[i] <= ranks[i + 1] for i in range(len(ranks) // 2)
            ) and all(ranks[i] >= ranks[i + 1] for i in range(len(ranks) // 2, len(ranks) - 1))
            c.check(
                f"rank sizes palindromic and unimodal (n={n}, d={d})",
                ranks == ranks[::-1] and unimodal,
            )
            height, width = height_width(h)
            c.check(
                f"height and width (n={n}, d={d})",
                height == (n - 1) * d and width == max(coeffs),
            )


def _suite_blattice_meet(c, rng):
    for n, d in ((2, 4), (3, 2), (3, 3), (3, 4), (4, 2)):
        h = build_hasse(PosetId(Family.STABLE, n, d))
        meets, joins = _meet_join_tables(h)
        ok_meet = ok_join = True
        for i, m in enumerate(h.vertices):
            for j, mp in enumerate(h.vertices):
                if h.vertices[meets[i][j]] != meet_stable(m, mp, n, d):
                    ok_meet = False
                if h.vertices[joins[i][j]] != join_stable(m, mp, n, d):
                    ok_join = False
        c.check(f"case-by-case meet matches brute force (n={n}, d={d})", ok_meet)
        c.check(f"join from minimal upper bounds matches brute force (n={n}, d={d})", ok_join)


def _suite_distributivity(c, rng):
    for n, d in ((2, 5), (3, 3), (3, 4), (4, 2)):
        h = build_hasse(PosetId(Family.BOREL, n, d))
        c.check(f"strongly-stable order distributive (n={n}, d={d})", check_distributive(h)[0])
        c.check(f"no pentagon in strongly-stable order (n={n}, d={d})", find_n5(h) is None)
    for n, d in ((3, 2), (3, 3), (4, 2)):
        h = build_hasse(PosetId(Family.STABLE, n, d))
        c.check(f"pentagon found in stable order (n={n}, d={d})", find_n5(h) is not None)
        c.check(f"stable order not distributive (n={n}, d={d})", not check_distributive(h)[0])


def _suite_filter_counts(c, rng):
    ok = all(
        count_filters(build_hasse(PosetId(Family.BOREL, 2, d))) == d + 2
        for d in range(1, 9)
    )
    c.check("two-variable filter count is degree + 2", ok)
    ok = all(
        count_filters(build_hasse(PosetId(Family.BOREL, 3, d))) == 2 ** (d + 1)
        for d in range(1, 7)
    )
    c.check("three-variable filter count is 2^(degree+1)", ok)
    for d in range(1, 6):
        h = build_hasse(PosetId(Family.BOREL, 3, d))
        oracle, counts = pivot_filter_counts(h), filter_counts_by_size(h)
        ok = all(
            filter_count_three_vars(d, v) == oracle[v] == counts[v]
            for v in range(len(h) + 1)
        )
        c.check(f"three-variable recurrence matches pivot counts (d={d})", ok)
        subsets = [
            sum(combo)
            for size in range(d + 2)
            for combo in combinations(range(1, d + 2), size)
        ]
        ok = all(
            filter_count_three_vars(d, v) == subsets.count(v) for v in range(len(h) + 1)
        )
        c.check(f"three-variable counts match distinct-part partitions (d={d})", ok)
    h = build_hasse(PosetId(Family.BOREL, 3, 3))
    c.check(
        "enumeration agrees with counting on the degree-3 three-variable order",
        len(list(enumerate_filters(h))) == count_filters(h) == 16,
    )


def _suite_stable_counts(c, rng):
    for d in range(0, 6):
        total, by_size = stable_filter_counts(d)
        c.check(
            f"stable filter total is a Catalan partial sum (d={d})",
            total == sum(catalan(i) for i in range(d + 2)) and sum(by_size) == total,
        )
    for d in range(1, 5):
        h = build_hasse(PosetId(Family.STABLE, 3, d))
        _, by_size = stable_filter_counts(d)
        oracle, counts = pivot_filter_counts(h), filter_counts_by_size(h)
        ok = all(
            counts[v] == (by_size[v] if v < len(by_size) else 0) == oracle[v]
            for v in range(len(h) + 1)
        )
        c.check(f"stable counts by size match pivot counts (d={d})", ok)
    ok = all(len(list(enumerate_walks(m))) == catalan(m) for m in range(0, 9))
    c.check("bounded walks are counted by Catalan numbers", ok)
    for e in range(1, 5):
        top = (e + 1) * (e + 2) // 2
        total = sum(weighted_walk_count(e, 0, e + 2, w) for w in range(top + 1))
        c.check(f"walk weights distribute a Catalan number (d={e})", total == catalan(e + 2))


def _suite_splicing(c, rng):
    c.check(
        "interior of a two-variable pair",
        interior({Monomial((2,)), Monomial((1, 1))}, 2) == {Monomial((2,))},
    )
    c.check(
        "boundary of a two-variable pair",
        boundary({Monomial((2,)), Monomial((1, 1))}, 2) == {Monomial((1, 1))},
    )
    for n, d in ((3, 3), (4, 2)):
        poset = PosetId(Family.BOREL, n, d)
        h = build_hasse(poset)
        ok = all(is_filter_by_layers(f, n, d) for f in enumerate_filters(h))
        c.check(f"every filter passes the layer test (n={n}, d={d})", ok)
        ground = sorted(ground_monomials(poset), key=graded_lex_key)
        ok = True
        for _ in range(150):
            subset = frozenset(rng.sample(ground, rng.randint(0, len(ground))))
            if is_filter(subset, poset) != is_filter_by_layers(subset, n, d):
                ok = False
            closed = frozenset(borel_closure(subset))
            if not is_filter_by_layers(closed, n, d):
                ok = False
        c.check(f"layer test matches the direct test on random subsets (n={n}, d={d})", ok)


def _suite_fountains(c, rng):
    coeffs = fountain_gf_coefficients(8)
    c.check(
        "generating function prefix",
        coeffs == [1, 1, 1, 2, 3, 5, 9, 15, 26],
    )
    ok = all(count_fountains(w) == coeffs[w] for w in range(9))
    c.check("fountain enumeration matches the continued fraction", ok)
    ok = all(limit_filter_count(w) == coeffs[w] for w in range(7))
    c.check("stable filter counts stabilize to fountain numbers", ok)


def _suite_bijections(c, rng):
    ok = all(
        young_to_monomial(monomial_to_young(m)) == m
        for m in monomials_up_to_degree(4, 4)
    )
    c.check("Young diagram round trip", ok)
    poset = PosetId(Family.DUAL_BOREL, 3, 3)
    ground = ground_monomials(poset)
    ok = all(
        leq(poset, m, mp) == young_contains(monomial_to_young(mp), monomial_to_young(m))
        for m in ground
        for mp in ground
    )
    c.check("dual order is Young diagram containment (n=3, d=3)", ok)
    for d in range(1, 6):
        h = build_hasse(PosetId(Family.BOREL, 3, d))
        ok = True
        for f in enumerate_filters(h):
            parts = filter_to_distinct_partition(f, d)
            if distinct_partition_to_filter(parts, d) != f or sum(parts) != len(f):
                ok = False
            m = distinct_partition_to_squarefree(parts, d)
            if squarefree_to_distinct_partition(m, d) != parts:
                ok = False
        c.check(f"filter <-> distinct partition <-> squarefree round trips (d={d})", ok)
    for d in range(0, 5):
        h = build_hasse(PosetId(Family.DIVISIBILITY, 2, d))
        filters = list(enumerate_filters(h))
        ok = all(walk_to_filter(filter_to_walk(f, d)) == f for f in filters)
        c.check(f"filter -> walk -> filter round trip (d={d})", ok)
        walks = list(enumerate_walks(d + 2))
        ok = all(filter_to_walk(walk_to_filter(w), d) == w for w in walks)
        c.check(f"walk -> filter -> walk round trip (region {d + 2})", ok)
        ok = all(walk_weight(filter_to_walk(f, d)) == len(f) for f in filters)
        c.check(f"walk weight equals filter size (d={d})", ok)
    walk = LatticeWalk.from_string(8, "DDDDRRRDRRDRDDRR")
    expected = frozenset(
        Monomial(p)
        for p in ((0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (2, 4), (3, 3), (6, 0))
    )
    c.check(
        "worked walk example",
        walk_to_filter(walk) == expected
        and filter_to_walk(expected, 6) == walk
        and walk_weight(walk) == 8,
    )
    f = distinct_partition_to_filter((6, 5, 3, 1), 7)
    c.check(
        "worked partition example",
        len(f) == 15
        and is_filter(f, PosetId(Family.BOREL, 3, 7))
        and filter_to_distinct_partition(f, 7) == (6, 5, 3, 1)
        and distinct_partition_to_squarefree((6, 5, 3, 1), 7)
        == Monomial((0, 0, 1, 1, 0, 1, 0, 1)),
    )
    for d in range(0, 4):
        got = planar_partition_filter_count(d)
        want = count_filters(build_hasse(PosetId(Family.BOREL, 4, d)))
        c.check(f"planar partition count matches four-variable filters (d={d})", got == want)
    for d in range(0, 3):
        stacks = list(iter_filter_level_stacks(d))
        ok = len(stacks) == planar_partition_filter_count(d)
        for levels in stacks:
            planar_partition_from_levels(levels, d)  # validates shape
        c.check(f"level stacks build planar partitions (d={d})", ok)
    c.check(
        "first-column removal",
        remove_first_column((1, 1)) == ()
        and remove_first_column((3, 1, 1)) == (2,)
        and remove_first_column((4, 4, 2)) == (3, 3, 1),
    )


def _suite_term_orders(c, rng):
    for kind in ("lex", "deglex", "degrevlex"):
        ok, _ = refines_borel(TermOrder(kind), 3, 4)
        c.check(f"{kind} refines the strongly-stable order", ok)
    ok = True
    for _ in range(8):
        weights = random_weight_vector(3, rng)
        if not refines_borel(TermOrder("weighted", weights=weights), 3, 3)[0]:
            ok = False
    c.check("random decreasing weights refine the strongly-stable order", ok)
    above, below = separating_witnesses(Monomial((1, 0, 1)), Monomial((0, 2)))
    c.check("separating witnesses for x1*x3 vs x2^2", above == (3, 2, 1) and below == (4, 3, 1))
    samples = [TermOrder("deglex"), TermOrder("degrevlex")]
    for _ in range(8):
        samples.append(
            TermOrder("weighted", weights=random_weight_vector(3, rng), degree_first=True)
        )
    ground = monomials_up_to_degree(3, 3)
    ok = True
    for m in ground:
        for mp in ground:
            if m == mp:
                continue
            if ordinal_sum_leq(m, mp):
                if any(o.compare(m, mp) != LESS for o in samples):
                    ok = False
            elif m.degree() == mp.degree() and not ordinal_sum_leq(mp, m):
                above, _ = separating_witnesses(m, mp, nvars=3)
                refuter = TermOrder("weighted", weights=above, degree_first=True)
                if refuter.compare(m, mp) != GREATER:
                    ok = False
    c.check("ordinal sum is the intersection of degree-compatible orders", ok)


_SUITES = {
    "oracle-equivalence": _suite_oracle_equivalence,
    "gaussian-ranks": _suite_gaussian_ranks,
    "blattice-meet": _suite_blattice_meet,
    "distributivity": _suite_distributivity,
    "filter-counts": _suite_filter_counts,
    "stable-counts": _suite_stable_counts,
    "splicing": _suite_splicing,
    "fountains": _suite_fountains,
    "bijections": _suite_bijections,
    "term-orders": _suite_term_orders,
}


# ---------------------------------------------------------------------------
# parser


def _finish_subcommand(parser, handler, *, dot=False, **defaults):
    """Give a subcommand its --format option, its handler and other defaults."""
    choices = ("text", "json", "dot") if dot else ("text", "json")
    parser.add_argument("--format", choices=choices, default="text")
    parser.set_defaults(handler=handler, **defaults)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stableorders",
        description="Partial orders on monomials: lattices, filters, bijections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    poset_help = "order id, e.g. A[n=3,d=4], B[n=3], D, C[n=3,d=2], A[*,*]"

    p = sub.add_parser("compare", help="compare two monomials in an order")
    p.add_argument("--poset", required=True, help=poset_help)
    p.add_argument("left")
    p.add_argument("right")
    _finish_subcommand(p, _cmd_compare)

    p = sub.add_parser("hasse", help="build the Hasse diagram of a finite order")
    p.add_argument("--poset", required=True, help=poset_help)
    p.add_argument("--max-degree", type=int, default=None, help="truncate an unbounded order")
    p.add_argument("--cap", type=int, default=50_000, help="largest allowed vertex count")
    _finish_subcommand(p, _cmd_hasse, dot=True)

    for op in ("meet", "join"):
        p = sub.add_parser(op, help=f"{op} of two monomials")
        p.add_argument("--poset", required=True, help=poset_help)
        p.add_argument("left")
        p.add_argument("right")
        _finish_subcommand(p, _cmd_bound, operation=op)

    p = sub.add_parser("count", help="count the filters of a finite order")
    p.add_argument("--poset", required=True, help=poset_help)
    p.add_argument("--cardinality", type=int, default=None, help="count filters of this size")
    p.add_argument("--by-cardinality", action="store_true", help="print the whole size profile")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--cap", type=int, default=50_000)
    _finish_subcommand(p, _cmd_count)

    p = sub.add_parser("enumerate", help="list the filters of a finite order")
    p.add_argument("--poset", required=True, help=poset_help)
    p.add_argument("--cardinality", type=int, default=None)
    p.add_argument("--cap", type=int, default=1_000_000, help="largest allowed filter count")
    p.add_argument("--hasse-cap", type=int, default=50_000)
    p.add_argument("--max-degree", type=int, default=None)
    _finish_subcommand(p, _cmd_enumerate)

    p = sub.add_parser("bijection", help="run one of the combinatorial bijections")
    bsub = p.add_subparsers(dest="bijection", required=True)

    b = bsub.add_parser("young", help="monomial <-> Young diagram")
    b.add_argument("monomial", nargs="?")
    b.add_argument("--inverse", metavar="PARTS", help="partition such as 3,1,1")
    _finish_subcommand(b, _cmd_bijection_young)

    b = bsub.add_parser("partition", help="three-variable filter <-> distinct parts")
    b.add_argument("--poset", help="A[n=3,d=<degree>]")
    b.add_argument("--filter", help="JSON record, JSON file, '-', or comma separated monomials")
    b.add_argument("--inverse", metavar="PARTS", help="partition such as 6,5,3,1")
    _finish_subcommand(b, _cmd_bijection_partition)

    b = bsub.add_parser("walk", help="two-variable staircase filter <-> lattice walk")
    b.add_argument("--poset", help="D[n=2,d=<degree>] (forward direction)")
    b.add_argument("--filter", help="JSON record, JSON file, '-', or comma separated monomials")
    b.add_argument("--inverse", metavar="STEPS", help="walk string such as DDRDRR")
    b.add_argument("--region", type=int, help="walk region (with --inverse)")
    _finish_subcommand(b, _cmd_bijection_walk)

    b = bsub.add_parser("squarefree", help="distinct parts <-> squarefree monomial")
    b.add_argument("--degree", type=int, required=True)
    b.add_argument("--parts", help="partition such as 6,5,3,1")
    b.add_argument("--inverse", metavar="MONOMIAL")
    _finish_subcommand(b, _cmd_bijection_squarefree)

    p = sub.add_parser("termorder", help="test term orders against the exchange orders")
    tsub = p.add_subparsers(dest="action", required=True)

    t = tsub.add_parser("check", help="does a term order refine the strongly-stable order?")
    t.add_argument("--order", choices=("lex", "deglex", "degrevlex", "weighted"), required=True)
    t.add_argument("--weights", help="comma separated positive integers")
    t.add_argument("--degree-first", action="store_true")
    t.add_argument("--n", type=int, required=True, help="number of variables")
    t.add_argument("--max-degree", type=int, default=4)
    t.add_argument(
        "--cap", type=int, default=REFINES_PAIR_CAP, help="largest allowed number of pairs scanned"
    )
    _finish_subcommand(t, _cmd_termorder_check)

    t = tsub.add_parser("separate", help="weight vectors ordering an incomparable pair both ways")
    t.add_argument("left")
    t.add_argument("right")
    t.add_argument("--n", type=int, default=None, help="number of variables")
    t.add_argument("--budget", type=int, default=10_000)
    _finish_subcommand(t, _cmd_termorder_separate)

    p = sub.add_parser("ideal", help="monomial ideals closed under exchange moves")
    isub = p.add_subparsers(dest="action", required=True)
    for action in ("check", "close"):
        i = isub.add_parser(action)
        i.add_argument("--order", choices=("A", "B"), required=True)
        i.add_argument("--gens", required=True, help="comma separated generators")
        _finish_subcommand(i, _cmd_ideal)

    p = sub.add_parser("gf", help="generating functions")
    gsub = p.add_subparsers(dest="series", required=True)
    g = gsub.add_parser("fountains", help="coin fountain counts")
    g.add_argument("--terms", type=int, required=True)
    _finish_subcommand(g, _cmd_gf)

    p = sub.add_parser("verify", help="re-check the package's claims")
    p.add_argument("--suite", choices=("all", *_SUITES), default="all")
    p.add_argument("--seed", type=int, default=0)
    _finish_subcommand(p, _cmd_verify)

    return parser


@functools.cache
def _parser():
    """The parser of this process, built on the first call of main and
    reused by every later one; _build_parser itself builds afresh."""
    return _build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a reader that went away surfaces here, not at exit
        return code
    except BrokenPipeError:
        # send what is left to the null device, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
