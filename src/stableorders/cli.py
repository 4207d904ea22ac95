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
import sys
from itertools import compress

from . import verify
from .monomials import Monomial, graded_lex_key
from .orders import Family, PosetId, relation
from .lattice import VERTEX_CAP, CapExceededError, NotLatticeError, build_hasse, join, meet
from .filters import (
    FILTER_CAP,
    SweepBudgetError,
    _filter_masks,
    borel_closure,
    count_filters,
    filter_counts_by_size,
    is_borel_ideal,
    is_stable_ideal,
    minimal_generators,
    stable_closure,
)
from .bijections import (
    LatticeWalk,
    distinct_partition_to_filter,
    distinct_partition_to_squarefree,
    filter_to_distinct_partition,
    filter_to_walk,
    fountain_gf_coefficients,
    monomial_to_young,
    squarefree_to_distinct_partition,
    walk_to_filter,
    walk_weight,
    young_to_monomial,
)
from .termorders import REFINES_PAIR_CAP, TermOrder, refines_borel, separating_witnesses

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
            f"the {what} bijection needs --poset {family.value}[n={nvars},d=<degree>]"
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
        _emit_filter(args, walk_to_filter(LatticeWalk(args.region, tuple(args.inverse))))
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
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = [verify.run_suite(name, seed=args.seed) for name in names]
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
    p.add_argument("--cap", type=int, default=VERTEX_CAP, help="largest allowed vertex count")
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
    p.add_argument("--cap", type=int, default=VERTEX_CAP)
    _finish_subcommand(p, _cmd_count)

    p = sub.add_parser("enumerate", help="list the filters of a finite order")
    p.add_argument("--poset", required=True, help=poset_help)
    p.add_argument("--cardinality", type=int, default=None)
    p.add_argument("--cap", type=int, default=FILTER_CAP, help="largest allowed filter count")
    p.add_argument("--hasse-cap", type=int, default=VERTEX_CAP)
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
    p.add_argument("--suite", choices=("all", *verify.SUITES), default="all")
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
