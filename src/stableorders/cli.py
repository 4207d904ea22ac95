"""Command line interface: compare monomials, build Hasse diagrams, compute
meets and joins, count and enumerate filters, run the combinatorial
bijections, test term orders, and verify the package's claims.

Exit codes: 0 on success (or a verified property), 1 when a check or
verification fails, 2 on bad usage or malformed input.
"""

import argparse
import functools
import json
import os
import sys
from itertools import compress

from . import verify
from .monomials import Monomial, graded_lex_key
from .orders import Family, PosetId, relation
from .lattice import (
    SLOT_BUDGET,
    VERTEX_CAP,
    CapExceededError,
    NotLatticeError,
    build_hasse,
    diagram_size,
    join,
    meet,
)
from .filters import (
    FILTER_CAP,
    _filter_masks,
    closed_form_counts,
    closure,
    count_filters,
    filter_counts_by_size,
    is_closed,
    minimal_generators,
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


def _monomial_set(entries):
    """The monomials named by entries, monomial strings or exponent arrays,
    refused as soon as their tuples, each as long as its last variable,
    hold more than SLOT_BUDGET slots together."""
    out, slots = set(), 0
    for count, entry in enumerate(entries, 1):
        if isinstance(entry, str):
            m = Monomial.parse(entry)
        elif isinstance(entry, list):
            m = Monomial(entry)
        else:
            raise ValueError("filter entries must be exponent arrays or monomial strings")
        slots += len(m.exps)
        if slots > SLOT_BUDGET:
            raise ValueError(f"the first {count} monomials hold {slots} exponent slots, "
                             f"over the budget of {SLOT_BUDGET} slots")
        out.add(m)
    return frozenset(out)


def _parse_elements(text):
    """Comma separated monomials, e.g. 'x1^2,x1*x2' (empty string allowed)."""
    return _monomial_set(text.split(",")) if text.strip() else frozenset()


def _json_elements(load, source):
    """The elements of the filter record load(source) decodes, {"elements":
    [...]} or a bare list, refusing JSON nested deeper than the decoder's
    recursion allows."""
    try:
        data = load(source)
    except RecursionError:
        raise ValueError("the filter JSON is nested too deeply") from None
    if isinstance(data, dict):
        if "elements" not in data:
            raise ValueError('a filter record needs an "elements" list')
        data = data["elements"]
    if not isinstance(data, list):
        raise ValueError("filter elements must be a JSON list")
    return _monomial_set(data)


def _filter_payload(text):
    """Elements of a filter from inline JSON, '-' (standard input), a JSON
    file path, or a comma separated monomial list."""
    if text is None:
        raise ValueError("give the filter with --filter")
    if text == "-":
        return _json_elements(json.load, sys.stdin)
    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        return _json_elements(json.loads, stripped)
    try:
        with open(text) as fh:
            return _json_elements(json.load, fh)
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
    JSON under --format json, otherwise the text lines, one per line.

    An exact count may pass the interpreter's limit on the digits of an int
    converted to str (4300 by default, where there is one): it is lifted
    here, around the output, and never for parsing argv."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


# hasse and enumerate, whose output can be large, write the layout of
# json.dumps(indent=2) record by record; there each item of a list inside
# a record starts a line here
_JSON_INDENT = "\n" + " " * 8


def _write_json_items(records):
    """Write a list of rendered records, the value of a key of the
    top-level object, as json.dumps(indent=2) lays it out."""
    write, opening = sys.stdout.write, "[\n    "
    for record in records:
        write(opening)
        write(record)
        opening = ",\n    "
    write("\n  ]" if opening == ",\n    " else "[]")


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
    m, mp = Monomial.parse(args.left), Monomial.parse(args.right)
    rel = relation(poset, m, mp)
    payload = {"poset": str(poset), "left": str(m), "right": str(mp), "relation": rel}
    _emit(args, payload, f"{m} {_RELATION_SYMBOL[rel]} {mp}")
    return 0


def _capped(flag, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a cap refusal naming the flag that raises the cap."""
    try:
        return fn(*args, **kwargs)
    except CapExceededError as exc:
        raise CapExceededError(f"{exc}; raise it with {flag}") from None


def _finite_poset(args):
    """--poset, refused as diagram_size refuses a degree-unbounded poset
    with no max degree, but naming the flag that gives one."""
    poset = PosetId.parse(args.poset)
    if poset.nvars is not None and poset.degree is None and args.max_degree is None:
        raise ValueError(f"{poset} is degree-unbounded; pass --max-degree to truncate")
    return poset


def _write_hasse_json(h, names):
    """json.dumps(payload, indent=2) and a newline, written vertex by vertex
    and cover by cover, for payload {"poset", "vertices": [{"monomial",
    "exponents"}], "covers"} with each vertex padded to the poset's n
    exponents.  A monomial's name holds only x, digits, ^ and *, which
    JSON never escapes, so it is quoted as it is."""
    n, sep, write = h.poset.nvars, "," + _JSON_INDENT, sys.stdout.write
    write(f'{{\n  "poset": {json.dumps(str(h.poset))},\n  "vertices": ')
    _write_json_items(
        f'{{\n      "monomial": "{name}",\n      "exponents": [{_JSON_INDENT}'
        f'{sep.join(map(str, m.exponent_vector(n)))}\n      ]\n    }}'
        for name, m in zip(names, h.vertices))
    write(',\n  "covers": ')
    _write_json_items(f"[\n      {lo},\n      {hi}\n    ]" for lo, hi in h.covers)
    write("\n}\n")


def _cmd_hasse(args):
    poset = _finite_poset(args)
    h = _capped("--cap", build_hasse, poset, cap=args.cap, max_degree=args.max_degree)
    names = h.names()
    if args.format == "dot":
        # one node per vertex and one edge per cover, upper -> lower
        sys.stdout.write("digraph hasse {\n")
        sys.stdout.writelines(f'  "{name}";\n' for name in names)
        sys.stdout.writelines(f'  "{names[hi]}" -> "{names[lo]}";\n' for lo, hi in h.covers)
        sys.stdout.write("}\n\n")
    elif args.format == "json":
        _write_hasse_json(h, names)
    else:
        header = (f"poset: {poset}", f"vertices: {len(h)}", f"covers: {len(h.covers)}")
        covers = (f"{names[hi]} covers {names[lo]}" for lo, hi in h.covers)
        _emit(args, None, *header, *covers)
    return 0


def _cmd_bound(args):
    poset = PosetId.parse(args.poset)
    m, mp = Monomial.parse(args.left), Monomial.parse(args.right)
    op = join if args.operation == "join" else meet
    try:
        result = op(poset, m, mp)
    except NotLatticeError as exc:
        print(f"no {args.operation}: {exc}", file=sys.stderr)
        return 1
    payload = {"poset": str(poset), "left": str(m), "right": str(mp),
               args.operation: str(result), "exponents": list(result.exps)}
    _emit(args, payload, result)
    return 0


def _cmd_count(args):
    poset = _finite_poset(args)
    # the diagram's refusals come first, whether or not it is built
    size = _capped("--cap", diagram_size, poset, cap=args.cap, max_degree=args.max_degree)
    k = args.cardinality  # the profile is cut at top, the largest size asked in 0..size
    top = size if args.by_cardinality else k if k is not None and 0 <= k <= size else None
    counts = 0 if k is not None and top is None else closed_form_counts(poset, args.max_degree, top)
    if counts is None:
        h = build_hasse(poset, args.cap, args.max_degree)
        counts = count_filters(h) if top is None else filter_counts_by_size(h, top)
    if args.by_cardinality:
        lines = (f"{v} {cnt}" for v, cnt in enumerate(counts))
        _emit(args, {"poset": str(poset), "counts": list(counts)}, *lines)
        return 0
    total = counts if top is None else counts[k]
    payload = {"poset": str(poset), "count": total}
    if k is not None:
        payload["cardinality"] = k
    _emit(args, payload, total)
    return 0


# A filter's bitmask spelt from its highest bit down, one byte 0 or 1 per
# vertex: the selectors that pick its members out of a reversed table.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _cmd_enumerate(args):
    poset = _finite_poset(args)
    h = _capped("--hasse-cap", build_hasse, poset, cap=args.hasse_cap, max_degree=args.max_degree)
    low, masks = _capped("--cap", _filter_masks, h, args.cardinality, cap=args.cap)
    # A filter lists its vertices by descending graded-lex rank, the order
    # of _sorted_elements.  build_hasse lists the vertices in graded-lex
    # order, so a mask's bits read from the highest down give that order.
    # Every mask is spelt at one width, vertices N-1 down to low, and picks
    # its members out of a table of those vertices alone.
    spec = f"0{len(h) - low}b"

    def members(table, mask):
        return compress(table, format(mask, spec).encode().translate(_BIT_BYTES))

    if args.format == "json":
        # the layout of json.dumps(payload, indent=2), record by record: an
        # exponent list's items two deeper than its brackets
        item, sep = _JSON_INDENT + "  ", "," + _JSON_INDENT
        table = [f"[{item}{(',' + item).join(map(str, m.exps))}{_JSON_INDENT}]" if m.exps else "[]"
                 for m in reversed(h.vertices[low:])]
        elements = (f"[{_JSON_INDENT}{sep.join(members(table, mask))}\n      ]" if mask else "[]"
                    for mask in masks)
        sys.stdout.write(f'{{\n  "poset": {json.dumps(str(poset))},\n  "filters": ')
        _write_json_items(f'{{\n      "elements": {e}\n    }}' for e in elements)
        sys.stdout.write("\n}\n")
    else:
        table = h.names()[low:][::-1]
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


def _poset_of(args, family, nvars, what):
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
    return poset


def _cmd_bijection_partition(args):
    poset = _poset_of(args, Family.BOREL, 3, "partition")
    if args.inverse is not None:
        members = distinct_partition_to_filter(_parse_parts(args.inverse), poset.degree)
        _emit_filter(args, members)
    else:
        parts = filter_to_distinct_partition(_filter_payload(args.filter), poset.degree)
        _emit_partition(args, parts)
    return 0


def _cmd_bijection_walk(args):
    if args.inverse is not None:
        if args.region is None:
            raise ValueError("--inverse needs --region")
        _emit_filter(args, walk_to_filter(LatticeWalk(args.region, tuple(args.inverse))))
    else:
        poset = _poset_of(args, Family.DIVISIBILITY, 2, "walk")
        walk = filter_to_walk(_filter_payload(args.filter), poset.degree)
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
    m, mp = Monomial.parse(args.left), Monomial.parse(args.right)
    above, below = separating_witnesses(m, mp, nvars=args.n, budget=args.budget)
    lines = (f"above: {_format_parts(above)}", f"below: {_format_parts(below)}")
    _emit(args, {"above": list(above), "below": list(below)}, *lines)
    return 0


def _cmd_ideal(args):
    gens = _parse_elements(args.gens)
    if not gens:
        raise ValueError("--gens must name at least one monomial")
    family = Family(args.order)
    if args.action == "close":
        _emit_filter(args, closure(gens, family))
        return 0
    mingens = minimal_generators(gens)
    ok = is_closed(gens, family)
    payload = {"closed": ok, "minimal_generators": [str(m) for m in _sorted_elements(mingens)]}
    _emit(args, payload, f"minimal generators: {_format_filter(mingens)}",
          f"closed under exchange moves: {'yes' if ok else 'no'}")
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
    payload = [{"suite": r.suite, "passed": r.passed, "failed": r.failed, "failures": r.failures}
               for r in reports]
    _emit(args, payload, *lines)
    for r in reports:
        print(f"[{r.suite} took {r.runtime_ms:.0f} ms]", file=sys.stderr)
    return 1 if any(r.failed for r in reports) else 0


# ---------------------------------------------------------------------------
# parser


def _subparsers(parser, dest):
    """parser's required subcommands, whose parsers format as parser does."""
    return parser.add_subparsers(dest=dest, required=True, parser_class=functools.partial(
        argparse.ArgumentParser, formatter_class=parser.formatter_class))


def _finish_subcommand(parser, handler, *, dot=False, **defaults):
    """Give a subcommand its --format option, its handler and other defaults."""
    choices = ("text", "json", "dot") if dot else ("text", "json")
    parser.add_argument("--format", choices=choices, default="text")
    parser.set_defaults(handler=handler, **defaults)


_POSET_HELP = "order id, e.g. A[n=3,d=4], B[n=3], D, C[n=3,d=2], A[*,*]"


def _add_hasse(p):
    p.add_argument("--poset", required=True, help=_POSET_HELP)
    p.add_argument("--max-degree", type=int, default=None, help="truncate an unbounded order")
    p.add_argument("--cap", type=int, default=VERTEX_CAP, help="largest allowed vertex count")
    _finish_subcommand(p, _cmd_hasse, dot=True)


def _add_operands(handler, p, **defaults):
    """compare, meet and join: a poset and two monomials."""
    p.add_argument("--poset", required=True, help=_POSET_HELP)
    p.add_argument("left")
    p.add_argument("right")
    _finish_subcommand(p, handler, **defaults)


def _add_count(p):
    p.add_argument("--poset", required=True, help=_POSET_HELP)
    p.add_argument("--cardinality", type=int, default=None, help="count filters of this size")
    p.add_argument("--by-cardinality", action="store_true", help="print the whole size profile")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--cap", type=int, default=VERTEX_CAP)
    _finish_subcommand(p, _cmd_count)


def _add_enumerate(p):
    p.add_argument("--poset", required=True, help=_POSET_HELP)
    p.add_argument("--cardinality", type=int, default=None)
    p.add_argument("--cap", type=int, default=FILTER_CAP, help="largest allowed filter count")
    p.add_argument("--hasse-cap", type=int, default=VERTEX_CAP)
    p.add_argument("--max-degree", type=int, default=None)
    _finish_subcommand(p, _cmd_enumerate)


def _add_bijection(p):
    bsub = _subparsers(p, "bijection")

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


def _add_termorder(p):
    tsub = _subparsers(p, "action")

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


def _add_ideal(p):
    isub = _subparsers(p, "action")
    for action in ("check", "close"):
        i = isub.add_parser(action)
        i.add_argument("--order", choices=("A", "B"), required=True)
        i.add_argument("--gens", required=True, help="comma separated generators")
        _finish_subcommand(i, _cmd_ideal)


def _add_gf(p):
    gsub = _subparsers(p, "series")
    g = gsub.add_parser("fountains", help="coin fountain counts")
    g.add_argument("--terms", type=int, required=True)
    _finish_subcommand(g, _cmd_gf)


def _add_verify(p):
    p.add_argument("--suite", choices=("all", *verify.SUITES), default="all")
    p.add_argument("--seed", type=int, default=0)
    _finish_subcommand(p, _cmd_verify)


# The one list of subcommands, in the order --help lists them: each name's
# help line and the function that adds its arguments (and any nested
# subcommands) to its parser.
_SUBCOMMANDS = {
    "compare": (
        "compare two monomials in an order", functools.partial(_add_operands, _cmd_compare)
    ),
    "hasse": ("build the Hasse diagram of a finite order", _add_hasse),
    "meet": (
        "meet of two monomials", functools.partial(_add_operands, _cmd_bound, operation="meet")
    ),
    "join": (
        "join of two monomials", functools.partial(_add_operands, _cmd_bound, operation="join")
    ),
    "count": ("count the filters of a finite order", _add_count),
    "enumerate": ("list the filters of a finite order", _add_enumerate),
    "bijection": ("run one of the combinatorial bijections", _add_bijection),
    "termorder": ("test term orders against the exchange orders", _add_termorder),
    "ideal": ("monomial ideals closed under exchange moves", _add_ideal),
    "gf": ("generating functions", _add_gf),
    "verify": ("re-check the package's claims", _add_verify),
}


def _build_parser(command=None):
    """The argparse parser of the subcommand named command, for the words
    after that name, or of all of them (command None), for whole command
    lines: both parse a subcommand's words alike, but for words left over,
    which only the full parser reports.  Their formatters, nested ones too,
    wrap at the terminal width read once here, not once per formatter."""
    import shutil  # as argparse does, once a parser is built
    width = shutil.get_terminal_size().columns - 2  # as each HelpFormatter reads it
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"stableorders {command}", formatter_class=formatter)
        parser.set_defaults(command=command)
        _SUBCOMMANDS[command][1](parser)
        return parser
    parser = argparse.ArgumentParser(
        prog="stableorders", formatter_class=formatter,
        description="Partial orders on monomials: lattices, filters, bijections.",
    )
    sub = _subparsers(parser, "command")
    for name, (help_line, add_arguments) in _SUBCOMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


@functools.cache
def _parser(command=None):
    """The parser of this process for one subcommand name (None: the full
    parser), built on the first call of main that needs it, at the terminal
    width of that moment, and reused by every later one; _build_parser
    itself builds afresh."""
    return _build_parser(command)


def _parse_argv(argv):
    """argv parsed as the full parser parses it, by its subcommand's parser
    alone unless words are left over; those, and any other first word
    (--help, an unknown name or none), go to the full parser."""
    if argv and argv[0] in _SUBCOMMANDS:
        args, extra = _parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            return args
    return _parser(None).parse_args(argv)


def main(argv=None):
    """Run one command line (sys.argv[1:] when argv is None) and return its
    exit code.  A call builds one parser, its subcommand's, unless
    _parse_argv needs the full one."""
    args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
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
