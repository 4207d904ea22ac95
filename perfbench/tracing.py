"""Traced run: spans around the public functions of every stableorders module.

The wrappers live here, in the benchmark; the program is not changed.  A
wrapped function is rebound in every ``stableorders.*`` module that holds it,
so ``stableorders.lattice.leq`` and ``stableorders.termorders.leq`` are traced
as well as ``stableorders.orders.leq``.  Each span records its name, start,
end, parent span and operation id in flat arrays that stay in memory until
the pass ends; the per-layer metrics are then read off those arrays.

A span's self time is its duration minus the durations of its child spans,
so the self times of one operation's spans add up to the duration of its
root span, ``cli.main``.  The layers are the modules; each span name starts
with its layer.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("cli", "monomials", "orders", "lattice", "filters", "bijections", "termorders")

# Public helpers called many times per operation from inside their own layer,
# mostly as sort keys or per-comparison arithmetic.  A span on each call
# would cost more than the work it measures; their time stays in the caller.
UNTRACED = {
    "monomials": {"graded_lex_key", "index_weight", "graded_weight"},
    "orders": {"partial_sums", "monomial_from_partial_sums", "dual_rename", "antitone_dual_sequence"},
    "filters": {"catalan", "ideal_contains"},
}

# Span names for functions whose time a metric reports; any other public
# function of layer L is traced as "L.<function name>".
NAMES = {
    ("monomials", "borel_moves_up"): "monomials.moves",
    ("monomials", "stable_moves_up"): "monomials.moves",
    ("monomials", "monomials_of_degree"): "monomials.ground",
    ("monomials", "monomials_up_to_degree"): "monomials.ground",
    ("orders", "leq"): "orders.leq",
    ("lattice", "meet"): "lattice.bound",
    ("lattice", "join"): "lattice.bound",
    ("lattice", "meet_stable"): "lattice.bound",
    ("lattice", "join_stable"): "lattice.bound",
    ("filters", "count_filters"): "filters.count",
    ("filters", "enumerate_filters"): "filters.enumerate",
    ("bijections", "fountain_gf_coefficients"): "bijections.gf",
    ("termorders", "refines_borel"): "termorders.refines",
    ("termorders", "separating_witnesses"): "termorders.separate",
}

# (metric, unit): the per-layer metrics of one pass.
METRICS = [
    ("cli.self_s", "s"), ("cli.argparse_s", "s"), ("cli.stdout_bytes", "bytes"),
    ("monomials.constructed", "count"), ("monomials.parse_s", "s"),
    ("monomials.moves_calls", "count"), ("monomials.moves_s", "s"), ("monomials.ground_s", "s"),
    ("orders.leq_calls", "count"), ("orders.leq_s", "s"),
    ("orders.stable_tables", "count"), ("orders.stable_table_vertices", "count"),
    ("lattice.build_s", "s"), ("lattice.vertices", "count"), ("lattice.covers", "count"),
    ("lattice.masks_s", "s"), ("lattice.covers_per_leq", "ratio"),
    ("lattice.bound_calls", "count"), ("lattice.bound_s", "s"),
    ("filters.count_s", "s"), ("filters.memo_entries", "count"),
    ("filters.enumerate_s", "s"), ("filters.emitted", "count"),
    ("bijections.calls", "count"), ("bijections.s", "s"), ("bijections.gf_s", "s"),
    ("termorders.refines_s", "s"), ("termorders.pairs_scanned", "count"),
    ("termorders.separate_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS[1:]] + [
    (f"{layer}.failed", "count") for layer in LAYERS
]

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE / 2**20


class Tracer:
    """Spans and counters of one pass."""

    def __init__(self):
        self.names, self.name_ids = [], {}
        self.s_name, self.s_parent, self.s_op = array("i"), array("i"), array("i")
        self.s_outer = array("b")
        self.s_start, self.s_end = array("d"), array("d")
        self.stack, self.active = [], []
        self.op = -1
        self.failed = Counter()
        self.constructed = 0
        self.builds = []  # (op, glued, vertices, covers)
        self.memo = {}  # (op, id of diagram) -> largest memo seen
        self.rss = defaultdict(float)  # op -> largest RSS seen after a count
        self.emitted = 0
        self.tables = {}  # id -> vertex count of each stable table handed out
        self.table_cache = None
        self.tables_dropped = 0  # tables cached by earlier imports of the pass

    def begin_op(self, i):
        self.op = i

    def name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self.name_ids[name]

    # -- wrappers ----------------------------------------------------------

    def span(self, fn, name, after=None):
        """Wrap fn in a span; after(args, result) runs once it returns."""
        nid = self.name_id(name)
        layer = name.split(".", 1)[0]
        s_name, s_parent, s_op, s_outer = self.s_name, self.s_parent, self.s_op, self.s_outer
        s_start, s_end, stack, active = self.s_start, self.s_end, self.stack, self.active
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_op.append(self.op)
            s_outer.append(active[nid] == 0)
            s_end.append(0.0)
            active[nid] += 1
            stack.append(idx)
            s_start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._escaped(exc, layer, s_parent[idx])
                raise
            finally:
                s_end[idx] = perf()
                stack.pop()
                active[nid] -= 1
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _escaped(self, exc, layer, parent):
        """Count an exception leaving its layer; ValueError is the program's
        refusal of bad input, and StopIteration the end of a generator."""
        if isinstance(exc, (ValueError, StopIteration)):
            return
        if parent < 0 or not self.names[self.s_name[parent]].startswith(layer + "."):
            self.failed[layer] += 1

    def generator(self, fn, name, on_item=None, on_done=None):
        """Wrap a generator function: each resumption is a span."""
        advance = self.span(next, name)

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def traced():
                while True:
                    try:
                        item = advance(inner)
                    except StopIteration:
                        if on_done is not None:
                            on_done(args)
                        return
                    if on_item is not None:
                        on_item()
                    yield item

            return traced()

        return functools.update_wrapper(wrapper, fn)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the freshly imported stableorders modules (again after each
        fresh import within the pass)."""
        mods = {name: sys.modules.get(f"stableorders.{name}") for name in LAYERS}
        replaced = {}
        for layer, mod in mods.items():
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or attr in UNTRACED.get(layer, ()) or isinstance(fn, type)
                        or not callable(fn) or getattr(fn, "__module__", None) != mod.__name__):
                    continue
                replaced[fn] = self._wrap(layer, attr, fn)
        cli, monomials, orders, lattice = mods["cli"], mods["monomials"], mods["orders"], mods["lattice"]
        if cli is not None and hasattr(cli, "_build_parser"):
            replaced[cli._build_parser] = self.span(cli._build_parser, "cli.argparse", self._after_parser)
        if orders is not None and hasattr(orders, "_stable_context"):
            if self.table_cache is not None:
                self.tables_dropped += self.table_cache.cache_info().currsize
            self.table_cache = orders._stable_context
            replaced[orders._stable_context] = self.span(
                orders._stable_context, "orders.stable_context", self._after_table)
        for mod in sys.modules.copy().values():
            if getattr(mod, "__name__", "").startswith("stableorders"):
                for attr, value in list(vars(mod).items()):
                    if not isinstance(value, type) and callable(value) and value in replaced:
                        setattr(mod, attr, replaced[value])
        if monomials is not None:
            self._patch_monomial(monomials.Monomial)
        if orders is not None:
            cls = orders.PosetId
            cls.parse = classmethod(self.span(cls.parse.__func__, "orders.poset_parse"))
        if lattice is not None:
            self._patch_masks(lattice.HasseDiagram)

    def _wrap(self, layer, attr, fn):
        name = NAMES.get((layer, attr), f"{layer}.{attr}")
        if attr == "build_hasse":
            return self._wrap_build(fn)
        if attr == "count_filters":
            return self.span(fn, name, self._after_count)
        if inspect.isgeneratorfunction(fn):
            if attr == "enumerate_filters":
                return self.generator(fn, name, self._count_item, self._after_enumerate)
            return self.generator(fn, name)
        if layer == "bijections" and name == f"{layer}.{attr}":
            name = "bijections.call"
        return self.span(fn, name)

    def _wrap_build(self, fn):
        fixed = self.span(fn, "lattice.build", self._after_build)
        glued = self.span(fn, "lattice.build_glued", self._after_build)

        def wrapper(poset, *args, **kwargs):
            return (glued if poset.degree is None else fixed)(poset, *args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _patch_monomial(self, cls):
        init = cls.__init__

        def counted_init(obj, *args, **kwargs):
            self.constructed += 1
            init(obj, *args, **kwargs)

        cls.__init__ = counted_init
        cls.parse = classmethod(self.span(cls.parse.__func__, "monomials.parse"))

    def _patch_masks(self, cls):
        """Span the mask computations, not the cached lookups that follow."""
        for attr, cache in (("up_masks", "_up"), ("down_masks", "_down")):
            plain = getattr(cls, attr)
            traced = self.span(plain, "lattice.masks")

            def method(h, plain=plain, traced=traced, cache=cache):
                if getattr(h, cache, None) is not None:
                    return plain(h)
                return traced(h)

            setattr(cls, attr, method)

    # -- counters read from results -----------------------------------------

    def _after_parser(self, args, parser):
        parser.parse_args = self.span(parser.parse_args, "cli.argparse")

    def _after_build(self, args, h):
        self.builds.append((self.op, args[0].degree is None, len(h.vertices), len(h.covers)))

    def _after_count(self, args, result):
        self._record_memo(args[0])
        self.rss[self.op] = max(self.rss[self.op], _rss_mb())

    def _after_enumerate(self, args):
        self._record_memo(args[0])

    def _record_memo(self, h):
        key = (self.op, id(h))
        self.memo[key] = max(self.memo.get(key, 0), len(getattr(h, "_filter_polys", ())))

    def _count_item(self):
        self.emitted += 1

    def _after_table(self, args, table):
        self.tables[id(table)] = len(table.vertices)

    # -- metrics -------------------------------------------------------------

    def spans(self):
        """Per span: (name, duration, self time, is outermost of its name)."""
        n = len(self.s_name)
        dur = [self.s_end[i] - self.s_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.s_parent[i]
            if p >= 0:
                child[p] += dur[i]
        return [(self.names[self.s_name[i]], dur[i], dur[i] - child[i], self.s_outer[i])
                for i in range(n)]

    def metrics(self, stdout_bytes, scale):
        """Per-layer values of the pass, times multiplied by scale; and the
        unscaled self time of each layer."""
        spans = self.spans()
        calls, inclusive, self_by_layer = Counter(), Counter(), Counter()
        main_self = 0.0
        for name, dur, own, outer in spans:
            self_by_layer[name.split(".", 1)[0]] += own
            if name == "cli.main":
                main_self += own
            if outer:
                calls[name] += 1
                inclusive[name] += dur
        names = self.names
        glued_builds = {i for i, name_id in enumerate(self.s_name)
                        if names[name_id] == "lattice.build_glued"}
        refines = {i for i, name_id in enumerate(self.s_name) if names[name_id] == "termorders.refines"}
        leq_id = self.name_ids.get("orders.leq", -1)
        leq_in_glued = leq_in_refines = 0
        for i, name_id in enumerate(self.s_name):
            if name_id == leq_id:
                parent = self.s_parent[i]
                leq_in_glued += parent in glued_builds
                leq_in_refines += parent in refines
        glued_covers = sum(c for _, glued, _, c in self.builds if glued)
        info = self.table_cache.cache_info() if self.table_cache is not None else None
        values = {
            "cli.self_s": main_self,
            "cli.argparse_s": inclusive["cli.argparse"],
            "cli.stdout_bytes": stdout_bytes,
            "monomials.constructed": self.constructed,
            "monomials.parse_s": inclusive["monomials.parse"],
            "monomials.moves_calls": calls["monomials.moves"],
            "monomials.moves_s": inclusive["monomials.moves"],
            "monomials.ground_s": inclusive["monomials.ground"],
            "orders.leq_calls": calls["orders.leq"],
            "orders.leq_s": inclusive["orders.leq"],
            "orders.stable_tables": self.tables_dropped + (info.currsize if info else 0),
            "orders.stable_table_vertices": sum(self.tables.values()),
            "lattice.build_s": inclusive["lattice.build"] + inclusive["lattice.build_glued"],
            "lattice.vertices": sum(v for _, _, v, _ in self.builds),
            "lattice.covers": sum(c for _, _, _, c in self.builds),
            "lattice.masks_s": inclusive["lattice.masks"],
            "lattice.covers_per_leq": glued_covers / leq_in_glued if leq_in_glued else 0.0,
            "lattice.bound_calls": calls["lattice.bound"],
            "lattice.bound_s": inclusive["lattice.bound"],
            "filters.count_s": inclusive["filters.count"],
            "filters.memo_entries": sum(self.memo.values()),
            "filters.enumerate_s": inclusive["filters.enumerate"],
            "filters.emitted": self.emitted,
            "bijections.calls": calls["bijections.call"],
            "bijections.s": inclusive["bijections.call"],
            "bijections.gf_s": inclusive["bijections.gf"],
            "termorders.refines_s": inclusive["termorders.refines"],
            "termorders.pairs_scanned": leq_in_refines,
            "termorders.separate_s": inclusive["termorders.separate"],
        }
        for layer in LAYERS[1:]:
            values[f"{layer}.self_s"] = self_by_layer[layer]
        for layer in LAYERS:
            values[f"{layer}.failed"] = self.failed[layer]
        for name, unit in METRICS:
            if unit == "s":
                values[name] *= scale
        return values, self_by_layer

    def op_coverage(self, latencies):
        """Per operation, the share of its traced time that no span covers:
        1 - (sum of its spans' self times) / (its measured time)."""
        covered = defaultdict(float)
        for i, name_id in enumerate(self.s_name):
            if self.s_parent[i] < 0:
                covered[self.s_op[i]] += self.s_end[i] - self.s_start[i]
        return [1 - covered[i] / t for i, t in enumerate(latencies)]


def curve(ops, latencies, tracer):
    """One record per poset id: size, memo and RSS from a traced pass, times
    from the untraced latencies of its operations."""
    rows = {}
    for i, op in enumerate(ops):
        if op.poset:
            row = rows.setdefault(op.poset, {"poset": op.poset})
            row[op.kind.replace("-", "_") + "_ms"] = round(latencies[i] * 1000, 3)
    for op_i, _, vertices, covers in tracer.builds:
        if ops[op_i].poset:
            rows[ops[op_i].poset].update(vertices=vertices, covers=covers)
    for (op_i, _), entries in tracer.memo.items():
        row = rows.get(ops[op_i].poset)
        if row is not None:
            row["memo_entries"] = max(row.get("memo_entries", 0), entries)
    for op_i, rss in tracer.rss.items():
        row = rows.get(ops[op_i].poset)
        if row is not None:
            row["rss_mb"] = round(max(row.get("rss_mb", 0), rss), 1)
    return sorted(rows.values(), key=lambda r: (r.get("vertices", 0), r["poset"]))
