"""The verify suites: each re-derives one group of the package's claims at
runtime, mostly by checking a fast path against an independent oracle (move
reachability, pivot counts, subset scans, brute-force meets and joins).

run_suite(name, seed) runs the suite SUITES[name] and returns its report.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations

from .monomials import Monomial, graded_lex_key, monomials_up_to_degree
from .orders import (
    Family,
    PosetId,
    ground_monomials,
    leq,
    monomial_from_partial_sums,
    partial_sums,
    reachability_oracle,
)
from .lattice import (
    _meet_join_tables,
    build_hasse,
    check_distributive,
    find_n5,
    gaussian,
    height_width,
    join,
    meet,
    rank_sizes,
)
from .filters import (
    borel_closure,
    boundary,
    catalan,
    count_filters,
    enumerate_filters,
    filter_count_three_vars,
    filter_counts_by_size,
    interior,
    is_filter,
    is_filter_by_layers,
    pivot_filter_counts,
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
    iter_filter_level_stacks,
    limit_filter_count,
    monomial_to_young,
    planar_partition_filter_count,
    planar_partition_from_levels,
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
    TermOrder,
    ordinal_sum_leq,
    random_weight_vector,
    refines_borel,
    separating_witnesses,
)


@dataclass
class VerifyReport:
    """Pass/fail counts of one suite run; the suite fills it through check."""

    suite: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    runtime_ms: float = 0.0

    def check(self, name, condition):
        if condition:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(name)


def run_suite(name, seed=0):
    """Run one verification suite and report pass/fail counts."""
    report = VerifyReport(name)
    start = time.perf_counter()
    SUITES[name](report, random.Random(seed))
    report.runtime_ms = (time.perf_counter() - start) * 1000.0
    return report


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
            coeffs = gaussian(n - 1, d)
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
        poset = PosetId(Family.STABLE, n, d)
        h = build_hasse(poset)
        meets, joins = _meet_join_tables(h)
        ok_meet = ok_join = True
        for i, m in enumerate(h.vertices):
            for j, mp in enumerate(h.vertices):
                if h.vertices[meets[i][j]] != meet(poset, m, mp):
                    ok_meet = False
                if h.vertices[joins[i][j]] != join(poset, m, mp):
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
    walk = LatticeWalk(8, tuple("DDDDRRRDRRDRDDRR"))
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


SUITES = {
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
