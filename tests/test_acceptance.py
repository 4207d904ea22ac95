"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Every claim is checked against an independent oracle computed in this file
(exhaustive subset scans, BFS reachability, brute-force extrema) rather than
against the library's own shortcuts.
"""
from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

from stableorders.bijections import (
    distinct_partition_to_filter,
    filter_to_distinct_partition,
    filter_to_walk,
    fountain_gf_coefficients,
    monomial_to_young,
    walk_to_filter,
    walk_weight,
    young_to_monomial,
)
from stableorders.filters import (
    catalan,
    closed_form_counts,
    count_filters,
    is_filter,
    stable_filter_counts,
)
from stableorders.lattice import build_hasse, meet
from stableorders.monomials import monomials_of_degree, monomials_up_to_degree
from stableorders.orders import (
    PosetId,
    ground_monomials,
    leq,
    monomial_from_partial_sums,
    relation,
)
from stableorders.termorders import (
    GREATER,
    LESS,
    TermOrder,
    refines_borel,
    separating_witnesses,
)
from stableorders.verify import (
    check_distributive,
    count_fountains,
    diagram_leq,
    down_masks,
    enumerate_filters,
    enumerate_walks,
    filter_count_three_vars,
    find_n5,
    gaussian,
    height_width,
    is_filter_by_layers,
    iter_filter_level_stacks,
    ordinal_sum_leq,
    partial_sums,
    random_weight_vector,
    rank_sizes,
    reachability_oracle,
    weighted_walk_count,
    young_contains,
)


def is_strictly_decreasing(weights):
    return all(a > b for a, b in zip(weights, weights[1:])) and all(w > 0 for w in weights)


def hasse(text):
    return build_hasse(PosetId.parse(text))


def _is_unimodal(seq):
    i = 0
    while i + 1 < len(seq) and seq[i] <= seq[i + 1]:
        i += 1
    return all(seq[j] >= seq[j + 1] for j in range(i, len(seq) - 1))


def _distinct_part_sums(d):
    """Counter of subset sums of {1, ..., d+1}: the partition-side tally."""
    tally = Counter()
    parts = range(1, d + 2)
    for r in range(d + 2):
        for combo in combinations(parts, r):
            tally[sum(combo)] += 1
    return tally


def test_criterion_01_closed_form_filter_counts():
    for d in range(1, 11):
        assert count_filters(hasse(f"A[n=3,d={d}]")) == 2 ** (d + 1)
    for d in range(1, 21):
        assert count_filters(hasse(f"A[n=2,d={d}]")) == d + 2


def test_criterion_02_three_variable_profile_recurrence():
    for d in range(1, 9):
        tally = _distinct_part_sums(d)
        top = (d + 1) * (d + 2) // 2
        profile = [filter_count_three_vars(d, v) for v in range(top + 1)]
        assert profile == [tally[v] for v in range(top + 1)]
        assert sum(profile) == 2 ** (d + 1)
        if d <= 6:
            h = hasse(f"A[n=3,d={d}]")
            assert profile == [count_filters(h, v) for v in range(top + 1)]


def test_criterion_03_rank_sizes_are_gaussian_coefficients():
    for n in range(2, 5):
        for d in range(1, 7):
            h = hasse(f"A[n={n},d={d}]")
            rs = rank_sizes(h)
            assert tuple(rs) == gaussian(n - 1, d)
            assert sum(rs) == len(h)
            assert list(rs) == list(rs)[::-1]
            assert _is_unimodal(rs)
            if d <= 4:
                assert height_width(h) == ((n - 1) * d, max(rs))


def test_criterion_04_lattice_structure():
    for code in ["A[n=3,d=3]", "A[n=3,d=4]", "A[n=4,d=2]"]:
        h = hasse(code)
        assert check_distributive(h)
        assert find_n5(h) is None
    for n in range(2, 5):
        for d in range(1, 6):
            h = hasse(f"B[n={n},d={d}]")
            verts, up, down = h.vertices, h.up_masks(), down_masks(h)
            for i, m in enumerate(verts):
                for j in range(i, len(verts)):
                    lower = down[i] & down[j]
                    maxima = [z for z in range(len(verts))
                              if lower >> z & 1 and up[z] & lower == 1 << z]
                    assert len(maxima) == 1
                    assert meet(h.poset, m, verts[j]) == verts[maxima[0]]
    for code in ["B[n=3,d=2]", "B[n=3,d=3]", "B[n=4,d=2]"]:
        h = hasse(code)
        pentagon = find_n5(h)
        assert pentagon is not None
        bottom, a, b, c, top = pentagon
        assert diagram_leq(h, bottom, a) and diagram_leq(h, a, top)
        assert diagram_leq(h, bottom, b) and diagram_leq(h, b, c) and diagram_leq(h, c, top)
        assert b != c
        assert not diagram_leq(h, a, b) and not diagram_leq(h, b, a)
        assert not diagram_leq(h, a, c) and not diagram_leq(h, c, a)


def test_criterion_05_comparisons_match_move_reachability():
    for family in "AB":
        for n in range(2, 5):
            for d in range(1, 5):
                pid = PosetId.parse(f"{family}[n={n},d={d}]")
                ground = ground_monomials(pid)
                for m in ground:
                    assert monomial_from_partial_sums(partial_sums(m)) == m
                    for mp in ground:
                        assert leq(pid, m, mp) == reachability_oracle(pid, m, mp)


def test_criterion_06_layerwise_filter_test():
    rng = random.Random(601)
    for n, d in [(3, 4), (4, 3)]:
        pid = PosetId.parse(f"A[n={n},d={d}]")
        ground = list(monomials_of_degree(n, d))
        for members in enumerate_filters(hasse(f"A[n={n},d={d}]")):
            assert is_filter(members, pid)
            assert is_filter_by_layers(members, n, d)
        for _ in range(300):
            subset = frozenset(m for m in ground if rng.random() < 0.5)
            assert is_filter_by_layers(subset, n, d) == is_filter(subset, pid)
        for _ in range(40):
            gens = rng.sample(ground, rng.randint(1, 3))
            closure = frozenset(
                z for z in ground if any(leq(pid, g, z) for g in gens)
            )
            assert is_filter(closure, pid)
            assert is_filter_by_layers(closure, n, d)


def test_criterion_07_stable_counts_and_walks():
    for d in range(0, 7):
        total, profile = stable_filter_counts(d)
        assert total == sum(catalan(i) for i in range(d + 2))
        assert total == sum(profile)
        h = hasse(f"B[n=3,d={d}]")
        assert list(profile) == [count_filters(h, v) for v in range(len(h) + 1)]
    for region in range(0, 12):
        assert sum(1 for _ in enumerate_walks(region)) == catalan(region)
    for e in range(1, 5):
        size = (e + 1) * (e + 2) // 2
        filter_hist = Counter(
            len(members) for members in enumerate_filters(hasse(f"D[n=2,d={e}]"))
        )
        walk_hist = Counter(walk_weight(w) for w in enumerate_walks(e + 2))
        for w in range(size + 1):
            count = weighted_walk_count(e, 0, e + 2, w)
            assert count == filter_hist[w]
            assert count == walk_hist[w]


def test_criterion_08_fountain_counts():
    coefficients = fountain_gf_coefficients(12)
    for coins in range(13):
        assert count_fountains(coins) == coefficients[coins]
    for coins in range(9):
        assert count_fountains(coins) == count_filters(
            hasse(f"B[n=3,d={coins + 1}]"), coins
        )
    for coins in range(7):
        assert count_filters(hasse(f"B[n=3,d={coins + 1}]"), coins) == count_filters(
            hasse(f"B[n=3,d={coins + 3}]"), coins
        )


def test_criterion_09_bijections():
    for m in monomials_up_to_degree(4, 5):
        rows = monomial_to_young(m)
        assert len(rows) == m.degree()
        assert young_to_monomial(rows) == m
    for n in range(2, 5):
        for d in range(1, 6):
            pid = PosetId.parse(f"C[n={n},d={d}]")
            pool = ground_monomials(pid)
            for m in pool:
                for mp in pool:
                    nested = young_contains(monomial_to_young(mp), monomial_to_young(m))
                    assert nested == leq(pid, m, mp)

    for d in range(0, 7):
        seen = set()
        for members in enumerate_filters(hasse(f"A[n=3,d={d}]")):
            parts = filter_to_distinct_partition(members, d)
            assert all(parts[i] > parts[i + 1] for i in range(len(parts) - 1))
            assert all(1 <= p <= d + 1 for p in parts)
            assert sum(parts) == len(members)
            assert distinct_partition_to_filter(parts, d) == members
            seen.add(parts)
        expected = {
            tuple(sorted(combo, reverse=True))
            for r in range(d + 2)
            for combo in combinations(range(1, d + 2), r)
        }
        assert seen == expected

    for d in range(0, 7):
        filters = list(enumerate_filters(hasse(f"D[n=2,d={d}]")))
        walks = list(enumerate_walks(d + 2))
        seen = set()
        for members in filters:
            walk = filter_to_walk(members, d)
            assert walk.region == d + 2
            assert walk_weight(walk) == len(members)
            assert walk_to_filter(walk) == members
            seen.add(str(walk))
        assert seen == {str(w) for w in walks}
        for walk in walks:
            assert str(filter_to_walk(walk_to_filter(walk), d)) == str(walk)
        filter_hist = Counter(len(members) for members in filters)
        walk_hist = Counter(walk_weight(w) for w in walks)
        assert filter_hist == walk_hist

    for d in range(0, 4):
        stacks = list(iter_filter_level_stacks(d))
        assert len(stacks) == len(set(stacks))
        assert len(stacks) == count_filters(hasse(f"A[n=4,d={d}]"))
        assert len(stacks) == closed_form_counts(PosetId.parse(f"A[n=4,d={d}]"))


def test_criterion_10_term_order_refinement_and_separation():
    glued = PosetId.parse("A[n=4]")
    ground = monomials_up_to_degree(4, 6)
    for order in [TermOrder("lex"), TermOrder("deglex"), TermOrder("degrevlex")]:
        refines, (top, bottom) = refines_borel(order, 4, 6)
        assert refines
        assert leq(glued, bottom, top) and bottom != top
        assert order.compare(bottom, top) == LESS
    strict = [
        (m, mp) for m in ground for mp in ground if m != mp and leq(glued, m, mp)
    ]
    rng = random.Random(1002)
    for _ in range(50):
        weights = random_weight_vector(4, rng)
        assert is_strictly_decreasing(weights)
        order = TermOrder("weighted", weights)
        assert all(order.compare(m, mp) == LESS for m, mp in strict)

    for d in range(1, 5):
        pool = monomials_of_degree(3, d)
        pid = PosetId.parse(f"A[n=3,d={d}]")
        for i, m in enumerate(pool):
            for mp in pool[i + 1:]:
                if relation(pid, m, mp) != "incomparable":
                    continue
                above, below = separating_witnesses(m, mp, nvars=3)
                assert TermOrder("weighted", above).compare(m, mp) == GREATER
                assert TermOrder("weighted", below).compare(m, mp) == LESS

    rng = random.Random(2003)
    samples = [TermOrder("deglex"), TermOrder("degrevlex")] + [
        TermOrder("weighted", random_weight_vector(3, rng), degree_first=True)
        for _ in range(30)
    ]
    pool = monomials_up_to_degree(3, 5)
    witnesses = {}
    for m in pool:
        for mp in pool:
            if m == mp:
                continue
            if ordinal_sum_leq(m, mp):
                assert all(order.compare(m, mp) == LESS for order in samples)
            elif m.degree() != mp.degree():
                assert m.degree() > mp.degree()
                assert TermOrder("deglex").compare(m, mp) == GREATER
            else:
                pid = PosetId.parse(f"A[n=3,d={m.degree()}]")
                rel = relation(pid, m, mp)
                if rel == "gt":
                    assert all(order.compare(m, mp) == GREATER for order in samples)
                else:
                    assert rel == "incomparable"
                    key = frozenset((m, mp))
                    if key not in witnesses:
                        witnesses[key] = separating_witnesses(m, mp, nvars=3)
                    above, below = witnesses[key]
                    if TermOrder("weighted", above).compare(m, mp) != GREATER:
                        above, below = below, above
                    breaker = TermOrder("weighted", above, degree_first=True)
                    assert breaker.compare(m, mp) == GREATER
