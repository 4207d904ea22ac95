"""Tests for the partition, walk, fountain, and planar-partition bijections."""
from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import seed as fixed_seed
from hypothesis import strategies as st

from stableorders import bijections
from stableorders.bijections import (
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
from stableorders.filters import catalan, closed_form_counts, count_filters, is_filter
from stableorders.lattice import CapExceededError, build_hasse
from stableorders.monomials import ONE, Monomial, _moved, monomials_of_degree
from stableorders.orders import PosetId, ground_monomials, leq
from stableorders.verify import (
    Fountain,
    PlanarPartition,
    count_fountains,
    enumerate_filters,
    enumerate_walks,
    iter_filter_level_stacks,
    iter_fountains,
    limit_filter_count,
    planar_partition_from_levels,
    remove_first_column,
    young_contains,
)

M = Monomial.parse

GF_PREFIX = [1, 1, 1, 2, 3, 5, 9, 15, 26, 45, 78, 135, 234]

exponent_vectors = st.lists(st.integers(min_value=0, max_value=4), max_size=4)
monomials = exponent_vectors.map(Monomial)


class TestYoung:
    def test_examples(self):
        assert monomial_to_young(M("x1^2*x3")) == (3, 1, 1)
        assert monomial_to_young(M("x2^2")) == (2, 2)
        assert monomial_to_young(ONE) == ()
        assert young_to_monomial((3, 1, 1)) == M("x1^2*x3")

    @given(monomials)
    def test_round_trip(self, m):
        assert young_to_monomial(monomial_to_young(m)) == m

    def test_row_count_is_degree(self):
        m = M("x1*x2^2*x4")
        assert len(monomial_to_young(m)) == m.degree()

    def test_rejects_bad_partitions(self):
        with pytest.raises(ValueError):
            young_to_monomial((1, 3))
        with pytest.raises(ValueError):
            young_to_monomial((2, 0))

    def test_containment(self):
        assert young_contains((3, 1, 1), (2, 1))
        assert young_contains((3, 1, 1), ())
        assert not young_contains((2, 1), (3,))
        assert not young_contains((3,), (1, 1))

    @pytest.mark.parametrize(("nvars", "degree"), [(3, 3), (4, 2)])
    def test_containment_tracks_dual_order(self, nvars, degree):
        poset = PosetId.parse(f"C[n={nvars},d={degree}]")
        pool = ground_monomials(poset)
        for m in pool:
            for mp in pool:
                diagrams_nested = young_contains(monomial_to_young(mp), monomial_to_young(m))
                assert diagrams_nested == leq(poset, m, mp)

    def test_remove_first_column(self):
        assert remove_first_column((1, 1)) == ()
        assert remove_first_column((3, 1, 1)) == (2,)
        assert remove_first_column((4, 4, 2)) == (3, 3, 1)
        assert remove_first_column(()) == ()


class TestDistinctPartitions:
    def test_forward_example(self):
        members = distinct_partition_to_filter((6, 5, 3, 1), 7)
        assert len(members) == 15
        assert is_filter(members, PosetId.parse("A[n=3,d=7]"))
        assert M("x1^7") in members
        assert M("x1^2*x2^5") in members
        assert M("x1^4*x3^3") in members
        assert M("x1*x2^6") not in members
        assert M("x3^7") not in members
        assert filter_to_distinct_partition(members, 7) == (6, 5, 3, 1)

    def test_full_and_empty(self):
        assert distinct_partition_to_filter((), 3) == frozenset()
        everything = distinct_partition_to_filter((4, 3, 2, 1), 3)
        assert everything == frozenset(ground_monomials(PosetId.parse("A[n=3,d=3]")))
        assert filter_to_distinct_partition(frozenset(), 3) == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            distinct_partition_to_filter((5, 5), 7)
        with pytest.raises(ValueError):
            distinct_partition_to_filter((9,), 7)
        with pytest.raises(ValueError):
            filter_to_distinct_partition(frozenset({M("x3^2")}), 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_round_trip_over_all_filters(self, d):
        h = build_hasse(PosetId.parse(f"A[n=3,d={d}]"))
        seen = set()
        for members in enumerate_filters(h):
            parts = filter_to_distinct_partition(members, d)
            assert len(set(parts)) == len(parts)  # distinct
            assert all(1 <= p <= d + 1 for p in parts)
            assert sum(parts) == len(members)
            assert distinct_partition_to_filter(parts, d) == members
            seen.add(parts)
        assert len(seen) == 2 ** (d + 1)


class TestSquarefree:
    def test_example(self):
        m = distinct_partition_to_squarefree((6, 5, 3, 1), 7)
        assert m == M("x3*x4*x6*x8")
        assert squarefree_to_distinct_partition(m, 7) == (6, 5, 3, 1)

    def test_empty(self):
        assert distinct_partition_to_squarefree((), 4) == ONE
        assert squarefree_to_distinct_partition(ONE, 4) == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            distinct_partition_to_squarefree((3, 3), 4)
        with pytest.raises(ValueError):
            squarefree_to_distinct_partition(M("x2^2"), 4)
        with pytest.raises(ValueError):
            squarefree_to_distinct_partition(M("x9"), 4)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_round_trip_over_all_filters(self, d):
        h = build_hasse(PosetId.parse(f"A[n=3,d={d}]"))
        images = set()
        for members in enumerate_filters(h):
            parts = filter_to_distinct_partition(members, d)
            m = distinct_partition_to_squarefree(parts, d)
            assert all(e <= 1 for e in m.exps)
            assert squarefree_to_distinct_partition(m, d) == parts
            images.add(m)
        # the images are exactly the squarefree monomials in x1..x_{d+1}
        assert images == {
            m
            for e in range(d + 2)
            for m in monomials_of_degree(d + 1, e)
            if all(x <= 1 for x in m.exps)
        }
        assert len(images) == 2 ** (d + 1)


class TestWalks:
    def test_construction(self):
        walk = LatticeWalk(2, tuple("DRDR"))
        assert str(walk) == "DRDR"
        assert list(walk.points()) == [(0, 2), (0, 1), (1, 1), (1, 0), (2, 0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeWalk(2, ("D", "D", "R"))
        with pytest.raises(ValueError):
            LatticeWalk(2, ("R", "R", "D", "D"))  # leaves the region
        with pytest.raises(ValueError):
            LatticeWalk(1, ("X", "R"))
        with pytest.raises(ValueError):
            LatticeWalk(-1, ())

    def test_enumeration_counts_are_catalan(self):
        for region in range(8):
            walks = list(enumerate_walks(region))
            assert len(walks) == catalan(region)
            assert len(set(walks)) == len(walks)

    def test_enumeration_order_is_downs_first(self):
        assert [str(w) for w in enumerate_walks(2)] == ["DDRR", "DRDR"]

    def test_weight_extremes(self):
        region = 5
        staircase = LatticeWalk(region, tuple("DR" * region))
        assert walk_weight(staircase) == 0
        hook = LatticeWalk(region, tuple("D" * region + "R" * region))
        assert walk_weight(hook) == region * (region - 1) // 2

    def test_frozen_example(self):
        members = frozenset(
            Monomial(e) for e in [(0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (2, 4), (3, 3), (6,)]
        )
        walk = filter_to_walk(members, 6)
        assert (walk.region, str(walk)) == (8, "DDDDRRRDRRDRDDRR")
        assert walk_weight(walk) == 8 == len(members)
        assert walk_to_filter(walk) == members

    def test_extreme_filters(self):
        d = 3
        everything = frozenset(ground_monomials(PosetId.parse("D[n=2,d=3]")))
        assert str(filter_to_walk(everything, d)) == "D" * (d + 2) + "R" * (d + 2)
        assert str(filter_to_walk(frozenset(), d)) == "DR" * (d + 2)
        assert walk_to_filter(LatticeWalk(d + 2, tuple("DR" * (d + 2)))) == frozenset()

    def test_filter_validation(self):
        with pytest.raises(ValueError):
            filter_to_walk(frozenset({M("x1")}), 3)  # not upward closed
        with pytest.raises(ValueError):
            walk_to_filter(LatticeWalk(1, tuple("DR")))

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    def test_round_trip_both_ways(self, d):
        h = build_hasse(PosetId.parse(f"D[n=2,d={d}]"))
        walks_seen = set()
        for members in enumerate_filters(h):
            walk = filter_to_walk(members, d)
            assert walk.region == d + 2
            assert walk_weight(walk) == len(members)
            assert walk_to_filter(walk) == members
            walks_seen.add(walk)
        assert walks_seen == set(enumerate_walks(d + 2))
        for walk in enumerate_walks(d + 2):
            assert filter_to_walk(walk_to_filter(walk), d) == walk

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_weight_histogram_matches_filter_sizes(self, d):
        by_weight = Counter(walk_weight(w) for w in enumerate_walks(d + 2))
        h = build_hasse(PosetId.parse(f"D[n=2,d={d}]"))
        for w, count in by_weight.items():
            assert count_filters(h, w) == count


def continued_fraction_coefficients(nterms, depth=None):
    """Coefficients 0..nterms of the fountain series as the continued
    fraction 1/(1 - z/(1 - z^2/(1 - z^3/...))) cut at `depth`, by default
    the least depth J with J(J+1)/2 > nterms, which moves none of them.
    With f_j = 1/(1 - z^j f_{j+1}), two f_{j+1} that agree below degree k
    give f_j that agree below k + j, as 1/(1-a) - 1/(1-b) =
    (a-b)/((1-a)(1-b)).  The cut sets f_{J+1} = 1, true below degree 1, so
    f_1 is true below degree 1 + J(J+1)/2 > nterms + 1.  One series
    inversion per level: the oracle for fountain_gf_coefficients."""
    if depth is None:
        depth = 1
        while depth * (depth + 1) // 2 <= nterms:
            depth += 1
    f = [1] + [0] * nterms
    for j in range(depth, 0, -1):
        shifted = ([0] * j + f)[: nterms + 1]
        g = [1] + [0] * nterms
        for k in range(1, nterms + 1):
            g[k] = sum(shifted[i] * g[k - i] for i in range(1, k + 1))
        f = g
    return f


class TestFountains:
    def test_validation(self):
        Fountain(((0, 1, 2), (0,)))  # fine
        Fountain(())  # the empty fountain
        with pytest.raises(ValueError):
            Fountain(((1, 2),))
        with pytest.raises(ValueError):
            Fountain(((0, 1), (1,)))  # needs coins at 1 and 2 below
        with pytest.raises(ValueError):
            Fountain(((0, 0),))
        with pytest.raises(ValueError):
            Fountain(((0, 1), ()))

    def test_coins(self):
        assert Fountain(((0, 1, 2, 3), (0, 2))).coins() == 6
        assert Fountain(()).coins() == 0

    def test_counts_match_generating_function(self):
        for w in range(11):
            assert count_fountains(w) == GF_PREFIX[w]

    def test_non_contiguous_upper_row_appears(self):
        assert Fountain(((0, 1, 2, 3), (0, 2))) in set(iter_fountains(6))

    def test_stacking_height(self):
        # a full triangular stack: rows shrink by one each level
        tall = Fountain(((0, 1, 2), (0, 1), (0,)))
        assert tall.coins() == 6
        assert tall in set(iter_fountains(6))

    def test_truncated_fraction_matches_full_depth(self):
        # the fraction cut at depth 61 is exact up to z^60, as any cut at a
        # depth J with J(J+1)/2 > nterms is; the quotient P/Q agrees with both
        full = continued_fraction_coefficients(60, 61)
        for n in range(61):
            expected = full[: n + 1]
            assert fountain_gf_coefficients(n) == continued_fraction_coefficients(n) == expected

    def test_terms_cap(self, monkeypatch):
        monkeypatch.setattr(bijections, "FOUNTAIN_TERMS_CAP", 10)
        assert fountain_gf_coefficients(10) == GF_PREFIX[:11]
        with pytest.raises(CapExceededError, match="^11 terms exceed the cap of 10$"):
            fountain_gf_coefficients(11)

    def test_generating_function(self):
        assert fountain_gf_coefficients(12) == GF_PREFIX
        assert fountain_gf_coefficients(0) == [1]
        with pytest.raises(ValueError):
            fountain_gf_coefficients(-1)

    def test_iter_rejects_negative(self):
        with pytest.raises(ValueError):
            count_fountains(-1)

    @pytest.mark.parametrize("w", range(7))
    def test_limit_filter_counts(self, w):
        assert limit_filter_count(w) == GF_PREFIX[w]

    def test_limit_is_reached(self):
        # past degree weight+1 the by-size counts no longer change
        for w in range(5):
            for extra in (1, 2, 3):
                h = build_hasse(PosetId.parse(f"B[n=3,d={w + extra}]"))
                assert count_filters(h, w) == limit_filter_count(w)


class TestPlanarPartitions:
    def test_validation(self):
        PlanarPartition(((2, 1), (1, 0)))
        with pytest.raises(ValueError):
            PlanarPartition(((1, 2),))
        with pytest.raises(ValueError):
            PlanarPartition(((1, 1), (2, 1)))
        with pytest.raises(ValueError):
            PlanarPartition(((1, 1), (1,)))

    def test_level_stacks_degree_one(self):
        stacks = list(iter_filter_level_stacks(1))
        assert stacks == [
            ((), ()),
            ((1,), ()),
            ((2,), ()),
            ((2, 1), ()),
            ((2, 1), (1,)),
        ]

    def test_from_levels(self):
        planar = planar_partition_from_levels(((2, 1), (1,)), 1)
        assert planar.heights == ((2, 1), (1, 0))

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_counts_match_four_variable_filters(self, d):
        expected = [2, 5, 16, 66][d]
        assert closed_form_counts(PosetId.parse(f"A[n=4,d={d}]")) == expected
        assert count_filters(build_hasse(PosetId.parse(f"A[n=4,d={d}]"))) == expected
        stacks = list(iter_filter_level_stacks(d))
        assert len(stacks) == len(set(stacks)) == expected

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_every_stack_yields_a_planar_partition(self, d):
        for levels in iter_filter_level_stacks(d):
            planar = planar_partition_from_levels(levels, d)
            assert len(planar.heights) == d + 1
            assert all(len(row) == d + 1 for row in planar.heights)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stacks_encode_exactly_the_filters(self, d):
        # level i is the distinct-parts encoding of the slice with x4-exponent
        # i; rebuilding all slices must produce each four-variable filter once
        poset = PosetId.parse(f"A[n=4,d={d}]")
        rebuilt = set()
        for levels in iter_filter_level_stacks(d):
            members = set()
            for i, lam in enumerate(levels):
                for stripped in distinct_partition_to_filter(lam, d - i):
                    members.add(Monomial(stripped.exponent_vector(3) + [i]))
            rebuilt.add(frozenset(members))
        expected = set(enumerate_filters(build_hasse(poset)))
        assert rebuilt == expected


# ---------------------------------------------------------------------------
# the direct forms against the searches and scans they replaced


def closure_walk_to_filter(walk):
    """The walk's points inside the staircase, closed upward by search."""
    degree = walk.region - 2
    seen = {(x, y) for x, y in walk.points() if x + y <= degree}
    frontier = list(seen)
    while frontier:
        a, b = frontier.pop()
        for nxt in ((a + 1, b), (a, b + 1)):
            if sum(nxt) <= degree and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(Monomial(p) for p in seen)


def checked_filter_to_walk(elements, degree):
    """Column minima, checked never to rise."""
    column_min = {}
    for m in elements:
        a, b = m.exponent(1), m.exponent(2)
        column_min[a] = min(column_min.get(a, b), b)
    heights = [degree + 2] + [column_min.get(a, degree + 1 - a) for a in range(degree + 2)]
    steps = []
    for high, low in zip(heights, heights[1:]):
        assert high >= low
        steps += ["D"] * (high - low) + ["R"]
    return LatticeWalk(degree + 2, tuple(steps))


def checked_layer_sizes(elements, degree):
    """x3-layer sizes, checked to be a strictly falling prefix."""
    sizes = [sum(1 for m in elements if m.exponent(3) == i) for i in range(degree + 1)]
    parts = tuple(s for s in sizes if s)
    assert sizes[: len(parts)] == list(parts)
    assert all(a > b for a, b in zip(parts, parts[1:]))
    return parts


def scanned_young_to_monomial(rows):
    """One scan of the rows per column."""
    width = rows[0] if rows else 0
    return Monomial(sum(1 for r in rows if r == i) for i in range(1, width + 1))


def chained_squarefree(parts, degree):
    """One variable multiplied in per part."""
    out = ONE
    for w in parts:
        out = Monomial(_moved(out.exps, degree + 2 - w))
    return out


@st.composite
def walks(draw, max_region=14):
    """Admissible walks of region 2..max_region (staircase degree up to 12)."""
    region = draw(st.integers(min_value=2, max_value=max_region))
    steps, downs, rights = [], 0, 0
    while rights < region:
        if downs < region and (rights == downs or draw(st.booleans())):
            steps.append("D")
            downs += 1
        else:
            steps.append("R")
            rights += 1
    return LatticeWalk(region, tuple(steps))


@st.composite
def distinct_partitions(draw, max_degree=10):
    """A degree up to max_degree and a partition into distinct parts <= degree + 1."""
    degree = draw(st.integers(min_value=0, max_value=max_degree))
    parts = draw(st.sets(st.integers(min_value=1, max_value=degree + 1)))
    return tuple(sorted(parts, reverse=True)), degree


partitions = st.lists(st.integers(min_value=1, max_value=40), max_size=30).map(
    lambda rows: tuple(sorted(rows, reverse=True))
)


class TestDirectForms:
    @fixed_seed(20261018)
    @settings(max_examples=300, deadline=None, database=None)
    @given(walks())
    def test_walk_to_filter_matches_closure(self, walk):
        assert walk_to_filter(walk) == closure_walk_to_filter(walk)

    @fixed_seed(20261019)
    @settings(max_examples=300, deadline=None, database=None)
    @given(walks())
    def test_filter_to_walk_matches_checked_minima(self, walk):
        members, degree = walk_to_filter(walk), walk.region - 2
        assert filter_to_walk(members, degree) == checked_filter_to_walk(members, degree) == walk

    @fixed_seed(20261020)
    @settings(max_examples=300, deadline=None, database=None)
    @given(distinct_partitions())
    def test_layer_sizes_match_checked_scan(self, case):
        parts, degree = case
        members = distinct_partition_to_filter(parts, degree)
        assert filter_to_distinct_partition(members, degree) == parts
        assert checked_layer_sizes(members, degree) == parts

    @fixed_seed(20261021)
    @settings(max_examples=300, deadline=None, database=None)
    @given(partitions)
    def test_young_to_monomial_matches_scan(self, rows):
        assert young_to_monomial(rows) == scanned_young_to_monomial(rows)

    @fixed_seed(20261022)
    @settings(max_examples=300, deadline=None, database=None)
    @given(distinct_partitions())
    def test_squarefree_matches_chain(self, case):
        parts, degree = case
        assert distinct_partition_to_squarefree(parts, degree) == chained_squarefree(parts, degree)
