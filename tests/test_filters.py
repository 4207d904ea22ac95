"""Tests for filters: recognition, counting, enumeration, and ideals."""
from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis import seed as fixed_seed

from stableorders import cli, filters
from stableorders.cli import _elements_json_dict, _format_filter
from stableorders.filters import (
    _filter_masks,
    borel_closure,
    catalan,
    closed_form_counts,
    count_filters,
    filter_counts_by_size,
    is_borel_ideal,
    is_filter,
    is_stable_ideal,
    minimal_generators,
    stable_closure,
    stable_filter_counts,
    SweepBudgetError,
)
from stableorders.lattice import CapExceededError, _linear_order, build_hasse
from stableorders.monomials import ONE, Monomial
from stableorders.orders import Family, GroundSetError, PosetId, ground_monomials, leq
from stableorders.verify import (
    borel_moves_up,
    boundary,
    down_masks,
    enumerate_filters,
    filter_count_three_vars,
    interior,
    is_filter_by_layers,
    pivot_filter_counts,
    stable_moves_up,
    weighted_walk_count,
)

M = Monomial.parse


def ideal_contains(gens, m):
    return any(g.divides(m) for g in gens)


def parse_set(*texts):
    return frozenset(M(t) for t in texts)


def full_move_closure(gens, moves_up):
    """Minimal generators of the smallest ideal containing gens that holds
    every move (moves_up, all of them, not only covers) of its generators."""
    basis = set(gens)
    queue = list(basis)
    while queue:
        for u in moves_up(queue.pop()):
            if not any(g.divides(u) for g in basis):
                basis.add(u)
                queue.append(u)
    return minimal_generators(basis)


def full_move_test(gens, moves_up):
    return all(any(h.divides(u) for h in gens) for g in gens for u in moves_up(g))


generator_sets = st.lists(
    st.lists(st.integers(min_value=0, max_value=3), max_size=4).map(Monomial),
    min_size=1, max_size=4,
)


def local_filters(poset, ground=None):
    """All upward-closed subsets of the ground set (by default the poset's
    own) by scanning every subset against leq."""
    if ground is None:
        ground = ground_monomials(poset)
    out = []
    for bits in range(1 << len(ground)):
        members = frozenset(g for i, g in enumerate(ground) if bits >> i & 1)
        if all(
            mp in members
            for m in members
            for mp in ground
            if leq(poset, m, mp)
        ):
            out.append(members)
    return out


class TestIsFilter:
    def test_basic_examples(self):
        a22 = PosetId.parse("A[n=2,d=2]")
        assert is_filter(parse_set("x1^2"), a22)
        assert is_filter(parse_set(), a22)
        assert is_filter(parse_set("x2^2", "x1*x2", "x1^2"), a22)
        assert not is_filter(parse_set("x2^2"), a22)

    def test_families_disagree(self):
        members = parse_set("x2*x3", "x2^2", "x1*x2", "x1^2")
        assert not is_filter(members, PosetId.parse("A[n=3,d=2]"))  # misses x1*x3
        assert is_filter(members, PosetId.parse("B[n=3,d=2]"))

    def test_divisibility_and_dual(self):
        assert is_filter(parse_set("x1*x2", "x1^2*x2", "x1*x2^2"), PosetId.parse("D[n=2,d=3]"))
        assert not is_filter(parse_set("x1*x2"), PosetId.parse("D[n=2,d=3]"))
        assert is_filter(parse_set("x2^2"), PosetId.parse("C[n=2,d=2]"))
        assert not is_filter(parse_set("x1^2"), PosetId.parse("C[n=2,d=2]"))

    def test_errors(self):
        with pytest.raises(GroundSetError):
            is_filter(parse_set("x1"), PosetId.parse("A[n=2,d=2]"))
        with pytest.raises(ValueError):
            is_filter(parse_set("x1"), PosetId.parse("A[n=2]"))

    @pytest.mark.parametrize("poset_text", ["A[n=3,d=2]", "B[n=3,d=2]", "D[n=2,d=2]"])
    def test_matches_subset_scan(self, poset_text):
        poset = PosetId.parse(poset_text)
        ground = ground_monomials(poset)
        expected = set(local_filters(poset))
        for bits in range(1 << len(ground)):
            members = frozenset(g for i, g in enumerate(ground) if bits >> i & 1)
            assert is_filter(members, poset) == (members in expected)


class TestInterior:
    def test_two_variable_example(self):
        members = parse_set("x1^2", "x1*x2")
        assert interior(members, 2) == parse_set("x1^2")
        assert boundary(members, 2) == parse_set("x1*x2")

    def test_full_degree_slice_is_its_own_interior(self):
        members = frozenset(ground_monomials(PosetId.parse("A[n=3,d=2]")))
        assert interior(members, 3) == members
        assert boundary(members, 3) == frozenset()

    def test_interior_is_inside(self):
        rng = random.Random(7)
        pool = ground_monomials(PosetId.parse("A[n=3,d=3]"))
        for _ in range(50):
            members = frozenset(m for m in pool if rng.random() < 0.5)
            inner = interior(members, 3)
            assert inner <= members
            assert boundary(members, 3) == members - inner


class TestLayers:
    def test_rejects_mixed_degrees(self):
        with pytest.raises(GroundSetError):
            is_filter_by_layers(parse_set("x1", "x1*x2"), 3, 2)
        with pytest.raises(GroundSetError):
            is_filter_by_layers(parse_set("x4^2"), 3, 2)

    def test_needs_three_variables(self):
        with pytest.raises(ValueError):
            is_filter_by_layers(parse_set("x1^2"), 2, 2)

    @pytest.mark.parametrize(("nvars", "degree"), [(3, 3), (4, 2)])
    def test_layer_test_agrees_on_all_filters(self, nvars, degree):
        h = build_hasse(PosetId.parse(f"A[n={nvars},d={degree}]"))
        for members in enumerate_filters(h):
            assert is_filter_by_layers(members, nvars, degree)

    @pytest.mark.parametrize(("nvars", "degree"), [(3, 3), (4, 2)])
    def test_layer_test_agrees_on_random_subsets(self, nvars, degree):
        poset = PosetId.parse(f"A[n={nvars},d={degree}]")
        pool = ground_monomials(poset)
        rng = random.Random(13)
        for _ in range(200):
            members = frozenset(m for m in pool if rng.random() < rng.choice((0.3, 0.6, 0.9)))
            assert is_filter_by_layers(members, nvars, degree) == is_filter(members, poset)


# the glued posets of the subset scan, with the degree they are truncated to
TRUNCATED = {"A[n=2]": 3, "B[n=3]": 2, "C[n=2]": 3, "D[n=2]": 3}


class TestCounting:
    @pytest.mark.parametrize(
        "poset_text",
        ["A[n=3,d=2]", "B[n=3,d=2]", "D[n=2,d=2]", "A[n=2,d=4]", "C[n=3,d=2]",
         "D[n=3,d=2]", "D[n=2,d=0]", *TRUNCATED],
    )
    def test_count_and_enumeration_match_subset_scan(self, poset_text, capsys):
        poset, max_degree = PosetId.parse(poset_text), TRUNCATED.get(poset_text)
        h = build_hasse(poset, max_degree=max_degree)
        expected = local_filters(poset, h.vertices)
        got = list(enumerate_filters(h))
        assert len(got) == len(set(got)) == count_filters(h) == len(expected)
        assert set(got) == set(expected)
        histogram = Counter(len(f) for f in expected)
        for v in range(len(h) + 1):
            assert count_filters(h, v) == histogram.get(v, 0)
        truncation = [] if max_degree is None else ["--max-degree", str(max_degree)]
        for v in [None, *range(-1, len(h) + 2)]:
            filters = list(enumerate_filters(h, v))
            if v is not None:
                assert filters == [f for f in got if len(f) == v]
            # the mask walk behind the CLI decodes to the same filters in order
            masks = list(_filter_masks(h, v))
            assert [frozenset(h.vertices[i] for i in range(len(h)) if m >> i & 1)
                    for m in masks] == filters
            # and the CLI renders them as the frozensets through the sorted path
            sized = [] if v is None else ["--cardinality", str(v)]
            argv = ["enumerate", "--poset", poset_text, *truncation, *sized]
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == "".join(_format_filter(f) + "\n" for f in filters)
            assert cli.main([*argv, "--format", "json"]) == 0
            payload = {"poset": str(poset), "filters": [_elements_json_dict(f) for f in filters]}
            assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    def test_known_totals(self):
        assert count_filters(build_hasse(PosetId.parse("A[n=3,d=2]"))) == 8
        assert count_filters(build_hasse(PosetId.parse("B[n=3,d=2]"))) == 9
        assert count_filters(build_hasse(PosetId.parse("D[n=2,d=2]"))) == catalan(4)

    def test_trivial_cardinalities(self):
        h = build_hasse(PosetId.parse("A[n=3,d=3]"))
        assert count_filters(h, 0) == 1
        assert count_filters(h, len(h)) == 1
        assert count_filters(h, len(h) + 5) == 0
        assert count_filters(h, -1) == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_pivots_change_nothing(self, seed):
        for poset_text in ("A[n=3,d=3]", "B[n=3,d=3]"):
            h = build_hasse(PosetId.parse(poset_text))
            baseline = count_filters(h)
            assert sum(pivot_filter_counts(h, random.Random(seed))) == baseline
            assert pivot_filter_counts(h, random.Random(seed))[4] == count_filters(h, 4)

    @fixed_seed(20260)
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        family=st.sampled_from("ABCD"),
        nvars=st.integers(min_value=1, max_value=4),
        degree=st.integers(min_value=0, max_value=5),
        glued=st.booleans(),
    )
    def test_frontier_counts_match_pivot_oracle(self, family, nvars, degree, glued):
        if glued:
            poset, max_degree = PosetId.parse(f"{family}[n={nvars}]"), degree
        else:
            poset, max_degree = PosetId.parse(f"{family}[n={nvars},d={degree}]"), None
        h = build_hasse(poset, max_degree=max_degree)
        assume(len(h) <= 40)
        oracle = pivot_filter_counts(h)
        assert filter_counts_by_size(h) == oracle
        assert count_filters(h) == sum(oracle)

    def test_enumeration_by_cardinality(self):
        h = build_hasse(PosetId.parse("B[n=3,d=2]"))
        sized = list(enumerate_filters(h, 4))
        assert all(len(f) == 4 for f in sized)
        assert {frozenset(str(m) for m in f) for f in sized} == {
            frozenset({"x1^2", "x1*x2", "x1*x3", "x2^2"}),
            frozenset({"x1^2", "x1*x2", "x2^2", "x2*x3"}),
        }

    def test_enumeration_cap(self):
        h = build_hasse(PosetId.parse("A[n=3,d=3]"))
        with pytest.raises(CapExceededError):
            list(enumerate_filters(h, cap=3))
        assert len(list(enumerate_filters(h, cap=16))) == 16


def slot_sweep(h, width):
    """The frontier sweep keyed by the in/out bits of the frontier (decided
    vertices with an undecided cover neighbour), one recycled slot per
    frontier vertex: the sweep's state before the forced-set key replaced
    it, kept here as an oracle without its budget."""
    order = _linear_order(h)
    position = [0] * len(h)
    for t, v in enumerate(order):
        position[v] = t
    last = position[:]  # step of each vertex's last upper cover (or its own)
    lowers = [[] for _ in order]
    for lo, hi in h.covers:
        lowers[hi].append(lo)
        last[lo] = max(last[lo], position[hi])
    slot = [0] * len(h)
    free, next_slot = [], 0
    states = {0: 1}
    for t, v in enumerate(order):
        need_out = leaving = 0
        for u in lowers[v]:
            need_out |= 1 << slot[u]
            if last[u] == t:
                leaving |= 1 << slot[u]
                free.append(slot[u])
        bit = 0
        if last[v] > t:
            if free:
                slot[v] = free.pop()
            else:
                slot[v], next_slot = next_slot, next_slot + 1
            bit = 1 << slot[v]
        keep = ~leaving
        grown = {}
        for state, counts in states.items():
            if not state & need_out:
                grown[state & keep] = grown.get(state & keep, 0) + counts
            key = state & keep | bit
            grown[key] = grown.get(key, 0) + (counts << width)
        states = grown
    return states[0]


class TestForcedSweep:
    """_frontier_sweep keys its states by the future vertices forced into
    the filter; the slot sweep keyed them by the frontier's in/out bits."""

    @fixed_seed(20262)
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        family=st.sampled_from("ABCD"),
        nvars=st.integers(min_value=1, max_value=5),
        degree=st.integers(min_value=-1, max_value=6),
        glued=st.booleans(),
    )
    def test_matches_the_slot_sweep(self, family, nvars, degree, glued):
        assume(glued or degree >= 0)
        if glued:
            poset, max_degree = PosetId.parse(f"{family}[n={nvars}]"), degree
        else:
            poset, max_degree = PosetId.parse(f"{family}[n={nvars},d={degree}]"), None
        h = build_hasse(poset, max_degree=max_degree)
        assume(len(h) <= 80)
        total = slot_sweep(h, 0)
        assert filters._frontier_sweep(h, 0) == total
        width = total.bit_length()
        assert filters._frontier_sweep(h, width) == slot_sweep(h, width)

    def test_answers_under_a_budget_the_slot_key_overran(self, monkeypatch):
        # the slot sweep's states of A[n=4,d=4] needed 5,166 bytes at its
        # widest step, the forced sets need 3,444
        monkeypatch.setattr(filters, "SWEEP_BUDGET_BYTES", 4096)
        h = build_hasse(PosetId.parse("A[n=4,d=4]"))
        assert count_filters(h) == slot_sweep(h, 0) == 352
        monkeypatch.setattr(filters, "SWEEP_BUDGET_BYTES", 3443)
        with pytest.raises(SweepBudgetError, match="live states"):
            count_filters(h)


class TestEnumerationCap:
    @fixed_seed(20261)
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        family=st.sampled_from("ABCD"),
        nvars=st.integers(min_value=1, max_value=4),
        degree=st.integers(min_value=-1, max_value=5),
        glued=st.booleans(),
    )
    def test_refuses_exactly_over_the_cap(self, family, nvars, degree, glued):
        assume(glued or degree >= 0)
        if glued:
            poset, max_degree = PosetId.parse(f"{family}[n={nvars}]"), degree
        else:
            poset, max_degree = PosetId.parse(f"{family}[n={nvars},d={degree}]"), None
        h = build_hasse(poset, max_degree=max_degree)
        assume(len(h) <= 40)
        profile = filter_counts_by_size(h)
        for cardinality in [None, *range(-1, len(h) + 2)]:
            if cardinality is None:
                count = sum(profile)
            else:
                count = profile[cardinality] if 0 <= cardinality <= len(h) else 0
            for cap in (count - 1, count):
                if count > cap:
                    with pytest.raises(CapExceededError) as excinfo:
                        _filter_masks(h, cardinality, cap)
                    assert str(excinfo.value) == f"{count} filters exceed the cap of {cap}"
                else:
                    assert len(list(_filter_masks(h, cardinality, cap))) == count

    @pytest.mark.parametrize(
        "poset_text, max_degree",
        [("A[n=3,d=9]", None), ("C[n=6,d=2]", None), ("D[n=2,d=6]", None),
         ("B[n=3,d=6]", None), ("D[n=2]", 5), ("D[n=2]", -1), ("A[n=9,d=1]", None),
         ("C[n=4,d=4]", None), ("A[n=5,d=3]", None), ("A[n=3]", 4), ("C[n=3]", 3), ("A[n=2]", 6),
         ("C[n=1]", 5), ("C[n=4]", -1)],
    )
    def test_closed_forms_need_no_sweep(self, monkeypatch, capsys, poset_text, max_degree):
        h = build_hasse(PosetId.parse(poset_text), max_degree=max_degree)
        profile = filter_counts_by_size(h)

        def sweep(h, width, top=None):
            raise AssertionError("the enumeration of a closed-form poset swept")

        monkeypatch.setattr(filters, "_frontier_sweep", sweep)
        assert len(list(_filter_masks(h))) == sum(profile)
        for cardinality in range(len(h) + 1):
            assert len(list(_filter_masks(h, cardinality))) == profile[cardinality]
        # below the total, the cap is checked against the closed form by size
        cap = sum(profile) - 1
        for cardinality in range(-1, len(h) + 2):
            count = profile[cardinality] if 0 <= cardinality <= len(h) else 0
            if count > cap:
                with pytest.raises(CapExceededError, match=f"^{count} filters exceed"):
                    _filter_masks(h, cardinality, cap)
            else:
                assert len(list(_filter_masks(h, cardinality, cap))) == count
        # and so are count's sizes
        poset = ["--poset", poset_text] + ([] if max_degree is None else ["--max-degree", str(max_degree)])
        assert cli.main(["count", *poset, "--by-cardinality"]) == 0
        lines = [f"{k} {c}" for k, c in enumerate(profile)]
        assert capsys.readouterr().out.splitlines() == lines
        for cardinality in (0, len(h) // 2, len(h), len(h) + 1):
            assert cli.main(["count", *poset, "--cardinality", str(cardinality)]) == 0
            count = profile[cardinality] if cardinality <= len(h) else 0
            assert capsys.readouterr().out == f"{count}\n"

    def test_one_plain_sweep_elsewhere(self, monkeypatch):
        h = build_hasse(PosetId.parse("B[n=4,d=4]"))
        expected = filter_counts_by_size(h)[17]
        calls, sweep = [], filters._frontier_sweep

        def recorded(h, width, top=None):
            calls.append((width, top))
            return sweep(h, width, top)

        monkeypatch.setattr(filters, "_frontier_sweep", recorded)
        assert len(list(_filter_masks(h, 17))) == expected
        assert calls == [(0, None)]
        # past the cap, size 17 is counted by a cut sweep as wide as the total
        calls.clear()
        total = sweep(h, 0)
        assert len(list(_filter_masks(h, 17, total - 1))) == expected
        assert calls == [(0, None), (total.bit_length(), 17)]

    def test_few_subsets_need_no_count(self, monkeypatch):
        # no size k holds more filters than C(N, k), and one outside 0..N
        # holds none: while that bound fits the cap, nothing is counted
        h = build_hasse(PosetId.parse("B[n=4,d=4]"))
        n, profile = len(h), filter_counts_by_size(h)
        calls = []
        for name in ("_frontier_sweep", "closed_form_counts"):
            def recorded(*args, name=name, real=getattr(filters, name)):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(filters, name, recorded)
        for k in (0, 1, 2, 3, n - 2, n - 1, n):
            assert len(list(_filter_masks(h, k, comb(n, k)))) == profile[k]
        for k in (-1, n + 1, n + 40):
            assert list(_filter_masks(h, k, 0)) == []
        assert calls == []
        # a bound past the cap takes the route through the total
        assert len(list(_filter_masks(h, 2, comb(n, 2) - 1))) == profile[2]
        assert calls[:2] == ["closed_form_counts", "_frontier_sweep"]
        calls.clear()
        with pytest.raises(CapExceededError, match="^0 filters exceed the cap of -1$"):
            _filter_masks(h, n + 1, -1)
        assert calls[:2] == ["closed_form_counts", "_frontier_sweep"]

    def test_one_size_is_counted_by_a_cut_sweep(self, monkeypatch, capsys):
        # one plain sweep for the field width, then one keeping sizes 0 .. 2
        calls, sweep = [], filters._frontier_sweep

        def recorded(h, width, top=None):
            calls.append((width, top))
            return sweep(h, width, top)

        monkeypatch.setattr(filters, "_frontier_sweep", recorded)
        assert cli.main(["count", "--poset", "B[n=4,d=4]", "--cardinality", "2"]) == 0
        assert capsys.readouterr().out == "1\n"
        assert [top for _, top in calls] == [None, 2] and calls[0][0] == 0 < calls[1][0]


def largest_up_set(up, mask):
    """The lowest-indexed element of the mask with the largest up-set in it,
    weighing every bit of the mask."""
    bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
    return max(bits, key=lambda i: ((up[i] & mask).bit_count(), -i))


def unstripped_walk(h, cardinality=None):
    """The pivot walk over every vertex, pruning each branch by a recount of
    its masks and closing it only when its mask is empty: the walk before
    _filter_masks dropped the vertices too large to fit and closed branches
    at once, kept here as the oracle of its order."""
    up, down = h.up_masks(), down_masks(h)

    def viable(mask, chosen):
        return cardinality is None or 0 <= cardinality - chosen.bit_count() <= mask.bit_count()

    full = (1 << len(h)) - 1
    stack = [(full, 0)] if viable(full, 0) else []
    while stack:
        mask, chosen = stack.pop()
        if mask == 0:
            yield chosen
            continue
        pivot = largest_up_set(up, mask)
        principal = up[pivot] & mask
        for branch, picked in ((mask & ~principal, chosen | principal),
                               (mask & ~(down[pivot] & mask), chosen)):
            if viable(branch, picked):
                stack.append((branch, picked))


class TestPivotWalk:
    @fixed_seed(20263)
    @settings(max_examples=80, deadline=None, database=None)
    @given(
        family=st.sampled_from("ABCD"),
        nvars=st.integers(min_value=1, max_value=5),
        degree=st.integers(min_value=-1, max_value=7),
        glued=st.booleans(),
    )
    def test_lists_what_the_unstripped_walk_lists_in_order(self, family, nvars, degree, glued):
        assume(glued or degree >= 0)
        if glued:
            poset, max_degree = PosetId.parse(f"{family}[n={nvars}]"), degree
        else:
            poset, max_degree = PosetId.parse(f"{family}[n={nvars},d={degree}]"), None
        h = build_hasse(poset, max_degree=max_degree)
        assume(len(h) <= 40)
        for cardinality in [None, *range(-1, len(h) + 2)]:
            expected = list(unstripped_walk(h, cardinality))
            assert list(_filter_masks(h, cardinality, cap=len(expected))) == expected

    @fixed_seed(20271)
    @settings(max_examples=80, deadline=None, database=None)
    @given(
        family=st.sampled_from("ABCD"),
        nvars=st.integers(min_value=1, max_value=5),
        degree=st.integers(min_value=-1, max_value=7),
        glued=st.booleans(),
        data=st.data(),
    )
    def test_pivot_weighs_any_candidates(self, family, nvars, degree, glued, data):
        assume(glued or degree >= 0)
        if glued:
            poset, max_degree = PosetId.parse(f"{family}[n={nvars}]"), degree
        else:
            poset, max_degree = PosetId.parse(f"{family}[n={nvars},d={degree}]"), None
        h = build_hasse(poset, max_degree=max_degree)
        assume(0 < len(h) <= 40)
        up, down = h.up_masks(), down_masks(h)
        for _ in range(10):
            mask = data.draw(st.integers(min_value=1, max_value=(1 << len(h)) - 1))
            least = sum(1 << i for i in range(len(h)) if down[i] & mask == 1 << i)
            candidates = least | mask & data.draw(st.integers(min_value=0, max_value=mask))
            assert filters._pivot(up, candidates, mask) == largest_up_set(up, mask)

    @fixed_seed(20301)
    @settings(max_examples=80, deadline=None, database=None)
    @given(
        family=st.sampled_from("ABCD"),
        nvars=st.integers(min_value=1, max_value=5),
        degree=st.integers(min_value=-1, max_value=7),
        glued=st.booleans(),
    )
    def test_root_least_is_the_minimal_elements(self, family, nvars, degree, glued):
        # the walk reads its root's minimal elements off the covers; they
        # are those of the down-mask definition, for every k
        assume(glued or degree >= 0)
        if glued:
            poset, max_degree = PosetId.parse(f"{family}[n={nvars}]"), degree
        else:
            poset, max_degree = PosetId.parse(f"{family}[n={nvars},d={degree}]"), None
        h = build_hasse(poset, max_degree=max_degree)
        assume(len(h) <= 40)
        up, down = h.up_masks(), down_masks(h)
        for cardinality in [None, *range(len(h) + 1)]:
            k = len(h) + 1 if cardinality is None else cardinality
            keep = sum(1 << i for i, u in enumerate(up) if u.bit_count() <= k)
            low = max((keep & -keep).bit_length() - 1, 0)
            least = sum(1 << i for i, v in enumerate(down) if v & keep == 1 << i) >> low
            first, pivot = [], filters._pivot

            def recorded(up, candidates, mask):
                first.append(candidates)
                return pivot(up, candidates, mask)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(filters, "_pivot", recorded)
                next(_filter_masks(h, cardinality, cap=2**len(h)), None)
            # the root closes without a pivot when it lists one filter only
            closes = not keep or k in (0, keep.bit_count())
            assert first[:1] == ([] if closes else [least])

    def test_pivot_steps_follow_the_listing(self, monkeypatch):
        # the unstripped walk took 38,194 pivot steps for these 4,525 filters
        calls, pivot = [], filters._pivot

        def counted(up, down, mask):
            calls.append(mask)
            return pivot(up, down, mask)

        monkeypatch.setattr(filters, "_pivot", counted)
        h = build_hasse(PosetId.parse("D[n=2,d=30]"))
        assert sum(1 for _ in _filter_masks(h, 3)) == 4525
        assert len(calls) <= 2 * 4525


class TestCatalan:
    def test_values(self):
        assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestThreeVariableRecurrence:
    def test_degree_two_profile(self):
        assert [filter_count_three_vars(2, v) for v in range(7)] == [1, 1, 1, 2, 1, 1, 1]

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_matches_filter_counts(self, d):
        h = build_hasse(PosetId.parse(f"A[n=3,d={d}]"))
        top = (d + 1) * (d + 2) // 2
        for v in range(top + 1):
            assert filter_count_three_vars(d, v) == count_filters(h, v)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_matches_distinct_part_subsets(self, d):
        # independent model: v must be a sum of distinct integers from 1..d+1
        parts = range(1, d + 2)
        sizes = Counter(
            sum(chosen)
            for r in range(d + 2)
            for chosen in combinations(parts, r)
        )
        top = (d + 1) * (d + 2) // 2
        for v in range(top + 1):
            assert filter_count_three_vars(d, v) == sizes.get(v, 0)

    def test_totals_double(self):
        for d in range(1, 9):
            top = (d + 1) * (d + 2) // 2
            assert sum(filter_count_three_vars(d, v) for v in range(top + 1)) == 2 ** (d + 1)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            filter_count_three_vars(0, 0)


class TestWeightedWalks:
    def test_full_region_row(self):
        assert [weighted_walk_count(1, 0, 3, w) for w in range(4)] == [1, 2, 1, 1]

    def test_base_rows(self):
        assert weighted_walk_count(3, 2, 0, 2) == 1
        assert weighted_walk_count(3, 2, 0, 1) == 0
        assert [weighted_walk_count(3, 1, 1, w) for w in range(5)] == [1, 1, 1, 1, 0]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            weighted_walk_count(2, 3, 2, 0)
        with pytest.raises(ValueError):
            weighted_walk_count(2, -1, 2, 0)

    @pytest.mark.parametrize("e", [0, 1, 2, 3])
    def test_total_over_weights_is_catalan(self, e):
        top = (e + 1) * (e + 2) // 2
        total = sum(weighted_walk_count(e, 0, e + 2, w) for w in range(top + 1))
        assert total == catalan(e + 2)

    @pytest.mark.parametrize("e", [0, 1, 2, 3])
    def test_weights_count_staircase_filters(self, e):
        h = build_hasse(PosetId.parse(f"D[n=2,d={e}]"))
        top = (e + 1) * (e + 2) // 2
        for w in range(top + 1):
            assert weighted_walk_count(e, 0, e + 2, w) == count_filters(h, w)


@lru_cache(maxsize=None)
def recursive_walk_count(d, a, b, w):
    """The memoised recursion weighted_walk_count replaced: a walk from
    (a, b), b >= 2, runs right to a column j >= a and steps down there."""
    if d < 0 or a < 0 or b < 0 or a + b > d + 2:
        raise ValueError("walk endpoint out of range")
    if b == 0:
        return 1 if w == d - a + 1 else 0
    if b == 1:
        return 1 if 0 <= w <= d + 1 - a else 0
    return sum(
        recursive_walk_count(d, j, b - 1, w + j + b - d - 2)
        for j in range(a, d + 2 - b + 1)
    )


def recursive_stable_counts(d):
    """stable_filter_counts over recursive_walk_count, as it was written."""
    if d == 0:
        return 2, (1, 1)
    gg = [1, 1, 1, 1]
    for e in range(2, d + 1):
        size = (e + 1) * (e + 2) // 2
        gg = [
            (gg[v] if v < len(gg) else 0)
            + (recursive_walk_count(e - 1, 0, e + 1, v - e - 1) if v > e else 0)
            for v in range(size + 1)
        ]
    return sum(gg), tuple(gg)


class TestWalkTable:
    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_the_recursion(self, data):
        d = data.draw(st.integers(min_value=0, max_value=9))
        b = data.draw(st.integers(min_value=0, max_value=d + 2))
        a = data.draw(st.integers(min_value=0, max_value=d + 2 - b))
        top = (d + 2) * (d + 3) // 2
        for w in range(-3, top + 3):
            assert weighted_walk_count(d, a, b, w) == recursive_walk_count(d, a, b, w)

    @settings(max_examples=20, deadline=None, database=None)
    @given(d=st.integers(min_value=0, max_value=9))
    def test_stable_counts_match_the_recursion(self, d):
        assert stable_filter_counts(d) == recursive_stable_counts(d)


def closed_form_cases():
    """(poset, max_degree) of every kind closed_form_counts covers, at small
    random sizes: chains, A and C of sides 2 and 3 and their conjugates,
    D[n=2], B[n=3], and glued A, C and D."""
    small = st.integers(min_value=0, max_value=7)
    fixed = st.one_of(
        st.builds(lambda f, n, d: (f, n, d), st.sampled_from("ABC"), st.integers(1, 2), small),
        st.builds(lambda f, n, d: (f, n, d), st.sampled_from("ABC"), st.integers(1, 9),
                  st.integers(0, 1)),
        st.builds(lambda f, d: (f, 3, d), st.sampled_from("AC"), st.integers(2, 6)),
        st.builds(lambda f, n: (f, n, 2), st.sampled_from("AC"), st.integers(3, 7)),
        st.builds(lambda n, d: ("D", n, d), st.integers(1, 2), small),
        st.builds(lambda n: ("D", n, 0), st.integers(1, 6)),
        st.builds(lambda d: ("B", 3, d), st.integers(0, 6)),
        st.builds(lambda f, d: (f, 4, d), st.sampled_from("AC"), st.integers(3, 6)),
        st.builds(lambda f, n: (f, n, 3), st.sampled_from("AC"), st.integers(5, 7)),
    )
    glued = st.one_of(
        st.builds(lambda n, d: (PosetId(Family.DIVISIBILITY, n), d),
                  st.integers(1, 2), st.integers(-1, 7)),
        st.builds(lambda f, n, d: (PosetId(Family(f), n), d),
                  st.sampled_from("AC"), st.integers(1, 3), st.integers(-1, 6)),
        st.builds(lambda f, d: (PosetId(Family(f), 4), d), st.sampled_from("AC"), st.integers(-1, 3)),
    )
    return st.one_of(
        fixed.map(lambda t: (PosetId(Family(t[0]), t[1], t[2]), None)), glued
    )


class TestClosedFormCounts:
    @fixed_seed(20262)
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        family=st.sampled_from("ABCD"),
        nvars=st.integers(min_value=1, max_value=5),
        degree=st.integers(min_value=-1, max_value=7),
        glued=st.booleans(),
    )
    def test_profile_cut_at_every_top(self, family, nvars, degree, glued):
        # past half the vertices, A and C read their series mirrored
        assume(glued or degree >= 0)
        if glued:
            poset, max_degree = PosetId.parse(f"{family}[n={nvars}]"), degree
        else:
            poset, max_degree = PosetId.parse(f"{family}[n={nvars},d={degree}]"), None
        h = build_hasse(poset, max_degree=max_degree)
        assume(len(h) <= 40)
        profile = filter_counts_by_size(h)
        for top in range(len(h) + 1):
            assert filter_counts_by_size(h, top) == profile[:top + 1]
            assert closed_form_counts(poset, max_degree, top) in (None, profile[:top + 1])

    @settings(max_examples=40, deadline=None, database=None)
    @given(d=st.integers(min_value=0, max_value=600))
    def test_stable_total_is_the_catalan_sum(self, d):
        assert closed_form_counts(PosetId(Family.STABLE, 3, d)) == sum(map(catalan, range(d + 2)))

    @settings(max_examples=150, deadline=None, database=None)
    @given(case=closed_form_cases())
    def test_matches_the_sweep(self, case):
        poset, max_degree = case
        profile = filter_counts_by_size(build_hasse(poset, max_degree=max_degree))
        assert closed_form_counts(poset, max_degree) == sum(profile)
        # every poset with a closed-form total has its counts by size too
        assert closed_form_counts(poset, max_degree, len(profile) - 1) == profile

    @pytest.mark.parametrize(
        "poset_text, max_degree",
        [("A[n=4,d=3]", None), ("C[n=4,d=3]", None), ("B[n=4,d=2]", None),
         ("B[n=3,d=2]", None), ("D[n=3,d=2]", None), ("A[n=2]", 3), ("B[n=3]", 3),
         ("C[n=2]", 3), ("D", 3), ("A[n=3]", None)],
    )
    def test_others_are_left_to_the_sweep(self, poset_text, max_degree):
        poset = PosetId.parse(poset_text)
        by_size = closed_form_counts(poset, max_degree, 20)  # no vertex count here passes 20
        if poset_text == "B[n=3,d=2]":
            # the first stable order past its chain: the layer table counts it
            assert by_size == (1, 1, 1, 2, 2, 1, 1) and closed_form_counts(poset) == 9
        elif poset_text in ("A[n=4,d=3]", "C[n=4,d=3]", "A[n=2]", "C[n=2]"):
            # side 3 is TSPP(4), and glued A or C[n=2] to degree 3 is A[n=3,d=3]
            profile = filter_counts_by_size(build_hasse(poset, max_degree=max_degree))
            assert by_size == profile and closed_form_counts(poset, max_degree) == sum(profile)
            assert sum(profile) == (66 if "d=3" in poset_text else 16)
        else:
            assert by_size is None and closed_form_counts(poset, max_degree) is None

    @pytest.mark.parametrize(
        "poset_text, max_degree",
        [*((f"D[n=2,d={d}]", None) for d in range(13)),
         *(("D[n=2]", d) for d in range(-1, 13)),
         *((f"B[n=3,d={d}]", None) for d in range(12))],
    )
    def test_layer_tables_are_the_size_profiles(self, poset_text, max_degree):
        poset = PosetId.parse(poset_text)
        profile = filter_counts_by_size(build_hasse(poset, max_degree=max_degree))
        assert closed_form_counts(poset, max_degree, len(profile) - 1) == profile

    @pytest.mark.parametrize("d", range(9))
    def test_table_charge_is_exact(self, monkeypatch, d):
        # every row of the walk table of each degree the profile builds, each
        # entry cut at weight top; D[n=2,d] and B[n=3,d] have (d+1)(d+2)/2
        # vertices, and are chains, with no table, below degrees 1 and 2
        def rows(e, top):
            return sum(len(entry) for b in range(1, e + 3) for entry in filters._walk_weights(e, b, top))

        for top in range((d + 1) * (d + 2) // 2 + 1):
            assert filters._table_entries(d + 2, top + 1) == rows(d, top)
            stable = sum(rows(e, top - e - 2) for e in range(min(d, top - 1)))
            for text, entries in ((f"D[n=2,d={d}]", rows(d, top)), (f"B[n=3,d={d}]", stable)):
                if d < (1 if text[0] == "D" else 2):
                    continue
                monkeypatch.setattr(filters, "TABLE_BUDGET", entries)
                assert closed_form_counts(PosetId.parse(text), top=top)
                monkeypatch.setattr(filters, "TABLE_BUDGET", entries - 1)
                with pytest.raises(ValueError, match=f"table of {entries} entries"):
                    closed_form_counts(PosetId.parse(text), top=top)

    def test_table_budget(self, monkeypatch):
        # the walk tables of D[n=2,d=5] hold 280 entries, those of B[n=3,d=5]
        # 307; both posets have 21 vertices
        monkeypatch.setattr(filters, "TABLE_BUDGET", 307)
        assert sum(closed_form_counts(PosetId.parse("B[n=3,d=5]"), top=21)) == 197
        assert sum(closed_form_counts(PosetId.parse("D[n=2]"), 5, 21)) == catalan(7)
        monkeypatch.setattr(filters, "TABLE_BUDGET", 279)
        for poset, max_degree, entries in (("B[n=3,d=5]", None, 307), ("D[n=2,d=5]", None, 280),
                                           ("D[n=2]", 5, 280)):
            with pytest.raises(ValueError) as excinfo:
                closed_form_counts(PosetId.parse(poset), max_degree, 21)
            assert str(excinfo.value) == (f"counting by size at degree 5 needs a walk table of "
                                          f"{entries} entries, over the budget of 279")
        # the totals build no table
        assert closed_form_counts(PosetId.parse("B[n=3,d=5]")) == 197

    @pytest.mark.parametrize(
        "poset_text, max_degree",
        [*((f"A[n=4,d={d}]", None) for d in range(8)),
         *((f"C[n=4,d={d}]", None) for d in range(7)),
         *((f"A[n={n},d=3]", None) for n in range(1, 9)),
         *((f"C[n={n},d=3]", None) for n in range(1, 8)),
         *((f"{f}[n={n}]", d) for f in "AC" for n in range(1, 5) for d in range(-1, 12)
           if d <= (11, 11, 9, 3)[n - 1])],
    )
    def test_side_three_and_glued_are_the_size_profiles(self, poset_text, max_degree):
        poset = PosetId.parse(poset_text)
        profile = filter_counts_by_size(build_hasse(poset, max_degree=max_degree))
        assert closed_form_counts(poset, max_degree) == sum(profile)
        assert closed_form_counts(poset, max_degree, len(profile) - 1) == profile

    def test_side_three_is_stembridges_product(self):
        expected = Fraction(1)
        for side in range(1, 31):
            # the triples i <= j <= k = side join those of side - 1
            for i in range(1, side + 1):
                for j in range(i, side + 1):
                    expected *= Fraction(i + j + side - 1, i + j + side - 2)
            assert closed_form_counts(PosetId.parse(f"A[n=4,d={side - 1}]")) == expected
            assert closed_form_counts(PosetId.parse("C[n=3]"), side - 1) == expected
            if side >= 4:
                assert closed_form_counts(PosetId.parse(f"C[n={side},d=3]")) == expected

    @pytest.mark.parametrize("length", range(3, 9))
    def test_product_charges_are_exact(self, monkeypatch, length):
        # side 2: the lists of the product of 1 + q^i built for i = 1 ..
        # length+1, each cut after half the (length+1)(length+2)/2 vertices
        half = (length + 1) * (length + 2) // 4
        two = sum(min(i * (i + 1) // 2, half) + 1 for i in range(1, length + 2))
        # side 3: one pass over the half series per unit of each net exponent
        # of a factor 1 - q^t with t inside the half
        sums = Counter(map(sum, combinations_with_replacement(range(1, length + 2), 3)))
        half = comb(length + 3, 3) // 2
        passes = sum(abs(sums[t + 1] - sums[t + 2]) for t in range(1, min(3 * length + 3, half + 1)))
        three = passes * (half + 1)
        for text, side, entries in ((f"A[n=3,d={length}]", 2, two), (f"C[n=4,d={length}]", 3, three)):
            poset = PosetId.parse(text)
            h = build_hasse(poset)
            monkeypatch.setattr(filters, "TABLE_BUDGET", entries)
            profile = closed_form_counts(poset, top=len(h))
            assert profile == filter_counts_by_size(h)
            monkeypatch.setattr(filters, "TABLE_BUDGET", entries - 1)
            with pytest.raises(ValueError) as excinfo:
                closed_form_counts(poset, top=len(h))
            assert str(excinfo.value) == (f"counting by size on a {side} x {length} box needs a "
                                          f"product table of {entries} entries, over the budget "
                                          f"of {entries - 1}")
            # the totals build no table
            monkeypatch.setattr(filters, "TABLE_BUDGET", 0)
            assert closed_form_counts(poset) == sum(profile)

    def test_large_sides(self):
        assert closed_form_counts(PosetId.parse("A[n=3,d=300]")) == 2**301
        assert closed_form_counts(PosetId.parse("C[n=301,d=2]")) == 2**301
        assert closed_form_counts(PosetId.parse("D[n=2,d=300]")) == catalan(302)
        assert closed_form_counts(PosetId.parse("B[n=3,d=300]")) == sum(map(catalan, range(302)))
        assert closed_form_counts(PosetId.parse("A[n=20000,d=1]")) == 20001
        profile = closed_form_counts(PosetId.parse("A[n=300,d=2]"), top=300 * 301 // 2)
        assert len(profile) == 300 * 301 // 2 + 1 and sum(profile) == 2**300
        assert profile == profile[::-1] and profile[:8] == (1, 1, 1, 2, 2, 3, 4, 5)
        # side 3 at the vertex cap: C(67, 3) = 47,905 vertices
        assert closed_form_counts(PosetId.parse("A[n=65,d=3]")) == closed_form_counts(
            PosetId.parse("C[n=64]"), 3) == closed_form_counts(PosetId.parse("C[n=4,d=64]"))
        profile = closed_form_counts(PosetId.parse("A[n=3]"), 40, comb(43, 3))
        assert len(profile) == comb(43, 3) + 1 and sum(profile) == closed_form_counts(
            PosetId.parse("A[n=41,d=3]"))
        assert profile == profile[::-1] and profile[:8] == (1, 1, 1, 2, 3, 4, 6, 9)


class TestSweepOnLargePosets:
    """The sizes the CLI now counts in closed form, kept on the sweep."""

    @pytest.mark.parametrize(
        "poset_text, expected",
        [
            ("A[n=3,d=45]", 2**46),
            ("A[n=2,d=1500]", 1502),
            ("A[n=3,d=30]", 2**31),
            ("A[n=1200,d=1]", 1201),
        ],
    )
    def test_count_filters(self, poset_text, expected):
        assert count_filters(build_hasse(PosetId.parse(poset_text))) == expected


class TestStableCounts:
    def test_small_profiles(self):
        assert stable_filter_counts(0) == (2, (1, 1))
        assert stable_filter_counts(1) == (4, (1, 1, 1, 1))
        assert stable_filter_counts(2) == (9, (1, 1, 1, 2, 2, 1, 1))

    @pytest.mark.parametrize("d", range(7))
    def test_totals_are_catalan_partial_sums(self, d):
        total, by_size = stable_filter_counts(d)
        assert total == sum(catalan(i) for i in range(d + 2))
        assert sum(by_size) == total

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_matches_enumeration(self, d):
        h = build_hasse(PosetId.parse(f"B[n=3,d={d}]"))
        histogram = Counter(len(f) for f in enumerate_filters(h))
        _, by_size = stable_filter_counts(d)
        assert list(by_size) == [histogram.get(v, 0) for v in range(len(by_size))]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            stable_filter_counts(-1)


class TestIdeals:
    def test_minimal_generators(self):
        gens = [M("x1^2"), M("x1^2*x2"), M("x2*x3"), M("x1^2")]
        assert minimal_generators(gens) == (M("x2*x3"), M("x1^2"))

    def test_ideal_contains(self):
        gens = (M("x2*x3"), M("x1^2"))
        assert ideal_contains(gens, M("x1^2*x3"))
        assert ideal_contains(gens, M("x2*x3^4"))
        assert not ideal_contains(gens, M("x1*x3"))
        assert not ideal_contains(gens, ONE)

    def test_borel_closure(self):
        closed = borel_closure([M("x2*x3")])
        assert closed == (M("x2*x3"), M("x2^2"), M("x1*x3"), M("x1*x2"), M("x1^2"))
        assert is_borel_ideal(closed)
        assert not is_borel_ideal([M("x2*x3")])

    def test_stable_closure(self):
        assert stable_closure([M("x2^2")]) == (M("x2^2"), M("x1*x2"), M("x1^2"))
        assert is_stable_ideal([M("x2^2"), M("x1*x2"), M("x1^2")])
        assert not is_stable_ideal([M("x2^2")])

    def test_stable_closure_is_smaller(self):
        gens = [M("x2*x3")]
        assert set(stable_closure(gens)) < set(borel_closure(gens))

    def test_closed_generators_give_degreewise_filters(self):
        gens = borel_closure([M("x2*x3")])
        for d in (2, 3, 4):
            poset = PosetId.parse(f"A[n=3,d={d}]")
            slice_ = frozenset(
                m for m in ground_monomials(poset) if ideal_contains(gens, m)
            )
            assert is_filter(slice_, poset)
        open_slice = frozenset(
            m
            for m in ground_monomials(PosetId.parse("A[n=3,d=3]"))
            if ideal_contains([M("x2*x3")], m)
        )
        assert not is_filter(open_slice, PosetId.parse("A[n=3,d=3]"))

    def test_closure_is_idempotent_and_contains_input(self):
        rng = random.Random(11)
        pool = ground_monomials(PosetId.parse("D[n=3,d=3]"))
        for _ in range(25):
            gens = [rng.choice(pool) for _ in range(3)]
            for close in (borel_closure, stable_closure):
                closed = close(gens)
                assert close(closed) == closed
                assert all(ideal_contains(closed, g) for g in gens)


    @fixed_seed(7)
    @settings(max_examples=200, deadline=None, database=None)
    @given(gens=generator_sets)
    def test_cover_moves_match_full_moves(self, gens):
        for close, is_closed, moves_up in (
            (borel_closure, is_borel_ideal, borel_moves_up),
            (stable_closure, is_stable_ideal, stable_moves_up),
        ):
            closed = close(gens)
            assert closed == full_move_closure(gens, moves_up)
            assert is_closed(gens) == full_move_test(gens, moves_up)
            assert is_closed(closed) and full_move_test(closed, moves_up)


def test_star_import():
    namespace = {}
    exec("from stableorders.filters import *", namespace)
    assert {"count_filters", "filter_counts_by_size"} <= namespace.keys()
    exec("from stableorders.verify import *", namespace)
    assert "pivot_filter_counts" in namespace
