"""Tests for Hasse diagrams, meets and joins, and rank statistics."""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from stableorders import lattice
from stableorders.lattice import (
    CapExceededError,
    HasseDiagram,
    NotLatticeError,
    _build,
    _linear_order,
    build_hasse,
    join,
    meet,
)
from stableorders.monomials import Monomial, monomials_up_to_degree
from stableorders.orders import (
    Family,
    GroundSetError,
    PosetId,
    ground_monomials,
    leq,
    relation,
)
from stableorders.verify import (
    NotGradedError,
    _meet_join_tables,
    check_distributive,
    diagram_leq,
    down_masks,
    find_n5,
    gaussian,
    height_width,
    rank_sizes,
    reachability_oracle,
)

M = Monomial.parse


def local_covers(poset):
    """Independent transitive reduction straight from the comparability test."""
    vertices = ground_monomials(poset)
    strict = {
        (i, j)
        for i, j in product(range(len(vertices)), repeat=2)
        if i != j and leq(poset, vertices[i], vertices[j])
    }
    return sorted(
        (i, j)
        for i, j in strict
        if not any((i, k) in strict and (k, j) in strict for k in range(len(vertices)))
    )


def oracle_covers(poset, vertices):
    """Transitive reduction of move reachability (brute-force search)."""
    above = [
        {j for j, v in enumerate(vertices) if v != u and reachability_oracle(poset, u, v)}
        for u in vertices
    ]
    return sorted(
        (i, j)
        for i, uppers in enumerate(above)
        for j in uppers
        if not any(j in above[k] for k in uppers)
    )


def local_bounds(h, i, j, want_join):
    """Unique minimal upper / maximal lower bound by exhaustive scan, or None."""
    up = h.up_masks()

    def beyond(a, b):
        # b lies above a for a join, below it for a meet
        return bool((up[a] >> b if want_join else up[b] >> a) & 1)

    candidates = [k for k in range(len(h)) if beyond(i, k) and beyond(j, k)]
    extremal = [k for k in candidates if all(beyond(k, other) for other in candidates)]
    return extremal[0] if len(extremal) == 1 else None


class TestBuildHasse:
    def test_borel_three_vars_degree_two(self):
        h = build_hasse(PosetId.parse("A[n=3,d=2]"))
        assert [str(m) for m in h.vertices] == [
            "x3^2", "x2*x3", "x2^2", "x1*x3", "x1*x2", "x1^2",
        ]
        assert h.covers == ((0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5))

    @pytest.mark.parametrize(
        "poset_text",
        ["A[n=3,d=2]", "A[n=3,d=3]", "A[n=2,d=4]", "B[n=3,d=2]", "B[n=3,d=3]",
         "C[n=3,d=2]", "D[n=2,d=2]", "D[n=3,d=2]"],
    )
    def test_covers_match_local_transitive_reduction(self, poset_text):
        poset = PosetId.parse(poset_text)
        assert sorted(build_hasse(poset).covers) == local_covers(poset)

    @pytest.mark.parametrize(
        ("poset_text", "max_degree"),
        [("B[n=3,d=4]", None), ("B[n=4,d=3]", None), ("B[n=3,d=6]", None),
         ("A[n=3]", 4), ("B[n=2]", 6), ("B[n=3]", 4), ("C[n=3]", 4), ("D[n=3]", 3),
         # one case per closed form of the covers (orders._generating_moves)
         ("A[n=4,d=3]", None), ("C[n=4,d=3]", None), ("D[n=3,d=3]", None),
         ("B[n=6,d=2]", None), ("B[n=4,d=5]", None), ("B[n=8,d=1]", None),
         ("A[n=4]", 3), ("B[n=4]", 3), ("C[n=4]", 3)],
    )
    def test_covers_match_oracle_reduction(self, poset_text, max_degree):
        poset = PosetId.parse(poset_text)
        h = build_hasse(poset, max_degree=max_degree)
        assert list(h.covers) == oracle_covers(poset, h.vertices)

    def test_truncated_glued_divisibility_matches_staircase(self):
        truncated = build_hasse(PosetId.parse("D[n=2]"), max_degree=2)
        staircase = build_hasse(PosetId.parse("D[n=2,d=2]"))
        assert truncated.vertices == staircase.vertices
        assert sorted(truncated.covers) == sorted(staircase.covers)

    def test_truncated_glued_borel(self):
        h = build_hasse(PosetId.parse("A[n=2]"), max_degree=2)
        names = [str(m) for m in h.vertices]
        assert names == ["1", "x2", "x1", "x2^2", "x1*x2", "x1^2"]
        assert sorted(h.covers) == [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]

    def test_diagram_leq_matches_order(self):
        cases = [("B[n=3,d=3]", None), ("A[n=3,d=3]", None), ("C[n=3,d=3]", None),
                 ("D[n=3,d=2]", None), ("A[n=3]", 3), ("B[n=3]", 3), ("C[n=3]", 3)]
        for poset_text, max_degree in cases:
            poset = PosetId.parse(poset_text)
            h = build_hasse(poset, max_degree=max_degree)
            up, down = h.up_masks(), down_masks(h)
            for (i, m), (j, mp) in product(enumerate(h.vertices), repeat=2):
                assert bool(up[i] >> j & 1) == leq(poset, m, mp)
                assert down[j] >> i & 1 == up[i] >> j & 1
            m, mp = h.vertices[0], h.vertices[-1]
            assert diagram_leq(h, m, mp) == leq(poset, m, mp)

    @pytest.mark.parametrize("family", "ABCD")
    def test_every_cover_rises_in_linear_order(self, family):
        # glued C[n=3] and C[n=4] to degree 4 are in the grid: their covers
        # run both ways in index order, so that order would not do
        for n, d in product(range(1, 5), range(5)):
            fixed = build_hasse(PosetId.parse(f"{family}[n={n},d={d}]"))
            glued = build_hasse(PosetId.parse(f"{family}[n={n}]"), max_degree=d)
            for h in (fixed, glued):
                position = [0] * len(h)
                for t, v in enumerate(_linear_order(h)):
                    position[v] = t
                assert sorted(position) == list(range(len(h)))
                assert all(position[lo] < position[hi] for lo, hi in h.covers)

    @seed(20261021)
    @settings(max_examples=120, deadline=None, database=None)
    @given(
        family=st.sampled_from("ABCD"),
        nvars=st.integers(min_value=1, max_value=5),
        degree=st.integers(min_value=0, max_value=6),
        glued=st.booleans(),
    )
    def test_down_masks_are_the_up_masks_transposed(self, family, nvars, degree, glued):
        # both fills run in _linear_order, one down it and one along it
        poset, max_degree = poset_of(family, nvars, degree, glued)
        h = build_hasse(poset, max_degree=max_degree)
        transposed = [0] * len(h)
        for i, up in enumerate(h.up_masks()):
            for j in range(len(h)):
                transposed[j] |= (up >> j & 1) << i
        assert down_masks(h) == tuple(transposed)

    def test_minimal_and_maximal(self):
        h = build_hasse(PosetId.parse("A[n=3,d=2]"))
        full = (1 << len(h)) - 1
        assert h.up_masks()[h.vertices.index(M("x3^2"))] == full
        assert down_masks(h)[h.vertices.index(M("x1^2"))] == full
        d = build_hasse(PosetId.parse("D[n=2,d=1]"))
        assert d.up_masks()[d.vertices.index(Monomial(()))] == (1 << len(d)) - 1
        # two maximal vertices: each is below only itself
        for top in (M("x1"), M("x2")):
            i = d.vertices.index(top)
            assert d.up_masks()[i] == 1 << i

    def test_cap(self):
        with pytest.raises(CapExceededError):
            build_hasse(PosetId.parse("A[n=3,d=9]"), cap=10)

    @pytest.mark.parametrize(
        "text, max_degree",
        [("A[n=3,d=4]", None), ("B[n=4,d=3]", None), ("C[n=1,d=5]", None),
         ("D[n=3,d=2]", None), ("D[n=2,d=0]", None), ("A[n=3]", 3), ("B[n=2]", 0),
         ("D[n=4]", 2), ("C[n=3]", -1)],
    )
    def test_cap_names_the_vertex_count(self, text, max_degree):
        poset = PosetId.parse(text)
        size = len(build_hasse(poset, max_degree=max_degree))
        assert len(build_hasse(poset, cap=size, max_degree=max_degree)) == size
        with pytest.raises(CapExceededError) as excinfo:
            build_hasse(poset, cap=size - 1, max_degree=max_degree)
        assert str(excinfo.value) == f"{size} vertices exceed the cap of {size - 1}"

    def test_cap_refuses_before_listing(self, monkeypatch):
        import stableorders.lattice as lattice

        def no_listing(*args):
            raise AssertionError("the ground set was listed")

        monkeypatch.setattr(lattice, "ground_monomials", no_listing)
        monkeypatch.setattr(lattice, "monomials_up_to_degree", no_listing)
        cases = [
            ("A[n=30,d=10]", None, 50_000, "635745396 vertices"),  # comb(39, 10)
            ("D[n=30,d=10]", None, 50_000, "847660528 vertices"),  # comb(40, 10)
            ("B[n=4]", 100, 50_000, "4598126 vertices"),  # comb(104, 4)
            ("A[n=6,d=6]", None, 10, "462 vertices"),  # exact under a small cap too
            ("A[n=1000000,d=1000000]", None, 50_000, "at least 2**999999 vertices"),
        ]
        for text, max_degree, cap, count in cases:
            with pytest.raises(CapExceededError) as excinfo:
                build_hasse(PosetId.parse(text), cap=cap, max_degree=max_degree)
            assert str(excinfo.value) == f"{count} exceed the cap of {cap}"

    def test_unbounded_needs_truncation(self):
        with pytest.raises(ValueError):
            build_hasse(PosetId.parse("A[*,d=2]"))
        with pytest.raises(ValueError):
            build_hasse(PosetId.parse("A[n=2]"))


def poset_of(family, nvars, degree, glued):
    """(poset, max_degree): family's poset on nvars variables, of degree
    `degree`, or glued and truncated there."""
    if glued:
        return PosetId.parse(f"{family}[n={nvars}]"), degree
    return PosetId.parse(f"{family}[n={nvars},d={degree}]"), None


@pytest.fixture
def empty_cache(monkeypatch):
    """build_hasse with nothing held, and what it holds after the test dropped."""
    monkeypatch.setattr(lattice, "_built", {})
    monkeypatch.setattr(lattice, "_held", [0, 0])


def assert_held_within(vertex_cap, slot_budget):
    """The held diagrams are within both budgets, and _held adds them up."""
    held = list(lattice._built.values())
    vertices = sum(len(h) for h in held)
    slots = sum(len(h) * h.poset.nvars for h in held)
    assert lattice._held == [vertices, slots]
    assert vertices <= vertex_cap and slots <= slot_budget


class TestDiagramCache:
    @seed(20261020)
    @settings(max_examples=120, deadline=None, database=None)
    @given(
        family=st.sampled_from("ABCD"),
        nvars=st.integers(min_value=1, max_value=5),
        degree=st.integers(min_value=0, max_value=6),
        glued=st.booleans(),
        fill_first=st.booleans(),
    )
    def test_held_diagram_equals_a_fresh_build(self, family, nvars, degree, glued, fill_first):
        poset, max_degree = poset_of(family, nvars, degree, glued)
        try:
            h = build_hasse(poset, max_degree=max_degree)
        except CapExceededError:
            return
        if fill_first:
            h.up_masks()
            h.names()
        again = build_hasse(poset, max_degree=max_degree)
        fresh = _build(poset, max_degree)
        assert again is h and fresh is not h
        assert (again.vertices, again.covers) == (fresh.vertices, fresh.covers)
        assert again.up_masks() == fresh.up_masks()
        assert again.names() == fresh.names() == tuple(map(str, fresh.vertices))
        assert build_hasse(poset, max_degree=max_degree).names() is again.names()
        # the fill's order is a linear extension: the masks are the order's
        for (i, m), (j, mp) in product(enumerate(fresh.vertices), repeat=2):
            assert bool(fresh.up_masks()[i] >> j & 1) == leq(poset, m, mp)

    def test_refusals_come_before_the_lookup(self, monkeypatch):
        poset = PosetId.parse("A[n=3,d=3]")
        h = build_hasse(poset)
        assert build_hasse(poset, cap=10) is h
        with pytest.raises(CapExceededError) as excinfo:
            build_hasse(poset, cap=9)
        assert str(excinfo.value) == "10 vertices exceed the cap of 9"
        monkeypatch.setattr(lattice, "SLOT_BUDGET", 29)
        with pytest.raises(ValueError) as excinfo:
            build_hasse(poset)
        assert str(excinfo.value) == "10 vertices of up to 3 exponent slots exceed the budget of 29 slots"

    def test_least_recently_used_goes_first(self, empty_cache, monkeypatch):
        monkeypatch.setattr(lattice, "VERTEX_CAP", 20)
        a, b = PosetId.parse("A[n=3,d=3]"), PosetId.parse("D[n=2,d=2]")  # 10 and 6 vertices
        ha, hb = build_hasse(a), build_hasse(b)
        assert build_hasse(a) is ha  # a is now the more recent
        build_hasse(PosetId.parse("B[n=3,d=2]"))  # 6 more: 22 > 20, so b goes
        assert list(lattice._built) == [(a, None), (PosetId.parse("B[n=3,d=2]"), None)]
        assert build_hasse(a) is ha and build_hasse(b) is not hb
        assert_held_within(20, lattice.SLOT_BUDGET)

    def test_names_are_held_and_dropped_with_their_diagram(self, empty_cache, monkeypatch):
        monkeypatch.setattr(lattice, "VERTEX_CAP", 20)
        a, b = PosetId.parse("A[n=3,d=3]"), PosetId.parse("D[n=2,d=2]")  # 10 and 6 vertices
        names = build_hasse(a).names()
        assert names == tuple(map(str, build_hasse(a).vertices))
        assert build_hasse(b).names() is not names and build_hasse(a).names() is names
        build_hasse(PosetId.parse("B[n=3,d=2]"))  # 6 more: 22 > 20, so b goes
        build_hasse(PosetId.parse("C[n=3,d=2]"))  # and 6 more: a goes
        assert (a, None) not in lattice._built
        assert all(h.names() is not names for h in lattice._built.values())
        again = build_hasse(a).names()
        assert again == names and again is not names

    def test_slots_bound_what_is_held(self, empty_cache, monkeypatch):
        monkeypatch.setattr(lattice, "SLOT_BUDGET", 40)
        wide, narrow = PosetId.parse("A[n=4,d=2]"), PosetId.parse("A[n=2,d=3]")  # 40 and 8 slots
        hw = build_hasse(wide)
        build_hasse(narrow)
        assert list(lattice._built) == [(narrow, None)]
        assert build_hasse(wide) is not hw
        assert_held_within(lattice.VERTEX_CAP, 40)

    def test_a_diagram_past_the_vertex_cap_is_not_held(self, empty_cache, monkeypatch):
        monkeypatch.setattr(lattice, "VERTEX_CAP", 9)
        small, large = PosetId.parse("D[n=2,d=2]"), PosetId.parse("A[n=3,d=3]")  # 6 and 10
        hs = build_hasse(small)
        hl = build_hasse(large, cap=10)
        assert build_hasse(large, cap=10) is not hl
        assert build_hasse(small) is hs and list(lattice._built) == [(small, None)]
        assert_held_within(9, lattice.SLOT_BUDGET)

    def test_a_fixed_degree_poset_is_held_once_whatever_its_max_degree(self, empty_cache):
        # a fixed-degree poset ignores max_degree, so every max_degree asks
        # for the one diagram, held and charged once
        poset = PosetId.parse("A[n=3,d=4]")  # 15 vertices of 3 slots
        h = build_hasse(poset)
        assert build_hasse(poset, max_degree=7) is h and build_hasse(poset, max_degree=2) is h
        assert list(lattice._built) == [(poset, None)] and lattice._held == [15, 45]

    def test_an_empty_diagram_is_not_held(self, empty_cache):
        poset = PosetId.parse("C[n=3]")
        assert len(build_hasse(poset, max_degree=-1)) == 0
        assert lattice._built == {} and lattice._held == [0, 0]

    @seed(20261021)
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        calls=st.lists(
            st.tuples(st.sampled_from("ABCD"), st.integers(min_value=1, max_value=4),
                      st.integers(min_value=0, max_value=5), st.booleans()),
            min_size=1, max_size=25),
        vertex_cap=st.integers(min_value=1, max_value=80),
        slot_budget=st.integers(min_value=4, max_value=240),
    )
    def test_budgets_hold_over_any_calls(self, calls, vertex_cap, slot_budget):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lattice, "_built", {})
            patch.setattr(lattice, "_held", [0, 0])
            patch.setattr(lattice, "VERTEX_CAP", vertex_cap)
            patch.setattr(lattice, "SLOT_BUDGET", slot_budget)
            for family, nvars, degree, glued in calls:
                poset, max_degree = poset_of(family, nvars, degree, glued)
                try:
                    h = build_hasse(poset, cap=200, max_degree=max_degree)
                except (CapExceededError, ValueError):
                    continue
                fresh = _build(poset, max_degree)
                assert (h.vertices, h.covers) == (fresh.vertices, fresh.covers)
                assert_held_within(vertex_cap, slot_budget)
                held = (poset, max_degree) in lattice._built
                assert held == (0 < len(h) <= vertex_cap)
                if held:
                    assert list(lattice._built)[-1] == (poset, max_degree)


class TestMeetJoin:
    def test_borel_examples(self):
        a = PosetId.parse("A[n=3,d=2]")
        assert meet(a, M("x1*x3"), M("x2^2")) == M("x2*x3")
        assert join(a, M("x1*x3"), M("x2^2")) == M("x1*x2")

    def test_stable_examples(self):
        b = PosetId.parse("B[n=3,d=2]")
        assert meet(b, M("x1*x3"), M("x2^2")) == M("x3^2")
        assert join(b, M("x1*x3"), M("x2^2")) == M("x1*x2")
        # regression: when one side is comparable to the other, the meet is
        # the smaller side, not merely some monomial divisible by x3
        assert meet(b, M("x1^2"), M("x2*x3")) == M("x2*x3")
        assert join(b, M("x1^2"), M("x2*x3")) == M("x1^2")

    def test_divisibility(self):
        d = PosetId.parse("D[n=2,d=2]")
        assert meet(d, M("x1^2"), M("x1*x2")) == M("x1")
        assert join(d, M("x1"), M("x2")) == M("x1*x2")
        with pytest.raises(NotLatticeError):
            join(d, M("x1^2"), M("x2^2"))

    def test_dual(self):
        c = PosetId.parse("C[n=2,d=2]")
        assert meet(c, M("x1*x2"), M("x2^2")) == M("x1*x2")
        assert join(c, M("x1*x2"), M("x1^2")) == M("x1*x2")

    def test_ground_set_checks(self):
        with pytest.raises(GroundSetError):
            meet(PosetId.parse("A[n=3,d=2]"), M("x1"), M("x1*x2"))
        with pytest.raises(GroundSetError):
            meet(PosetId.parse("B[n=3,d=2]"), M("x1"), M("x2"))

    def test_stable_needs_fixed_degree(self):
        with pytest.raises(ValueError):
            meet(PosetId.parse("B[n=3]"), M("x2"), M("x2"))

    @pytest.mark.parametrize(
        "poset_text", ["A[n=3,d=3]", "B[n=3,d=3]", "C[n=3,d=2]", "D[n=2,d=2]"]
    )
    def test_meet_join_match_exhaustive_scan(self, poset_text):
        poset = PosetId.parse(poset_text)
        h = build_hasse(poset)
        index = {v: i for i, v in enumerate(h.vertices)}
        for i, j in combinations(range(len(h)), 2):
            m, mp = h.vertices[i], h.vertices[j]
            assert index[meet(poset, m, mp)] == local_bounds(h, i, j, want_join=False)
            expected_join = local_bounds(h, i, j, want_join=True)
            if expected_join is None:
                # the truncated divisibility staircase has pairs with no
                # common upper bound at all
                with pytest.raises(NotLatticeError):
                    join(poset, m, mp)
            else:
                assert index[join(poset, m, mp)] == expected_join

    @pytest.mark.parametrize(("n", "d"), [(3, 8), (4, 5), (5, 4), (6, 3), (4, 7)])
    def test_stable_meet_join_match_tables(self, n, d):
        poset = PosetId.parse(f"B[n={n},d={d}]")
        h = build_hasse(poset)
        meets, joins = _meet_join_tables(h)
        for i, m in enumerate(h.vertices):
            for j, mp in enumerate(h.vertices):
                assert meet(poset, m, mp) == h.vertices[meets[i][j]]
                assert join(poset, m, mp) == h.vertices[joins[i][j]]

    def test_meet_join_are_commutative_idempotent(self):
        poset = PosetId.parse("B[n=3,d=3]")
        pool = ground_monomials(poset)
        for m, mp in product(pool, repeat=2):
            assert meet(poset, m, mp) == meet(poset, mp, m)
            assert join(poset, m, mp) == join(poset, mp, m)
        for m in pool:
            assert meet(poset, m, m) == m
            assert join(poset, m, m) == m


@lru_cache(maxsize=None)
def stable_tables(poset):
    """_meet_join_tables of the poset's diagram, computed once per poset."""
    return _meet_join_tables(build_hasse(poset))


class TestStableSplit:
    """The stable case split runs down to one variable, with no case for the
    two-variable chain: half the pairs lie in x1 and x2 alone, where that
    case would answer."""

    @seed(20261022)
    @settings(max_examples=400, deadline=None, database=None)
    @given(
        nvars=st.integers(min_value=1, max_value=5),
        degree=st.integers(min_value=0, max_value=5),
        glued=st.booleans(),
        two=st.booleans(),
        data=st.data(),
    )
    def test_split_matches_the_oracles(self, nvars, degree, glued, two, data):
        if glued:  # glued B on at most 4 variables, up to degree 4
            nvars, degree = min(nvars, 4), min(degree, 4)
            poset, pool = PosetId(Family.STABLE, nvars), monomials_up_to_degree(nvars, degree)
        else:
            poset = PosetId(Family.STABLE, nvars, degree)
            pool = ground_monomials(poset)
        if two:
            pool = [m for m in pool if m.max_support() <= 2]
        m, mp = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool))
        assert leq(poset, m, mp) == reachability_oracle(poset, m, mp)
        if not glued:
            h = build_hasse(poset)
            meets, joins = stable_tables(poset)
            i, j = h.vertices.index(m), h.vertices.index(mp)
            assert meet(poset, m, mp) == h.vertices[meets[i][j]]
            assert join(poset, m, mp) == h.vertices[joins[i][j]]

    @pytest.mark.parametrize(("poset_text", "max_degree", "message"), [
        ("D[n=2,d=2]", None, "x2 and x1^2 lack a unique join"),
        ("D[n=3,d=2]", None, "x3 and x2^2 lack a unique join"),
        ("D[n=2]", 3, "x2 and x1^3 lack a unique join"),
    ])
    def test_tables_refuse_at_the_first_pair_without_a_bound(self, poset_text, max_degree, message):
        # the meet and the join of each pair are scanned before the next
        # pair's, so the first pair lacking either names the refusal
        h = build_hasse(PosetId.parse(poset_text), max_degree=max_degree)
        with pytest.raises(NotLatticeError) as excinfo:
            _meet_join_tables(h)
        assert str(excinfo.value) == message


def _outcome(fn, poset, m, mp):
    """fn's answer, or the type of the error it raises (whose message may
    name the poset)."""
    try:
        return fn(poset, m, mp)
    except ValueError as exc:
        return type(exc)


class TestWindow:
    @seed(20261018)
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.sampled_from(list(Family)),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=3),
        st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
        st.data(),
    )
    def test_variables_above_the_operands_change_nothing(self, family, n, k, degree, data):
        # every answer is the same on n and on n + k variables
        small, large = PosetId(family, n, degree), PosetId(family, n + k, degree)
        if degree is None:
            pick = st.lists(st.integers(min_value=0, max_value=3), max_size=n).map(Monomial)
        else:
            pick = st.sampled_from(ground_monomials(small))
        m, mp = data.draw(pick), data.draw(pick)
        for fn in (relation, meet, join):
            assert _outcome(fn, small, m, mp) == _outcome(fn, large, m, mp)


class TestLatticeLaws:
    def test_borel_is_distributive(self):
        ok, witness = check_distributive(build_hasse(PosetId.parse("A[n=3,d=3]")))
        assert ok and witness is None

    def test_chain_is_distributive(self):
        # one variable: divisibility restricts to a chain
        ok, _ = check_distributive(build_hasse(PosetId.parse("D[n=1,d=4]")))
        assert ok

    def test_stable_is_not_distributive(self):
        poset = PosetId.parse("B[n=3,d=2]")
        ok, witness = check_distributive(build_hasse(poset))
        assert not ok
        a, b, c = witness
        lhs = meet(poset, a, join(poset, b, c))
        rhs = join(poset, meet(poset, a, b), meet(poset, a, c))
        assert lhs != rhs

    def test_pentagon_in_stable(self):
        h = build_hasse(PosetId.parse("B[n=3,d=2]"))
        pentagon = find_n5(h)
        assert pentagon is not None
        bottom, a, b, c, top = pentagon
        assert diagram_leq(h, b, c) and b != c
        assert not diagram_leq(h, a, b) and not diagram_leq(h, b, a)
        assert not diagram_leq(h, a, c) and not diagram_leq(h, c, a)
        assert all(diagram_leq(h, bottom, v) and diagram_leq(h, v, top) for v in (a, b, c))

    @pytest.mark.parametrize("poset_text", ["A[n=3,d=3]", "A[n=4,d=2]", "D[n=1,d=4]"])
    def test_no_pentagon_in_modular_cases(self, poset_text):
        assert find_n5(build_hasse(PosetId.parse(poset_text))) is None


class TestRanks:
    def test_borel_rank_sizes_are_gaussian(self):
        h = build_hasse(PosetId.parse("A[n=3,d=2]"))
        assert rank_sizes(h) == [1, 1, 2, 1, 1]
        assert rank_sizes(h) == list(gaussian(2, 2))

    def test_stable_is_not_graded(self):
        with pytest.raises(NotGradedError):
            rank_sizes(build_hasse(PosetId.parse("B[n=3,d=2]")))

    def test_height_width(self):
        h = build_hasse(PosetId.parse("A[n=3,d=3]"))
        height, width = height_width(h)
        assert height == 6
        assert width == max(gaussian(2, 3))

    def test_width_of_an_antichain(self):
        # the three degree-1 monomials are pairwise incomparable under divisibility
        h = build_hasse(PosetId.parse("D[n=3,d=1]"))
        assert height_width(h) == (1, 3)


class TestGaussian:
    def test_small_values(self):
        assert gaussian(2, 2) == (1, 1, 2, 1, 1)
        assert gaussian(1, 4) == (1, 1, 1, 1, 1)
        assert gaussian(0, 3) == (1,)
        assert gaussian(3, 0) == (1,)

    def test_matches_box_partition_counts(self):
        # independent count: partitions inside an a-by-b box, tallied by size
        for a, b in [(2, 3), (3, 3), (4, 2)]:
            sizes = [0] * (a * b + 1)
            boxes = [range(b + 1)] * a
            for parts in product(*boxes):
                if all(parts[i] >= parts[i + 1] for i in range(a - 1)):
                    sizes[sum(parts)] += 1
            assert list(gaussian(a, b)) == sizes

    @pytest.mark.parametrize(("a", "b"), [(2, 2), (2, 3), (3, 3), (4, 1)])
    def test_symmetry_and_total(self, a, b):
        poly = gaussian(a, b)
        assert poly == poly[::-1]
        assert sum(poly) == comb(a + b, a)
        assert gaussian(b, a) == poly

    def test_container_protocol(self):
        poly = gaussian(2, 2)
        assert len(poly) == 5
        assert poly[2] == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gaussian(-1, 2)
