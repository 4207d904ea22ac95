"""Tests for term orders: comparisons, refinement checks, and separation."""
from __future__ import annotations

import random
from itertools import combinations, islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stableorders.lattice import CapExceededError
from stableorders.monomials import ONE, Monomial, monomials_of_degree, monomials_up_to_degree
from stableorders.orders import Family, PosetId, leq, relation
from stableorders.termorders import (
    EQUAL,
    GREATER,
    LESS,
    TermOrder,
    is_strictly_decreasing,
    ordinal_sum_leq,
    random_weight_vector,
    refines_borel,
    separating_witnesses,
    weight_vectors_by_total,
)

M = Monomial.parse

exponent_vectors = st.lists(st.integers(min_value=0, max_value=3), max_size=3)
monomials = exponent_vectors.map(Monomial)


def times(m, t):
    """The product of two monomials."""
    n = max(m.max_support(), t.max_support())
    return Monomial(m.exponent(i) + t.exponent(i) for i in range(1, n + 1))

ALL_KINDS = [
    TermOrder("lex"),
    TermOrder("deglex"),
    TermOrder("degrevlex"),
    TermOrder("weighted", (5, 3, 2)),
    TermOrder("weighted", (7, 6, 2), degree_first=True),
]


class TestCompare:
    def test_classic_disagreement(self):
        a, b = M("x1*x2^2"), M("x1^2*x3")
        assert TermOrder("deglex").compare(a, b) == LESS
        assert TermOrder("degrevlex").compare(a, b) == GREATER

    def test_lex_ignores_degree(self):
        assert TermOrder("lex").compare(M("x1"), M("x2^5")) == GREATER
        assert TermOrder("lex").compare(ONE, M("x2^5")) == LESS

    def test_weighted(self):
        tied = TermOrder("weighted", (3, 2, 1))
        assert tied.compare(M("x1*x3"), M("x2^2")) == GREATER  # 4 = 4, lex breaks
        assert TermOrder("weighted", (4, 3, 1)).compare(M("x1*x3"), M("x2^2")) == LESS

    def test_degree_first_changes_the_comparison(self):
        plain = TermOrder("weighted", (1, 3, 9))
        first = TermOrder("weighted", (1, 3, 9), degree_first=True)
        low_degree, high_degree = M("x3"), M("x1^2")
        assert plain.compare(low_degree, high_degree) == GREATER  # 9 > 2
        assert first.compare(low_degree, high_degree) == LESS

    def test_degree_first_example(self):
        order = TermOrder("weighted", (7, 6, 2, 1), degree_first=True)
        a, b = M("x1^2*x3^2"), M("x1*x2^2*x4")
        assert order.compare(a, b) == LESS  # 18 against 20 at equal degree
        assert TermOrder("deglex").compare(a, b) == GREATER

    def test_validation(self):
        with pytest.raises(ValueError):
            TermOrder("weighted")
        with pytest.raises(ValueError):
            TermOrder("weighted", (3, 0, 1))
        with pytest.raises(ValueError):
            TermOrder("lex", weights=(2, 1))
        with pytest.raises(ValueError):
            TermOrder("lex", degree_first=True)
        with pytest.raises(ValueError):
            TermOrder("fancy")

    def test_short_weight_vector(self):
        with pytest.raises(ValueError):
            TermOrder("weighted", (2, 1)).compare(M("x3"), M("x1"))

    @pytest.mark.parametrize("order", ALL_KINDS, ids=lambda o: o.kind + ("W" if o.weights else ""))
    def test_total_order_axioms(self, order):
        pool = monomials_up_to_degree(3, 2)
        for m in pool:
            assert order.compare(m, m) == EQUAL
            if m != ONE:
                assert order.compare(ONE, m) == LESS
        for m, mp in combinations(pool, 2):
            assert order.compare(m, mp) == -order.compare(mp, m)
            assert order.compare(m, mp) != EQUAL

    @pytest.mark.parametrize("order", ALL_KINDS, ids=lambda o: o.kind + ("W" if o.weights else ""))
    def test_multiplicative(self, order):
        pool = monomials_up_to_degree(3, 2)
        for t in (M("x2"), M("x1*x3")):
            for m, mp in combinations(pool, 2):
                assert order.compare(m, mp) == order.compare(times(m, t), times(mp, t))

    @given(monomials, monomials, monomials)
    def test_multiplicative_property(self, m, mp, t):
        order = TermOrder("degrevlex")
        assert order.compare(m, mp) == order.compare(times(m, t), times(mp, t))


class TestRefinement:
    @pytest.mark.parametrize("kind", ["lex", "deglex", "degrevlex"])
    def test_classical_orders_refine(self, kind):
        ok, sample = refines_borel(TermOrder(kind), 3, 4)
        assert ok
        top, bottom = sample
        assert leq(PosetId.parse("A[n=3]"), bottom, top) and bottom != top

    def test_decreasing_weights_refine(self):
        ok, _ = refines_borel(TermOrder("weighted", (6, 2, 1)), 3, 4)
        assert ok

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_decreasing_weights_refine(self, seed):
        weights = random_weight_vector(4, random.Random(seed))
        assert is_strictly_decreasing(weights)
        ok, _ = refines_borel(TermOrder("weighted", weights), 4, 3)
        assert ok

    def test_increasing_weights_violate(self):
        ok, witness = refines_borel(TermOrder("weighted", (1, 2, 3)), 3, 3)
        assert not ok
        bottom, top = witness
        assert leq(PosetId.parse("A[n=3]"), bottom, top)
        assert TermOrder("weighted", (1, 2, 3)).compare(bottom, top) != LESS

    def test_cap_refuses_before_scanning(self, monkeypatch):
        import stableorders.termorders as termorders

        def no_ground(*args):
            raise AssertionError("the ground set was built")

        monkeypatch.setattr(termorders, "monomials_up_to_degree", no_ground)
        with pytest.raises(CapExceededError, match="165624030 pairs"):
            refines_borel(TermOrder("lex"), 8, 8)
        with pytest.raises(CapExceededError, match="210 pairs .* cap of 209"):
            refines_borel(TermOrder("lex"), 2, 4, cap=209)
        # comb(2 * 10**6, 10**6) alone would take about a minute
        with pytest.raises(CapExceededError, match=r"at least 2\*\*1000000 monomials"):
            refines_borel(TermOrder("lex"), 10**6, 10**6)
        with pytest.raises(CapExceededError):
            refines_borel(TermOrder("lex"), 1, 1, cap=0)

    def test_default_cap_admits_the_largest_check(self):
        # 210 monomials in 4 variables up to degree 6: 43,890 ordered pairs
        assert refines_borel(TermOrder("lex"), 4, 6)[0]
        assert refines_borel(TermOrder("lex"), 2, 4, cap=210)[0]

    def test_is_strictly_decreasing(self):
        assert is_strictly_decreasing((5, 3, 1))
        assert not is_strictly_decreasing((5, 5, 1))
        assert not is_strictly_decreasing((5, 3, 0))


class TestWeightVectors:
    def test_enumeration_prefix(self):
        got = list(islice(weight_vectors_by_total(3), 7))
        assert got == [
            (3, 2, 1), (4, 2, 1), (4, 3, 1), (5, 2, 1),
            (4, 3, 2), (5, 3, 1), (6, 2, 1),
        ]

    def test_all_strictly_decreasing(self):
        for weights in islice(weight_vectors_by_total(4), 50):
            assert is_strictly_decreasing(weights)

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
    def test_enumeration_matches_subset_scan(self, nvars):
        # every vector of each total, in lex order: the subsets of 1..total
        # with that sum, each read from its largest element down
        low = nvars * (nvars + 1) // 2
        expected = [
            vector
            for total in range(low, low + 12)
            for vector in sorted(
                c[::-1] for c in combinations(range(1, total + 1), nvars) if sum(c) == total
            )
        ]
        assert list(islice(weight_vectors_by_total(nvars), len(expected))) == expected

    def test_enumeration_needs_a_variable(self):
        with pytest.raises(ValueError):
            next(weight_vectors_by_total(0))

    def test_random_vectors(self):
        rng = random.Random(9)
        for _ in range(20):
            weights = random_weight_vector(5, rng)
            assert len(weights) == 5
            assert is_strictly_decreasing(weights)

    def test_random_vectors_are_reproducible(self):
        a = random_weight_vector(4, random.Random(42))
        b = random_weight_vector(4, random.Random(42))
        assert a == b


class TestSeparation:
    def test_frozen_pair(self):
        above, below = separating_witnesses(M("x1*x3"), M("x2^2"), nvars=3)
        assert above == (3, 2, 1)
        assert below == (4, 3, 1)
        assert TermOrder("weighted", above).compare(M("x1*x3"), M("x2^2")) == GREATER
        assert TermOrder("weighted", below).compare(M("x1*x3"), M("x2^2")) == LESS

    def test_rejects_comparable_pairs(self):
        with pytest.raises(ValueError):
            separating_witnesses(M("x2^2"), M("x1*x2"))
        with pytest.raises(ValueError):
            separating_witnesses(M("x1"), M("x1"))

    def test_budget(self):
        with pytest.raises(ValueError):
            separating_witnesses(M("x1*x3"), M("x2^2"), nvars=3, budget=1)

    def test_every_incomparable_pair_separates(self):
        pool = monomials_of_degree(3, 3)
        glued = PosetId.parse("A[n=3]")
        for m, mp in combinations(pool, 2):
            if relation(glued, m, mp) != "incomparable":
                continue
            above, below = separating_witnesses(m, mp)
            assert TermOrder("weighted", above).compare(m, mp) == GREATER
            assert TermOrder("weighted", below).compare(m, mp) == LESS


class TestOrdinalSum:
    def test_degree_dominates(self):
        assert ordinal_sum_leq(M("x1"), M("x3^5"))
        assert not ordinal_sum_leq(M("x3^5"), M("x1"))

    def test_within_a_degree(self):
        assert ordinal_sum_leq(M("x2*x3"), M("x1*x3"))
        assert not ordinal_sum_leq(M("x1*x3"), M("x2^2"))
        assert not ordinal_sum_leq(M("x2^2"), M("x1*x3"))
        assert ordinal_sum_leq(M("x1*x3"), M("x1*x3"))

    def test_is_intersection_of_degree_compatible_refinements(self):
        # every degree-first refining order must agree with the ordinal sum,
        # and each strict-incomparability is witnessed by a disagreeing pair
        pool = monomials_up_to_degree(3, 3)
        samples = [
            TermOrder("deglex"),
            TermOrder("degrevlex"),
            TermOrder("weighted", (9, 4, 2), degree_first=True),
            TermOrder("weighted", (11, 7, 1), degree_first=True),
        ]
        for m, mp in combinations(pool, 2):
            if ordinal_sum_leq(m, mp):
                for order in samples:
                    assert order.compare(m, mp) == LESS
            elif not ordinal_sum_leq(mp, m):
                above, below = separating_witnesses(m, mp)
                up = TermOrder("weighted", above, degree_first=True)
                down = TermOrder("weighted", below, degree_first=True)
                assert up.compare(m, mp) == GREATER
                assert down.compare(m, mp) == LESS


def _scan_with_leq(order, nvars, max_degree):
    """refines_borel's contract, spelled out: every ordered pair of the
    graded-lex ground set, inner loop over the second element, compared
    with leq in the glued strongly stable order."""
    poset = PosetId(Family.BOREL, nvars)
    ground = monomials_up_to_degree(nvars, max_degree)
    sample = None
    for m in ground:
        for mp in ground:
            if m == mp or not leq(poset, m, mp):
                continue
            if order.compare(m, mp) != LESS:
                return False, (m, mp)
            if sample is None:
                sample = (mp, m)
    return True, sample


def _oracle_orders():
    # (1, 2, 3, 2) violates both x4 < x1 and x3 < x2 at n = 4, so a scan
    # that nests its loops the other way names another first violation
    orders = [TermOrder("lex"), TermOrder("deglex"), TermOrder("degrevlex"),
              TermOrder("weighted", (1, 2, 3, 2))]
    rng = random.Random(20261018)
    for k in range(20):
        weights = [rng.randint(1, 6) for _ in range(4)]
        if k % 3 == 0:
            weights.sort()  # non-decreasing: these fail unless all weights are equal
        orders.append(TermOrder("weighted", tuple(weights), degree_first=k % 2 == 1))
    return orders


class TestRefinementOracle:
    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    @pytest.mark.parametrize("max_degree", [-1, 0, 1, 2, 3, 4])
    def test_same_answer_and_witness_as_a_leq_scan(self, nvars, max_degree):
        outcomes = set()
        for order in _oracle_orders():
            expected = _scan_with_leq(order, nvars, max_degree)
            assert refines_borel(order, nvars, max_degree) == expected, order
            outcomes.add(expected[0])
        if nvars >= 2 and max_degree >= 1:
            assert outcomes == {True, False}
