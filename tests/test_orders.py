"""Tests for poset identifiers, partial-sum sequences, and comparability."""
from __future__ import annotations

from itertools import product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stableorders.monomials import (
    ONE,
    Monomial,
    monomials_of_degree,
    monomials_up_to_degree,
)
from stableorders.orders import (
    Family,
    GroundSetError,
    PosetId,
    dual_rename,
    ground_monomials,
    leq,
    monomial_from_partial_sums,
    relation,
)
from stableorders.verify import borel_moves_up, partial_sums, reachability_oracle, stable_moves_up

M = Monomial.parse

exponent_vectors = st.lists(st.integers(min_value=0, max_value=4), max_size=4)
monomials = exponent_vectors.map(Monomial)


def times(m, t):
    """The product of two monomials."""
    n = max(m.max_support(), t.max_support())
    return Monomial(m.exponent(i) + t.exponent(i) for i in range(1, n + 1))


def dominates(sums, other):
    """Componentwise >= of two partial-sum tuples, each padded with its last
    value to the longer length."""
    n = max(len(sums), len(other))
    pad = lambda s: s + s[-1:] * (n - len(s))
    return all(a >= b for a, b in zip(pad(sums), pad(other)))


def local_reachable(m, mp, moves_fn):
    """Independent check: grow the move closure of m and look for mp."""
    seen = {m}
    frontier = [m]
    while frontier:
        u = frontier.pop()
        for w in moves_fn(u):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return mp in seen


class TestPosetId:
    @pytest.mark.parametrize(
        ("text", "family", "nvars", "degree"),
        [
            ("A[n=3,d=4]", Family.BOREL, 3, 4),
            ("A[d=4,n=3]", Family.BOREL, 3, 4),
            ("B[n=3]", Family.STABLE, 3, None),
            ("A[*,d=4]", Family.BOREL, None, 4),
            ("A[*,*]", Family.BOREL, None, None),
            ("A", Family.BOREL, None, None),
            ("D", Family.DIVISIBILITY, None, None),
            ("C[n=2,d=2]", Family.DUAL_BOREL, 2, 2),
            (" B[ n = 3 , d = 0 ] ", Family.STABLE, 3, 0),
        ],
    )
    def test_parse(self, text, family, nvars, degree):
        poset = PosetId.parse(text)
        assert (poset.family, poset.nvars, poset.degree) == (family, nvars, degree)

    @pytest.mark.parametrize(
        "text",
        [
            "E", "A[n=0]", "A[d=-1]", "C", "C[*,d=2]", "A[n=1,n=2]",
            "A[n=1,d=2,3]", "A[x=3]", "A[n=a]", "A[", "", "AB",
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            PosetId.parse(text)

    @pytest.mark.parametrize(
        "text", ["A[n=3,d=4]", "B[n=3]", "A[*,d=4]", "D", "C[n=2,d=2]", "A"]
    )
    def test_str_round_trip(self, text):
        assert str(PosetId.parse(text)) == text
        assert PosetId.parse(str(PosetId.parse(text))) == PosetId.parse(text)

    def test_family_codes(self):
        assert [f.value for f in Family] == ["D", "A", "B", "C"]
        for f in Family:
            assert Family(f.value) is f
        with pytest.raises(ValueError):
            PosetId.parse("X[n=2]")

    def test_contains(self):
        fixed = PosetId.parse("A[n=3,d=2]")
        assert fixed.contains(M("x1*x2"))
        assert not fixed.contains(M("x1"))  # wrong degree
        assert not fixed.contains(M("x4^2"))  # support too wide
        staircase = PosetId.parse("D[n=2,d=3]")
        assert staircase.contains(ONE)
        assert staircase.contains(M("x1^3"))
        assert not staircase.contains(M("x1^4"))
        assert PosetId.parse("A[*,d=2]").contains(M("x7*x9"))

    def test_is_finite(self):
        assert PosetId.parse("A[n=3,d=2]").is_finite()
        assert not PosetId.parse("B[n=3]").is_finite()
        assert not PosetId.parse("A[*,d=2]").is_finite()

    def test_ground_monomials(self):
        assert ground_monomials(PosetId.parse("A[n=2,d=2]")) == [
            M("x2^2"), M("x1*x2"), M("x1^2"),
        ]
        assert ground_monomials(PosetId.parse("D[n=2,d=1]")) == [ONE, M("x2"), M("x1")]
        with pytest.raises(ValueError):
            ground_monomials(PosetId.parse("B[n=3]"))


class TestPartialSums:
    def test_values(self):
        assert partial_sums(M("x1^2*x3")) == (2, 2, 3)

    def test_unit_and_pure_power(self):
        assert partial_sums(ONE) == (0,)
        assert partial_sums(M("x2^2")) == (0, 2)
        assert partial_sums(M("x1^3")) == (3,)

    def test_canonical_form_drops_tail_entries(self):
        # padding with the last value adds only trailing zero exponents
        assert monomial_from_partial_sums((1, 3, 3)) == M("x1*x2^2")
        assert partial_sums(monomial_from_partial_sums((1, 3, 3))) == (1, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            monomial_from_partial_sums((2, 1))
        with pytest.raises(ValueError):
            monomial_from_partial_sums((-1,))

    def test_dominates(self):
        big, small = partial_sums(M("x1^2*x3")), partial_sums(M("x1*x2*x3"))
        assert dominates(big, small)
        assert not dominates(small, big)
        assert dominates(big, big)
        assert dominates(partial_sums(M("x1^3")), partial_sums(M("x2*x3")))
        assert not dominates(partial_sums(M("x2*x3")), partial_sums(M("x1^3")))

    @given(monomials)
    def test_round_trip(self, m):
        assert monomial_from_partial_sums(partial_sums(m)) == m

    def test_round_trip_exhaustive(self):
        for m in monomials_up_to_degree(4, 4):
            assert monomial_from_partial_sums(partial_sums(m)) == m


class TestDualRename:
    def test_example(self):
        assert dual_rename(M("x1^2*x3"), 3) == M("x1*x3^2")
        with pytest.raises(ValueError):
            dual_rename(M("x1^2*x3"), 2)

    @given(monomials, st.integers(min_value=0, max_value=3))
    def test_involution(self, m, extra):
        window = m.max_support() + extra
        if window == 0:
            window = 1
        assert dual_rename(dual_rename(m, window), window) == m


def antitone_dual_sequence(m, window):
    """exponent(1) zeros, exponent(2) ones, and so on, then one entry
    `window`: padded with its last value, a partial-sum sequence."""
    return tuple(k for k in range(window) for _ in range(m.exponent(k + 1))) + (window,)


class TestAntitoneDualSequence:
    @pytest.mark.parametrize(("window", "bound"), [(2, 3), (3, 2), (3, 3)])
    def test_window_exact_bijection(self, window, bound):
        # Monomials of degree <= bound in `window` variables map one-to-one
        # onto partial sums of degree-`window` monomials in bound+1 variables.
        source = monomials_up_to_degree(window, bound)
        image = {antitone_dual_sequence(m, window) for m in source}
        assert len(image) == len(source) == comb(window + bound, bound)
        target = {partial_sums(m) for m in monomials_of_degree(bound + 1, window)}
        assert image == target

    @pytest.mark.parametrize("window", [2, 3])
    def test_order_reversing(self, window):
        # m <= mp in the glued Borel order on `window` variables exactly when
        # the image sequence of m dominates the image sequence of mp.
        glued = PosetId(Family.BOREL, window)
        pool = monomials_up_to_degree(window, 3)
        for m, mp in product(pool, repeat=2):
            flipped = dominates(
                antitone_dual_sequence(m, window), antitone_dual_sequence(mp, window)
            )
            assert flipped == leq(glued, m, mp)


class TestComparability:
    def test_divisibility(self):
        staircase = PosetId.parse("D[n=3,d=4]")
        assert leq(staircase, M("x1*x3"), M("x1^2*x3^2"))
        assert not leq(staircase, M("x2"), M("x1^4"))

    def test_borel_vs_stable_disagree(self):
        a, b = PosetId.parse("A[n=3,d=2]"), PosetId.parse("B[n=3,d=2]")
        assert leq(a, M("x2*x3"), M("x1*x3"))
        assert not leq(b, M("x2*x3"), M("x1*x3"))

    def test_dual_is_bottom_up(self):
        dual = PosetId.parse("C[n=2,d=2]")
        assert leq(dual, M("x1^2"), M("x1*x2"))
        assert leq(dual, M("x1*x2"), M("x2^2"))
        assert not leq(dual, M("x2^2"), M("x1^2"))

    def test_glued_orders_allow_multiplication(self):
        assert leq(PosetId.parse("B[n=2]"), M("x2"), M("x2^2"))
        assert leq(PosetId.parse("A[n=2]"), M("x2"), M("x1^2"))
        assert not leq(PosetId.parse("B[n=2]"), M("x2^2"), M("x2"))

    def test_unbounded_variables(self):
        assert leq(PosetId.parse("A[*,d=2]"), M("x7*x9"), M("x1*x2"))
        assert leq(PosetId.parse("A[*,*]"), M("x3"), M("x1^2*x2"))

    def test_ground_set_errors(self):
        fixed = PosetId.parse("A[n=3,d=2]")
        with pytest.raises(GroundSetError):
            leq(fixed, M("x1"), M("x1*x2"))
        with pytest.raises(GroundSetError):
            leq(PosetId.parse("A[n=2,d=2]"), M("x3^2"), M("x1^2"))

    def test_relation(self):
        a = PosetId.parse("A[n=3,d=3]")
        assert relation(a, M("x1^2*x3"), M("x1*x2*x3")) == "gt"
        assert relation(a, M("x1*x2*x3"), M("x1^2*x3")) == "lt"
        assert relation(a, M("x1*x2*x3"), M("x1*x2*x3")) == "eq"
        assert relation(a, M("x1^3"), M("x1^2*x3")) == "gt"
        b = PosetId.parse("B[n=3,d=2]")
        assert relation(b, M("x2*x3"), M("x1*x3")) == "incomparable"

    @pytest.mark.parametrize(
        "poset_text",
        ["A[n=3,d=3]", "B[n=3,d=3]", "A[n=2,d=4]", "B[n=4,d=2]", "C[n=3,d=2]", "D[n=2,d=3]"],
    )
    def test_leq_matches_reachability(self, poset_text):
        poset = PosetId.parse(poset_text)
        for m, mp in product(ground_monomials(poset), repeat=2):
            assert leq(poset, m, mp) == reachability_oracle(poset, m, mp)

    @pytest.mark.parametrize(
        ("poset_text", "moves_fn"),
        [("A[n=3,d=3]", borel_moves_up), ("B[n=3,d=3]", stable_moves_up)],
    )
    def test_leq_matches_local_move_closure(self, poset_text, moves_fn):
        poset = PosetId.parse(poset_text)
        for m, mp in product(ground_monomials(poset), repeat=2):
            assert leq(poset, m, mp) == local_reachable(m, mp, moves_fn)

    @pytest.mark.parametrize("family", ["A", "B", "C"])
    def test_glued_leq_matches_reachability(self, family):
        # glued B compares with one divisor of the right side, so it gets
        # more variables and higher degrees
        sizes = {"A": [(3, 3)], "B": [(2, 8), (3, 5), (4, 4)], "C": [(3, 3)]}[family]
        for nvars, max_degree in sizes:
            poset = PosetId(Family(family), nvars)
            pool = monomials_up_to_degree(nvars, max_degree)
            for m, mp in product(pool, repeat=2):
                assert leq(poset, m, mp) == reachability_oracle(poset, m, mp), (poset, m, mp)

    def test_fixed_degree_agrees_with_glued_restriction(self):
        pool = monomials_of_degree(3, 3)
        fixed = PosetId.parse("A[n=3,d=3]")
        for m, mp in product(pool, repeat=2):
            assert leq(fixed, m, mp) == leq(PosetId.parse("A[n=3]"), m, mp)
            assert leq(fixed, m, mp) == leq(PosetId.parse("A[*,*]"), m, mp)

    @given(monomials, monomials, monomials)
    def test_borel_order_is_multiplicative(self, m, mp, t):
        glued = PosetId.parse("A[*,*]")
        if leq(glued, m, mp):
            assert leq(glued, times(m, t), times(mp, t))

    @given(monomials, monomials)
    def test_borel_antisymmetry(self, m, mp):
        glued = PosetId.parse("A[*,*]")
        if leq(glued, m, mp) and leq(glued, mp, m):
            assert m == mp
