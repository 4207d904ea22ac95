"""Tests for monomial parsing, arithmetic, and exchange moves."""
from __future__ import annotations

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import seed as fixed_seed
from hypothesis import strategies as st

from stableorders.monomials import (
    MAX_VARIABLES,
    ONE,
    Monomial,
    graded_lex_key,
    monomials_of_degree,
    monomials_up_to_degree,
)
from stableorders.verify import borel_moves_up, stable_moves_up

exponent_vectors = st.lists(st.integers(min_value=0, max_value=5), max_size=5)
monomials = exponent_vectors.map(Monomial)
nonunit_monomials = monomials.filter(lambda m: m.degree() > 0)


def times(m, t):
    """The product of two monomials."""
    n = max(m.max_support(), t.max_support())
    return Monomial(m.exponent(i) + t.exponent(i) for i in range(1, n + 1))


class TestConstruction:
    def test_trailing_zeros_are_stripped(self):
        assert Monomial((2, 0, 1, 0, 0)).exps == (2, 0, 1)
        assert Monomial((2, 0, 1, 0, 0)) == Monomial((2, 0, 1))

    def test_unit(self):
        assert Monomial(()) == ONE
        assert str(ONE) == "1"
        assert ONE.degree() == 0
        assert ONE.max_support() == 0

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            Monomial((1, -1))

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            Monomial((1.0,))
        with pytest.raises(ValueError):
            Monomial((True,))

    def test_immutable(self):
        m = Monomial((1, 2))
        with pytest.raises(AttributeError):
            m.exps = (3,)

    def test_hashable(self):
        assert len({Monomial((1, 0)), Monomial((1,)), Monomial((0, 1))}) == 2


class TestFromTerms:
    @fixed_seed(2028)
    @settings(max_examples=200)
    @given(st.dictionaries(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=4), max_size=6))
    def test_matches_the_dense_vector(self, terms):
        dense = [0] * max(terms, default=0)
        for i, e in terms.items():
            dense[i - 1] = e
        m = Monomial.from_terms(terms)
        assert (m, m.exps, hash(m)) == (Monomial(dense), Monomial(dense).exps, hash(Monomial(dense)))

    @pytest.mark.parametrize("bad", [-1, True, False, 1.0, "2", None])
    def test_refuses_what_the_constructor_refuses(self, bad):
        message = f"exponents must be non-negative integers, got {bad!r}"
        for construct in (lambda: Monomial([1, 0, bad]), lambda: Monomial.from_terms({1: 1, 3: bad})):
            with pytest.raises(ValueError) as excinfo:
                construct()
            assert str(excinfo.value) == message


class TestParsing:
    @pytest.mark.parametrize(
        ("text", "exps"),
        [
            ("x1^2*x3", (2, 0, 1)),
            ("x2", (0, 1)),
            ("x1*x1", (2,)),
            ("x3^4", (0, 0, 4)),
            ("1", ()),
            ("[2,0,1]", (2, 0, 1)),
            ("  x1 * x2^2 ", (1, 2)),
        ],
    )
    def test_parse(self, text, exps):
        assert Monomial.parse(text).exps == exps

    @pytest.mark.parametrize(
        "text",
        ["", "x0", "x1^", "y2", "x1**x2", "x1^-1", "[1,-2]", "x1 x2", "2"],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            Monomial.parse(text)

    @pytest.mark.parametrize(
        ("text", "width"),
        [
            ("x1000001", 1000001),
            ("x2^3*x1000009*x1", 1000009),
            ("x1000001*x1000001", 1000001),
            ("x1*x300000000", 300000000),  # a dense tuple would take gigabytes
        ],
    )
    def test_parse_refuses_variables_above_the_bound(self, text, width):
        with pytest.raises(ValueError) as excinfo:
            Monomial.parse(text)
        assert str(excinfo.value) == f"x{width} lies above x1000000, the last variable allowed"

    def test_parse_at_the_bound(self):
        assert Monomial.parse(f"x1*x{MAX_VARIABLES}").exps == (1,) + (0,) * (MAX_VARIABLES - 2) + (1,)

    @given(nonunit_monomials)
    def test_parse_under_a_bound(self, m):
        assert Monomial.parse(str(m)) == m
        # a zero exponent names no variable
        assert Monomial.parse(f"{m}*x{MAX_VARIABLES + 1}^0") == m
        with pytest.raises(ValueError, match="the last variable allowed"):
            Monomial.parse(f"{m}*x{MAX_VARIABLES + 1}")

    @given(monomials)
    def test_str_round_trip(self, m):
        assert Monomial.parse(str(m)) == m

    @given(monomials)
    def test_repr_round_trip(self, m):
        assert eval(repr(m)) == m  # noqa: S307 - repr of a value type


class TestArithmetic:
    def test_exponent_beyond_support_is_zero(self):
        assert Monomial((1, 2)).exponent(5) == 0
        with pytest.raises(ValueError):
            Monomial((1, 2)).exponent(0)

    def test_exponent_vector_padding(self):
        assert Monomial((1, 2)).exponent_vector(4) == [1, 2, 0, 0]
        with pytest.raises(ValueError):
            Monomial((1, 2, 3)).exponent_vector(2)

    def test_divides(self):
        m, d = Monomial((2, 1, 1)), Monomial((1, 0, 1))
        assert d.divides(m)
        assert not m.divides(d)

    def test_gcd_lcm(self):
        a, b = Monomial((2, 0, 1)), Monomial((1, 3))
        assert a.gcd(b) == Monomial((1,))
        assert a.lcm(b) == Monomial((2, 3, 1))

    @given(monomials, monomials)
    def test_degree_is_additive(self, a, b):
        assert times(a, b).degree() == a.degree() + b.degree()

    @given(monomials, monomials)
    def test_gcd_divides_lcm_is_multiple(self, a, b):
        g, l = a.gcd(b), a.lcm(b)
        assert g.divides(a) and g.divides(b)
        assert a.divides(l) and b.divides(l)
        assert times(g, l) == times(a, b)


class TestMoves:
    def test_borel_moves_example(self):
        got = borel_moves_up(Monomial.parse("x2*x3"))
        want = {Monomial.parse(s) for s in ("x1*x3", "x1*x2", "x2^2")}
        assert got == want

    def test_stable_moves_only_touch_last_variable(self):
        assert stable_moves_up(Monomial.parse("x2*x3")) == {
            Monomial.parse("x1*x2"),
            Monomial.parse("x2^2"),
        }
        assert stable_moves_up(Monomial.parse("x2^2")) == {Monomial.parse("x1*x2")}
        assert stable_moves_up(ONE) == frozenset()
        assert stable_moves_up(Monomial.parse("x1^3")) == frozenset()

    @given(nonunit_monomials)
    def test_moves_preserve_degree(self, m):
        for mp in borel_moves_up(m):
            assert mp.degree() == m.degree()

    @given(nonunit_monomials)
    def test_stable_moves_are_borel_moves(self, m):
        assert stable_moves_up(m) <= borel_moves_up(m)

    @given(nonunit_monomials)
    def test_index_weight_strictly_drops_along_moves(self, m):
        # the sum of variable indices with multiplicity: its strict drop
        # certifies that the moves generate an antisymmetric order
        def index_weight(u):
            return sum(i * e for i, e in enumerate(u.exps, start=1))

        for mp in borel_moves_up(m):
            assert index_weight(mp) < index_weight(m)
            assert mp != m


class TestEnumeration:
    def test_degree_slice_is_graded_lex_ascending(self):
        got = monomials_of_degree(2, 2)
        assert got == [Monomial((0, 2)), Monomial((1, 1)), Monomial((2,))]
        keys = [graded_lex_key(m) for m in got]
        assert keys == sorted(keys)

    @pytest.mark.parametrize(("n", "d"), [(1, 4), (2, 3), (3, 3), (4, 2)])
    def test_degree_slice_count(self, n, d):
        slice_ = monomials_of_degree(n, d)
        assert len(slice_) == comb(n + d - 1, d)
        assert len(set(slice_)) == len(slice_)
        assert all(m.degree() == d and m.max_support() <= n for m in slice_)

    @pytest.mark.parametrize(("n", "d"), [(1, 4), (2, 3), (3, 3), (4, 2)])
    def test_up_to_degree_count(self, n, d):
        got = monomials_up_to_degree(n, d)
        assert len(got) == comb(n + d, d)
        assert got[0] == ONE

    def test_degree_zero(self):
        assert monomials_of_degree(3, 0) == [ONE]
        assert monomials_of_degree(0, 0) == [ONE]
        assert monomials_of_degree(0, 2) == []
