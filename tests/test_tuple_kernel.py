"""The move kernel on exponent tuples against the Monomial-level code it
replaced.

Each oracle below is a test-local copy of the code that built a validated
Monomial per move: its own unit move and multiplication (the arithmetic
that the Monomial methods transfer and times_var did before they called
monomials._moved, which replaced them), the covers, the filter tests, the interior, the layer
test and the ideal closures.  The kernel must give the same answers, the
same tuples in the same order, and the same refusals.
"""
from __future__ import annotations

from hypothesis import given, settings, strategies as st
from hypothesis import seed as fixed_seed

from stableorders.filters import closure, is_closed, is_filter
from stableorders.monomials import Monomial, _moved, graded_lex_key, monomials_up_to_degree
from stableorders.orders import (
    Family,
    GroundSetError,
    PosetId,
    _generating_moves,
    _require_member,
    ground_monomials,
    leq,
)
from stableorders.verify import interior, is_filter_by_layers

FAMILIES = list(Family)


# ---------------------------------------------------------------------------
# test-local copies of the Monomial-level code


def old_times_var(m, i):
    exps = list(m.exps) + [0] * (i - len(m.exps))
    exps[i - 1] += 1
    return Monomial(exps)


def old_transfer(m, i, j):
    exps = list(m.exps) + [0] * (i - len(m.exps))
    exps[i - 1] += 1
    exps[j - 1] -= 1
    return Monomial(exps)


def old_generating_moves(poset, m, max_degree=None):
    family = poset.family
    n = poset.nvars
    exps = m.exps
    v = len(exps)
    if family is Family.BOREL:
        moves = [old_transfer(m, k, k + 1) for k in range(1, v) if exps[k]]
    elif family is Family.DUAL_BOREL:
        moves = [old_transfer(m, k + 1, k) for k in range(1, min(v + 1, n)) if exps[k - 1]]
    elif family is Family.STABLE and v > 1:
        moves = [old_transfer(m, i, v) for i in range(1 if exps[-1] > 1 else v - 1, v)]
    else:
        moves = []
    if poset.degree is None:
        bound = max_degree
    elif family is Family.DIVISIBILITY:
        bound = poset.degree
    else:
        return moves
    if bound is None or m.degree() >= bound:
        return moves
    if family is Family.DIVISIBILITY:
        return moves + [old_times_var(m, i) for i in range(1, n + 1)]
    return moves + [old_times_var(m, 1 if family is Family.DUAL_BOREL else n)]


def old_is_filter(elements, poset):
    if not poset.is_finite():
        raise ValueError(f"{poset} has an infinite ground set")
    members = frozenset(elements)
    for m in members:
        _require_member(poset, m)
        if not members.issuperset(old_generating_moves(poset, m)):
            return False
    return True


def old_interior(elements, nvars):
    members = frozenset(elements)
    return frozenset(
        v for v in members
        if all(old_transfer(v, j, i) in members
               for i in range(1, nvars + 1) if v.exponent(i) for j in range(i + 1, nvars + 1))
    )


def old_is_filter_by_layers(elements, nvars, degree):
    if nvars < 3:
        raise ValueError("the layerwise test needs at least three variables")
    layers = [set() for _ in range(degree + 1)]
    for m in elements:
        if m.max_support() > nvars or m.degree() != degree:
            raise GroundSetError(f"{m} is not a degree-{degree} monomial in {nvars} variables")
        layers[m.exponent(nvars)].add(Monomial(m.exps[: nvars - 1]))
    for i, layer in enumerate(layers):
        if not old_is_filter(layer, PosetId(Family.BOREL, nvars - 1, degree - i)):
            return False
    for i in range(degree):
        lifted = {old_times_var(m, 1) for m in layers[i + 1]}
        if not lifted <= old_interior(layers[i], nvars - 1):
            return False
    return True


def old_has_segment_in(members, m):
    exps = m.exps
    return () in members or any(
        exps[:j] + (a,) in members for j, e in enumerate(exps) for a in range(1, e + 1))


def old_move_closure(gens, family):
    poset = PosetId(family)
    members, closed = set(), []
    for g in sorted(set(gens), key=graded_lex_key):
        queue = [g]
        while queue:
            m = queue.pop()
            if not old_has_segment_in(members, m):
                members.add(m.exps)
                closed.append(m)
                queue.extend(old_generating_moves(poset, m))
    return tuple(sorted(closed, key=graded_lex_key))


def old_is_closed(gens, family):
    poset, members = PosetId(family), {g.exps for g in gens}
    return all(old_has_segment_in(members, u) for g in gens for u in old_generating_moves(poset, g))


def outcome(fn, *args):
    """fn's answer, or the type and message of what it raised."""
    try:
        return "answered", fn(*args)
    except ValueError as exc:
        return "raised", type(exc), str(exc)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def poset_cases(draw, fixed=None):
    """(poset, max_degree, pool): a poset with n <= 5 and degree <= 5, fixed
    or glued (then with a max_degree from -1 to 5), and a pool of monomials
    that holds its ground set and, when glued, one degree past the bound."""
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(min_value=1, max_value=5))
    if fixed if fixed is not None else draw(st.booleans()):
        poset = PosetId(family, n, draw(st.integers(min_value=0, max_value=5)))
        return poset, None, ground_monomials(poset)
    max_degree = draw(st.integers(min_value=-1, max_value=5))
    return PosetId(family, n), max_degree, monomials_up_to_degree(n, max(max_degree, 0) + 1)


@st.composite
def member_sets(draw, outsiders):
    """(poset, members) on a fixed-degree poset: a filter, or a filter with
    one member added or taken out, or any subset; with outsiders, one or two
    monomials off the ground set join it (one degree too high, or a
    variable past n)."""
    poset, _, ground = draw(poset_cases(fixed=True))
    kind = draw(st.sampled_from(["filter", "near", "any"]))
    if kind == "any":
        members = set(draw(st.sets(st.sampled_from(ground))))
    else:
        gens = draw(st.sets(st.sampled_from(ground), max_size=3))
        members = {m for m in ground if any(leq(poset, g, m) for g in gens)}
        if kind == "near":
            members ^= {draw(st.sampled_from(ground))}
    if outsiders:
        n, d = poset.nvars, poset.degree
        off = [Monomial.parse(f"x{n + 1}"), Monomial((d + 1,))]
        members |= set(draw(st.lists(st.sampled_from(off), min_size=1, max_size=2)))
    return poset, members


small_monomials = st.lists(st.integers(min_value=0, max_value=3), max_size=5).map(Monomial)


# ---------------------------------------------------------------------------
# the tests


class TestUnitMove:
    @fixed_seed(20261019)
    @settings(max_examples=300, deadline=None, database=None)
    @given(m=small_monomials, i=st.integers(min_value=1, max_value=7), j=st.integers(1, 7))
    def test_transfer_and_times_var_match_list_arithmetic(self, m, i, j):
        assert Monomial(_moved(m.exps, i)) == old_times_var(m, i)
        assert _moved(m.exps, i) == old_times_var(m, i).exps
        if m.exponent(j) or i == j:
            assert Monomial(_moved(m.exps, i, j)) == old_transfer(m, i, j)
            assert _moved(m.exps, i, j) == old_transfer(m, i, j).exps


class TestGeneratingMoves:
    @fixed_seed(20261020)
    @settings(max_examples=400, deadline=None, database=None)
    @given(data=st.data())
    def test_covers_match_monomial_moves(self, data):
        poset, max_degree, pool = data.draw(poset_cases())
        m = data.draw(st.sampled_from(pool))
        got = _generating_moves(poset, m.exps, max_degree)
        assert got == [u.exps for u in old_generating_moves(poset, m, max_degree)]
        assert all(type(u) is tuple for u in got)


class TestFilterTests:
    @fixed_seed(20261021)
    @settings(max_examples=300, deadline=None, database=None)
    @given(case=member_sets(outsiders=False))
    def test_is_filter_matches(self, case):
        poset, members = case
        assert is_filter(members, poset) == old_is_filter(members, poset)

    @fixed_seed(20261022)
    @settings(max_examples=300, deadline=None, database=None)
    @given(case=member_sets(outsiders=True))
    def test_mixed_bad_sets_get_the_same_refusal(self, case):
        # a non-member and an unclosed member: whichever the set lists first decides
        poset, members = case
        assert outcome(is_filter, members, poset) == outcome(old_is_filter, members, poset)

    def test_infinite_poset_is_refused_first(self):
        members = {Monomial.parse("x9^9")}
        poset = PosetId(Family.BOREL, 3)
        assert outcome(is_filter, members, poset) == outcome(old_is_filter, members, poset)
        assert outcome(is_filter, members, poset)[0] == "raised"


class TestInteriorAndLayers:
    @fixed_seed(20261023)
    @settings(max_examples=300, deadline=None, database=None)
    @given(members=st.sets(small_monomials, max_size=12), nvars=st.integers(1, 6))
    def test_interior_matches(self, members, nvars):
        got = interior(members, nvars)
        assert got == old_interior(members, nvars)
        assert all(m in members for m in got)

    @fixed_seed(20261024)
    @settings(max_examples=300, deadline=None, database=None)
    @given(case=member_sets(outsiders=False))
    def test_interior_of_near_filters_matches(self, case):
        poset, members = case
        n = poset.nvars
        assert interior(members, n) == old_interior(members, n)

    @fixed_seed(20261025)
    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_layer_test_matches(self, data):
        n = data.draw(st.integers(min_value=3, max_value=5))
        d = data.draw(st.integers(min_value=0, max_value=5))
        poset = PosetId(Family.BOREL, n, d)
        ground = ground_monomials(poset)
        gens = data.draw(st.sets(st.sampled_from(ground), max_size=3))
        members = {m for m in ground if any(leq(poset, g, m) for g in gens)}
        if data.draw(st.booleans()):
            members ^= {data.draw(st.sampled_from(ground))}
        if data.draw(st.integers(0, 5)) == 0:
            members.add(Monomial.parse(data.draw(st.sampled_from([f"x{n + 1}^{d}", f"x1^{d + 1}"]))))
        assert (outcome(is_filter_by_layers, members, n, d)
                == outcome(old_is_filter_by_layers, members, n, d))


class TestClosures:
    @fixed_seed(20261026)
    @settings(max_examples=300, deadline=None, database=None)
    @given(gens=st.lists(small_monomials, min_size=1, max_size=4))
    def test_closures_and_closed_tests_match(self, gens):
        for family in (Family.BOREL, Family.STABLE):
            closed = closure(gens, family)
            assert closed == old_move_closure(gens, family)
            assert all(type(m) is Monomial for m in closed)
            assert is_closed(gens, family) == old_is_closed(gens, family)
            assert is_closed(closed, family) and old_is_closed(closed, family)
