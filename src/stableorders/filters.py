"""Filters (up-closed sets) of the monomial orders: tests, counts, enumeration.

Counting sweeps the Hasse diagram, deciding vertex after vertex whether it
is in the filter, in lex order of the exponent vectors (index-reversed for
the dual family): a linear extension, so a vertex may always join, and may
stay out only if none of its lower covers is in.  The sweep's state is the
in/out pattern of the frontier (decided vertices with an undecided cover
neighbour), each state carrying its filter counts by size.  Along that
order every family's layers leave a narrow frontier; a memory budget on
the live states bounds the work.  Counting the filters of an arbitrary
poset is #P-complete, so that layering is where the speed comes from.

Enumeration walks the pivot tree on bitmask subposets: filters avoiding a
pivot are filters of the poset minus the pivot's down-set, and filters
containing it correspond to filters of the poset minus the pivot's up-set.
The same split, memoized, counts filters as the independent oracle.

Also here: the closed-form counters for two and three variables, the
weighted-walk recursion behind the stable-order counts, and monomial-ideal
utilities (strongly-stable/stable closures and membership).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .monomials import Monomial, graded_lex_key
from .orders import Family, GroundSetError, PosetId, _generating_moves, _require_member
from .lattice import CapExceededError, _iter_bits, _linear_order

#: Default bound on the filters one enumeration lists.
FILTER_CAP = 1_000_000


def is_filter(elements, poset):
    """Whether the set is upward closed in the finite poset.

    It is enough to close under single generating moves, since the order is
    the reflexive-transitive closure of those moves.
    """
    if not poset.is_finite():
        raise ValueError(f"{poset} has an infinite ground set")
    members = frozenset(elements)
    for m in members:
        _require_member(poset, m)
        if not members.issuperset(_generating_moves(poset, m)):
            return False
    return True


def interior(elements, nvars):
    """Members that stay inside under every downward exchange x_j/x_i, i < j.

    A monomial v survives when for all i < j <= nvars with x_i dividing v,
    the monomial v*x_j/x_i also belongs to the set.
    """
    members = frozenset(elements)
    return frozenset(
        v for v in members
        if all(v.transfer(j, i) in members
               for i in range(1, nvars + 1) if v.exponent(i) for j in range(i + 1, nvars + 1))
    )


def boundary(elements, nvars):
    """The set minus its interior."""
    return frozenset(elements) - interior(elements, nvars)


def is_filter_by_layers(elements, nvars, degree):
    """Layerwise filter test: slice the degree-`degree` monomials by the
    exponent i of the last variable, stripping it off (layer i).  Every slice
    must be a filter one variable down, and pushing the next slice up by x1
    must land in the previous slice's interior.  Agrees with is_filter on the
    strongly-stable order."""
    if nvars < 3:
        raise ValueError("the layerwise test needs at least three variables")
    layers = [set() for _ in range(degree + 1)]
    for m in elements:
        if m.max_support() > nvars or m.degree() != degree:
            raise GroundSetError(f"{m} is not a degree-{degree} monomial in {nvars} variables")
        layers[m.exponent(nvars)].add(Monomial(m.exps[: nvars - 1]))
    for i, layer in enumerate(layers):
        if not is_filter(layer, PosetId(Family.BOREL, nvars - 1, degree - i)):
            return False
    for i in range(degree):
        lifted = {m.times_var(1) for m in layers[i + 1]}
        if not lifted <= interior(layers[i], nvars - 1):
            return False
    return True


# Memory budget of the states one sweep step keeps: each holds its frontier
# bits and its packed counts, on top of a dict entry's fixed overhead.
SWEEP_BUDGET_BYTES = 1 << 27
_ENTRY_BYTES = 120


class SweepBudgetError(CapExceededError):
    """The frontier sweep would keep more than SWEEP_BUDGET_BYTES of states;
    unlike the other caps, no flag raises this budget."""


def _frontier_sweep(h, width):
    """One sweep over the diagram in _linear_order, where a vertex's upper
    covers come after it, so it may always join.

    Each live state (the frontier's in/out bits, one slot per frontier
    vertex) maps to its filter counts by size packed into one integer,
    `width` bits per size; width 0 packs nothing and counts every size
    together.  Returns the final packed counts.  Raises SweepBudgetError
    when the states kept after a step would need more than
    SWEEP_BUDGET_BYTES.
    """
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
        get = grown.get
        for state, counts in states.items():
            if not state & need_out:
                key = state & keep
                grown[key] = get(key, 0) + counts
            key = state & keep | bit
            grown[key] = get(key, 0) + (counts << width)
        # after t + 1 decisions a count has at most t + 2 bits per size field
        state_bytes = _ENTRY_BYTES + (next_slot + max(width, 1) * (t + 2)) // 8
        if len(grown) * state_bytes > SWEEP_BUDGET_BYTES:
            raise SweepBudgetError(
                f"filter counting needs {len(grown)} live states of up to {state_bytes} "
                f"bytes at step {t + 1} of {len(h)}, over the budget of "
                f"{SWEEP_BUDGET_BYTES >> 20} MiB"
            )
        states = grown
    return states[0]


def filter_counts_by_size(h):
    """Filter counts of the diagram by size: entry k is the number of filters
    with k elements, for k = 0 .. len(h).  Two frontier sweeps: the first
    counts all filters, and no count by size needs more bits than that."""
    width = _frontier_sweep(h, 0).bit_length()
    packed = _frontier_sweep(h, width)
    field = (1 << width) - 1
    return tuple(packed >> (width * k) & field for k in range(len(h) + 1))


def _pivot(up, down, mask):
    """The lowest-indexed element of the mask with the largest up-set in it.

    That element is minimal in the mask, as an element above another has a
    strictly smaller up-set, so only the minimal elements are weighed.  Each
    is found by walking down from the lowest-indexed element of the mask not
    above one found already, always to the highest-indexed element below:
    no step when the vertex indices rise along the order, one when they
    fall.  Every element visited is then dropped with the up-set of the
    minimal element it led to, so the search touches each element once.
    """
    pivot, best = -1, -1
    probe = mask
    while probe:
        i = (probe & -probe).bit_length() - 1
        below = (down[i] & mask) ^ (1 << i)
        while below:
            i = below.bit_length() - 1
            below = (down[i] & mask) ^ (1 << i)
        principal = up[i] & mask
        size = principal.bit_count()
        if size > best or size == best and i < pivot:
            pivot, best = i, size
        probe &= ~principal
    return pivot


def _filter_poly(h, mask, memo, rng=None):
    """Filter counts of the bitmask subposet, indexed by filter cardinality
    (the pivot recursion behind the oracle pivot_filter_counts)."""
    out = memo.get(mask)
    if out is not None:
        return out
    if mask == 0:
        memo[mask] = (1,)
        return (1,)
    up = h.up_masks()
    down = h.down_masks()
    if rng is None:
        pivot = _pivot(up, down, mask)
    else:
        candidates = [i for i in range(len(h)) if mask >> i & 1]
        pivot = rng.choice(candidates)
    principal = up[pivot] & mask
    without = _filter_poly(h, mask & ~(down[pivot] & mask), memo, rng)
    within = _filter_poly(h, mask & ~principal, memo, rng)
    shift = principal.bit_count()
    out = [0] * (mask.bit_count() + 1)
    for k, v in enumerate(without):
        out[k] += v
    for k, v in enumerate(within):
        out[k + shift] += v
    out = tuple(out)
    memo[mask] = out
    return out


def pivot_filter_counts(h, rng=None):
    """Filter counts by size from the pivot recursion with a fresh memo: the
    oracle for filter_counts_by_size.  The largest up-set is the pivot, or a
    random element when rng is given (the counts do not depend on the
    pivot).  Recursive and unbounded, so only for small diagrams."""
    return _filter_poly(h, (1 << len(h)) - 1, {}, rng)


def count_filters(h, cardinality=None):
    """Number of filters of the diagram's poset, optionally of one cardinality.

    The empty poset has exactly one filter (the empty one).  Raises
    SweepBudgetError when the frontier sweep overruns SWEEP_BUDGET_BYTES.
    For several cardinalities of one diagram, filter_counts_by_size sweeps
    once.
    """
    if cardinality is None:
        return _frontier_sweep(h, 0)
    if 0 <= cardinality <= len(h):
        return filter_counts_by_size(h)[cardinality]
    return 0


def _filter_masks(h, cardinality=None, cap=FILTER_CAP):
    """Count the filters and check the cap now, then return an iterator over
    every filter as the bitmask of its vertex indices.

    The walk splits on a pivot: a branch (mask, chosen) stands for the
    filters `chosen | F` with F a filter of the subposet induced on `mask`.
    A finite poset has a filter of every size from 0 to its own size (the
    top k elements of a linear extension), so a branch holds a filter of
    the wanted cardinality exactly when `0 <= cardinality - |chosen| <=
    |mask|`; no counting is needed to prune.  Hence every node pushed on
    the stack leads to at least one yielded filter, and as each pivot step
    removes at least the pivot from the mask, the walk takes at most
    (N + 1) * cap pivot steps on N vertices.

    Raises CapExceededError when more than `cap` filters would be produced,
    and SweepBudgetError when counting them overruns SWEEP_BUDGET_BYTES.
    """
    total = count_filters(h, cardinality)
    if total > cap:
        raise CapExceededError(f"{total} filters exceed the cap of {cap}")
    up, down = h.up_masks(), h.down_masks()

    def viable(mask, chosen):
        return cardinality is None or 0 <= cardinality - chosen.bit_count() <= mask.bit_count()

    def walk():
        # depth first on an explicit stack: the filters avoiding the pivot
        # come before those containing it
        full = (1 << len(h)) - 1
        stack = [(full, 0)] if viable(full, 0) else []
        while stack:
            mask, chosen = stack.pop()
            if mask == 0:
                yield chosen
                continue
            pivot = _pivot(up, down, mask)
            principal = up[pivot] & mask
            for branch, picked in (
                (mask & ~principal, chosen | principal),
                (mask & ~(down[pivot] & mask), chosen),
            ):
                if viable(branch, picked):
                    stack.append((branch, picked))

    return walk()


def enumerate_filters(h, cardinality=None, cap=FILTER_CAP):
    """Yield every filter as a frozenset of monomials, in the order of
    _filter_masks: at each pivot, the filters avoiding it come before
    those containing it.  Raises CapExceededError as _filter_masks does,
    when the first filter is asked for."""
    vertices = h.vertices
    for chosen in _filter_masks(h, cardinality, cap):
        yield frozenset(vertices[i] for i in _iter_bits(chosen))


def catalan(n):
    """The n-th Catalan number, comb(2n, n)/(n+1)."""
    if n < 0:
        raise ValueError("catalan(n) needs n >= 0")
    return comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def filter_count_three_vars(d, v):
    """Filters of cardinality v in the strongly-stable order on degree-d
    monomials in three variables: F(d,v) = F(d-1,v) + F(d-1,v-(d+1))."""
    if d < 1:
        raise ValueError("the three-variable recurrence starts at degree 1")
    if v < 0:
        return 0
    if d == 1:
        return 1 if v <= 3 else 0
    return filter_count_three_vars(d - 1, v) + filter_count_three_vars(d - 1, v - (d + 1))


@lru_cache(maxsize=None)
def weighted_walk_count(d, a, b, w):
    """Number of monotone lattice walks from (a, b) down-right to (d+2, 0)
    inside x+y <= d+2 whose vertical steps, labelled d+2-x-y at the step's
    upper end, sum to w.

    The b=0 base row is the displayed boundary convention; the recursion
    itself only ever bottoms out at b=1, so that row is reachable only by
    direct call.
    """
    if d < 0 or a < 0 or b < 0 or a + b > d + 2:
        raise ValueError("walk endpoint out of range")
    if b == 0:
        return 1 if w == d - a + 1 else 0
    if b == 1:
        return 1 if 0 <= w <= d + 1 - a else 0
    return sum(
        weighted_walk_count(d, j, b - 1, w + j + b - d - 2)
        for j in range(a, d + 2 - b + 1)
    )


def stable_filter_counts(d):
    """(total, by-cardinality) filter counts of the degree-d stable order in
    three variables, via the layer recursion GG(d,v) = GG(d-1,v) + CC(d-1,v-d-1)."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    if d == 0:
        return 2, (1, 1)
    gg = [1, 1, 1, 1]
    for e in range(2, d + 1):
        size = (e + 1) * (e + 2) // 2
        # CC(e-1, w): the filters of weight w of the two-variable staircase
        # of degree e-1, that is its weighted walks across the full region
        gg = [
            (gg[v] if v < len(gg) else 0)
            + (weighted_walk_count(e - 1, 0, e + 1, v - e - 1) if v > e else 0)
            for v in range(size + 1)
        ]
    return sum(gg), tuple(gg)


# ---------------------------------------------------------------------------
# monomial ideals given by generators


def minimal_generators(gens):
    """The divisibility antichain generating the same ideal, graded-lex sorted."""
    kept: list[Monomial] = []
    for g in sorted(set(gens), key=graded_lex_key):
        if not any(k.divides(g) for k in kept):
            kept.append(g)
    return tuple(kept)


def ideal_contains(gens, m):
    """Membership in the monomial ideal generated by gens."""
    return any(g.divides(m) for g in gens)


def _has_segment_in(members, m):
    """Whether the exponent tuple of an initial segment of m (its first k
    variables in index order, k = 0 .. deg m) is in `members`.  By
    Eliahou-Kervaire each m in a stable ideal is g*w with g a minimal
    generator and max(g) <= min(w), so g is such a segment: the test is
    exact when `members` lies in a stable ideal and holds its minimal
    generators, and never accepts m outside the ideal `members` generate."""
    exps = m.exps
    return () in members or any(
        exps[:j] + (a,) in members for j, e in enumerate(exps) for a in range(1, e + 1))


def _move_closure(gens, family):
    """Close under _generating_moves (which keep the degree) in rising
    degree.  When degree d begins, the members of lower degree are closed,
    so generate a stable ideal, and _has_segment_in is exact: a monomial
    joins only if outside the ideal so far, so members are the minimal
    generators.  Each is forced, and the result passes the generator test
    proved in _generating_moves."""
    poset = PosetId(family)
    members, closed = set(), []
    for g in sorted(set(gens), key=graded_lex_key):
        queue = [g]
        while queue:
            m = queue.pop()
            if not _has_segment_in(members, m):
                members.add(m.exps)
                closed.append(m)
                queue.extend(_generating_moves(poset, m))
    return tuple(sorted(closed, key=graded_lex_key))


def _is_closed(gens, family):
    """The generator test by _has_segment_in on set(gens): exact when the
    ideal is closed (so stable), and rejecting a move outside it if not."""
    poset, members = PosetId(family), {g.exps for g in gens}
    return all(_has_segment_in(members, u) for g in gens for u in _generating_moves(poset, g))


def borel_closure(gens):
    """Smallest strongly-stable (Borel) ideal containing the given generators."""
    return _move_closure(gens, Family.BOREL)


def stable_closure(gens):
    """Smallest stable ideal containing the given generators."""
    return _move_closure(gens, Family.STABLE)


def is_borel_ideal(gens):
    """Generator-local test: every move of every generator stays in the
    ideal.  (Checked against the degreewise definition in the test suite.)"""
    return _is_closed(gens, Family.BOREL)


def is_stable_ideal(gens):
    return _is_closed(gens, Family.STABLE)
