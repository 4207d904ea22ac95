"""The verify suites: each re-derives one group of the package's claims at
runtime, mostly by checking a fast path against an independent oracle (move
reachability, pivot counts, subset scans, brute-force meets and joins).

The oracles live here, and in no module a command answers from: the
exchange moves borel_moves_up and stable_moves_up, which
reachability_oracle walks breadth first (the check on orders.leq),
diagram_leq, which reads the same relation off a diagram's up masks, and
down_masks, their transpose; the pairwise meets and joins of
_meet_join_tables, and check_distributive, find_n5 and height_width,
which read lattice facts off them; the memoized
pivot recursion pivot_filter_counts (the check on the frontier sweep); and
ordinal_sum_leq, the intersection of the degree-compatible term orders.

So do the paper's constructions that no command runs, each a second way
to an answer a command finds: rank sizes and Gaussian polynomials, the
interior and the layerwise filter test, filters listed as monomial sets,
the three-variable recurrence, the weighted walks counted one at a time,
and the walk, fountain and planar-partition enumerations.  The tests
import them from here too.

run_suite(name, seed) runs the suite SUITES[name] and returns its report.
"""

import time
from functools import lru_cache, reduce
from itertools import combinations

from .monomials import Monomial, _moved, _stripped, graded_lex_key, monomials_up_to_degree
from .orders import (
    Family,
    GroundSetError,
    PosetId,
    _Record,
    _borel_leq,
    _generating_moves,
    _require_member,
    _running_sums,
    dual_rename,
    ground_monomials,
    leq,
    monomial_from_partial_sums,
)
from .lattice import HasseDiagram, NotLatticeError, _fill, build_hasse, join, meet
from .filters import (
    FILTER_CAP,
    _filter_masks,
    _pivot,
    catalan,
    closed_form_counts,
    closure,
    count_filters,
    filter_counts_by_size,
    is_filter,
    _walk_weights,
    stable_filter_counts,
)
from .bijections import (
    LatticeWalk,
    _check_partition,
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
from .termorders import GREATER, LESS, TermOrder, refines_borel, separating_witnesses


# ---------------------------------------------------------------------------
# oracles: the brute force that the suites below and the tests check the
# fast paths against


def borel_moves_up(m):
    """All single exchange moves x_i/x_j with i < j, one for each usable pair.

    These generate the strongly-stable (Borel) order: each move replaces one
    copy of some occurring variable x_j by a strictly smaller-index variable.
    """
    moves = set()
    for j in range(2, m.max_support() + 1):
        if m.exponent(j) == 0:
            continue
        for i in range(1, j):
            moves.add(Monomial(_moved(m.exps, i, j)))
    return frozenset(moves)


def stable_moves_up(m):
    """Exchange moves allowed in the stable order: only the last variable moves.

    Only one copy of x_v, v = max_support(m), may be replaced by a
    smaller-index variable.
    """
    v = m.max_support()
    if v < 2:
        return frozenset()
    return frozenset(Monomial(_moved(m.exps, i, v)) for i in range(1, v))


def reachability_oracle(poset, m, mp):
    """Decide m <= mp by brute-force search over generating relations only.

    Used as an independent check on leq: it never consults partial sums or
    the stable case split, just walks exchange moves (and multiplication when
    the degree is unbounded).
    """
    _require_member(poset, m)
    _require_member(poset, mp)
    family = poset.family
    if family is Family.DUAL_BOREL:
        n = poset.nvars
        renamed = PosetId(Family.BOREL, n, poset.degree)
        return reachability_oracle(renamed, dual_rename(m, n), dual_rename(mp, n))
    if m == mp:
        return True
    target_degree = mp.degree()
    if m.degree() > target_degree:
        return False
    nvars = poset.nvars or max(m.max_support(), mp.max_support(), 1)
    allow_multiplication = poset.degree is None or family is Family.DIVISIBILITY

    def neighbors(u):
        out = set()
        if family is Family.BOREL:
            out.update(borel_moves_up(u))
        elif family is Family.STABLE:
            out.update(stable_moves_up(u))
        if allow_multiplication and u.degree() < target_degree:
            out.update(Monomial(_moved(u.exps, i)) for i in range(1, nvars + 1))
        return out

    seen = {m}
    frontier = [m]
    while frontier:
        nxt = []
        for u in frontier:
            for w in neighbors(u):
                if w == mp:
                    return True
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return False


def diagram_leq(h, m, mp):
    """Whether m <= mp in the diagram's poset, read off its up masks, that
    is by reachability over its covers; ValueError when either is not one
    of its vertices."""
    index = h.vertices.index
    return bool(h.up_masks()[index(m)] >> index(mp) & 1)


def down_masks(h):
    """down_masks(h)[j] has bit i set iff vertex i <= vertex j: the up masks'
    transpose, which only the checks read."""
    return _fill(h, False, lambda i, lows: reduce(int.__or__, lows, 1 << i))


# The benchmark's tracer (perfbench/tracing.py) times the mask fills by
# wrapping HasseDiagram.down_masks by name, so the method stays reachable.
HasseDiagram.down_masks = down_masks


def _iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _meet_join_tables(h):
    """All pairwise meets and joins by bitmask scans; raises NotLatticeError."""
    n = len(h)
    up, down = h.up_masks(), down_masks(h)
    meets = [[0] * n for _ in range(n)]
    joins = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            common = down[i] & down[j]
            best = [k for k in _iter_bits(common) if up[k] & common == 1 << k]
            if len(best) != 1:
                raise NotLatticeError(f"{h.vertices[i]} and {h.vertices[j]} lack a unique meet")
            meets[i][j] = meets[j][i] = best[0]
            common = up[i] & up[j]
            best = [k for k in _iter_bits(common) if down[k] & common == 1 << k]
            if len(best) != 1:
                raise NotLatticeError(f"{h.vertices[i]} and {h.vertices[j]} lack a unique join")
            joins[i][j] = joins[j][i] = best[0]
    return meets, joins


def check_distributive(h):
    """Test a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c) over all vertex triples.

    Returns (True, None) or (False, first violating triple of monomials).
    """
    meets, joins = _meet_join_tables(h)
    n = len(h)
    for a in range(n):
        row = meets[a]
        for b in range(n):
            for c in range(n):
                if row[joins[b][c]] != joins[row[b]][row[c]]:
                    return False, (h.vertices[a], h.vertices[b], h.vertices[c])
    return True, None


def find_n5(h):
    """Search for a pentagon sublattice (bottom, a, b, c, top) with b < c and a
    incomparable to both; returns None when the lattice is modular."""
    meets, joins = _meet_join_tables(h)
    n, up = len(h), h.up_masks()
    for a in range(n):
        for b in range(n):
            if b == a or up[a] >> b & 1 or up[b] >> a & 1:
                continue
            for c in range(n):
                if c in (a, b) or not up[b] >> c & 1:
                    continue
                if up[a] >> c & 1 or up[c] >> a & 1:
                    continue
                if meets[a][b] == meets[a][c] and joins[a][b] == joins[a][c]:
                    verts = h.vertices
                    return (verts[meets[a][b]], verts[a], verts[b], verts[c], verts[joins[a][b]])
    return None


def height_width(h):
    """(length of a longest chain, size of a largest antichain).

    The width is exact: by Dilworth's theorem it equals the number of vertices
    minus a maximum matching in the bipartite strict-comparability graph.
    """
    ranks = _longest_path_ranks(h)
    height = max(ranks, default=0)

    n = len(h)
    up = h.up_masks()
    adjacency = [list(_iter_bits(up[i] & ~(1 << i))) for i in range(n)]
    match_right = [-1] * n

    def augment(u, visited):
        for v in adjacency[u]:
            if v in visited:
                continue
            visited.add(v)
            if match_right[v] == -1 or augment(match_right[v], visited):
                match_right[v] = u
                return True
        return False

    matched = sum(1 for u in range(n) if augment(u, set()))
    return height, n - matched


def _filter_poly(up, down, mask, memo, rng=None):
    """Filter counts of the bitmask subposet by cardinality, the recursion
    behind pivot_filter_counts; every element of the mask is a candidate."""
    out = memo.get(mask)
    if out is not None:
        return out
    if mask == 0:
        memo[mask] = (1,)
        return (1,)
    if rng is None:
        pivot = _pivot(up, mask, mask)
    else:
        candidates = [i for i in range(len(up)) if mask >> i & 1]
        pivot = rng.choice(candidates)
    principal = up[pivot] & mask
    without = _filter_poly(up, down, mask & ~(down[pivot] & mask), memo, rng)
    within = _filter_poly(up, down, mask & ~principal, memo, rng)
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
    oracle for filter_counts_by_size.  The pivot is _pivot's over the whole
    mask, or a random element given rng (the counts do not depend on the
    pivot).  Recursive and unbounded, so only for small diagrams."""
    return _filter_poly(h.up_masks(), down_masks(h), (1 << len(h)) - 1, {}, rng)


def ordinal_sum_leq(m, mp):
    """The ordinal sum of the fixed-degree strongly-stable orders: lower
    degree first, strongly-stable comparison within a degree."""
    if m.degree() != mp.degree():
        return m.degree() < mp.degree()
    return _borel_leq(m, mp)


# ---------------------------------------------------------------------------
# the paper's constructions that no command runs: each only re-checks an
# answer that a command finds another way


def partial_sums(m):
    """The tuple of running partial sums of m's exponents over its support
    (over x1 for the unit); the last entry is the total degree."""
    return _running_sums(m.exps, max(len(m.exps), 1))


class NotGradedError(ValueError):
    """Maximal chains of the diagram do not all have the same length."""


def _longest_path_ranks(h):
    return _fill(h, False, lambda i, lows: 1 + max(lows, default=-1))


def rank_sizes(h):
    """Vertex counts per rank of a graded diagram (rank 0 at the bottom)."""
    ranks = _longest_path_ranks(h)
    for lo, hi in h.covers:
        if ranks[hi] - ranks[lo] != 1:
            raise NotGradedError(f"cover {h.vertices[lo]} < {h.vertices[hi]} skips a rank")
    has_upper = {lo for lo, _ in h.covers}
    top_ranks = {ranks[i] for i in range(len(h)) if i not in has_upper}
    if len(top_ranks) > 1:
        raise NotGradedError("maximal chains end at different heights")
    counts = [0] * (max(ranks, default=0) + 1)
    for r in ranks:
        counts[r] += 1
    return counts


def gaussian(a, b):
    """Gaussian binomial [a+b choose a] by the Pascal-type recurrence
    P(a,b) = P(a-1,b) + q^a * P(a,b-1); counts partitions in an a-by-b box.
    Returns the coefficient tuple, constant term first."""
    if a < 0 or b < 0:
        raise ValueError("gaussian(a, b) needs a, b >= 0")
    previous_row = [[1]] * (b + 1)  # row i = 0
    for i in range(1, a + 1):
        row = [[1]]
        for j in range(1, b + 1):
            upper = previous_row[j]
            left = row[j - 1]
            size = i * j + 1
            coeffs = [0] * size
            for k, v in enumerate(upper):
                coeffs[k] += v
            for k, v in enumerate(left):
                coeffs[k + i] += v
            row.append(coeffs)
        previous_row = row
    return tuple(previous_row[b])


def _is_up_closed(keys, poset):
    """is_filter on a set of exponent tuples known to lie in the ground set."""
    return all(keys.issuperset(_generating_moves(poset, e)) for e in keys)


def _interior(keys, nvars):
    """interior on a set of exponent tuples."""
    return {
        e for e in keys
        if all(_moved(e, j, i) in keys
               for i in range(1, min(len(e), nvars) + 1) if e[i - 1]
               for j in range(i + 1, nvars + 1))
    }


def interior(elements, nvars):
    """Members that stay inside under every downward exchange x_j/x_i, i < j.

    A monomial v survives when for all i < j <= nvars with x_i dividing v,
    the monomial v*x_j/x_i also belongs to the set.
    """
    members = frozenset(elements)
    inner = _interior({m.exps for m in members}, nvars)
    return frozenset(m for m in members if m.exps in inner)


def boundary(elements, nvars):
    """The set minus its interior."""
    return frozenset(elements) - interior(elements, nvars)


def is_filter_by_layers(elements, nvars, degree):
    """Layerwise filter test: slice the degree-`degree` monomials by the
    exponent i of x_nvars, stripping it off (layer i).  Every slice
    must be a filter one variable down, and pushing the next slice up by x1
    must land in the previous slice's interior.  Agrees with is_filter on the
    strongly-stable order."""
    if nvars < 3:
        raise ValueError("the layerwise test needs at least three variables")
    layers = [set() for _ in range(degree + 1)]
    for m in elements:
        if m.max_support() > nvars or m.degree() != degree:
            raise GroundSetError(f"{m} is not a degree-{degree} monomial in {nvars} variables")
        layers[m.exponent(nvars)].add(_stripped(m.exps[: nvars - 1]))
    for i, layer in enumerate(layers):
        if not _is_up_closed(layer, PosetId(Family.BOREL, nvars - 1, degree - i)):
            return False
    for i in range(degree):
        lifted = {_moved(e, 1) for e in layers[i + 1]}
        if not lifted <= _interior(layers[i], nvars - 1):
            return False
    return True


def enumerate_filters(h, cardinality=None, cap=FILTER_CAP):
    """Yield every filter as a frozenset of monomials, in the order of
    _filter_masks: at each pivot, the filters avoiding it come before
    those containing it.  Raises CapExceededError as _filter_masks does,
    when the first filter is asked for."""
    low, masks = _filter_masks(h, cardinality, cap)
    vertices = h.vertices[low:]
    for chosen in masks:
        yield frozenset(vertices[i] for i in _iter_bits(chosen))


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


def weighted_walk_count(d, a, b, w):
    """Number of monotone lattice walks from (a, b) down-right to (d+2, 0)
    inside x+y <= d+2 whose vertical steps, labelled d+2-x-y at the step's
    upper end, sum to w: entry w of filters._walk_weights(d, b, w)[a].

    The b=0 base row is the displayed boundary convention; the table starts
    at b=1, so that row is reachable only by direct call.
    """
    if d < 0 or a < 0 or b < 0 or a + b > d + 2:
        raise ValueError("walk endpoint out of range")
    if b == 0:
        return 1 if w == d - a + 1 else 0
    weights = _walk_weights(d, b, w)[a]
    return weights[w] if 0 <= w < len(weights) else 0

def young_contains(outer, inner):
    """Diagram containment: inner fits inside outer row by row."""
    outer = _check_partition(outer)
    inner = _check_partition(inner)
    if len(inner) > len(outer):
        return False
    return all(a <= b for a, b in zip(inner, outer))


def remove_first_column(rows):
    """Strip the first column of a Young diagram: subtract 1 from each row."""
    rows = _check_partition(rows)
    return tuple(r - 1 for r in rows if r > 1)


def enumerate_walks(region):
    """Yield every admissible walk, down-steps preferred first."""

    def rec(downs, rights, acc):
        if downs == region and rights == region:
            yield LatticeWalk(region, acc)
            return
        if downs < region:
            yield from rec(downs + 1, rights, acc + ("D",))
        if rights < downs and rights < region:
            yield from rec(downs, rights + 1, acc + ("R",))

    yield from rec(0, 0, ())


class Fountain(_Record):
    """Rows of coin positions: the base row is contiguous from 0, and every
    higher coin rests on two adjacent coins of the row below.  Rows above the
    base need not be contiguous."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self._init(rows)
        for r, row in enumerate(self.rows):
            if not row:
                raise ValueError("fountain rows must be nonempty")
            if any(b <= a for a, b in zip(row, row[1:])):
                raise ValueError("row positions must strictly increase")
            if r == 0:
                if row != tuple(range(len(row))):
                    raise ValueError("the base row must be contiguous starting at 0")
            else:
                below = set(self.rows[r - 1])
                for p in row:
                    if p not in below or p + 1 not in below:
                        raise ValueError(f"coin at {p} in row {r} lacks support")

    def coins(self):
        return sum(len(row) for row in self.rows)


def iter_fountains(total):
    """Yield every fountain with the given number of coins."""
    if total < 0:
        raise ValueError("coin count must be non-negative")
    if total == 0:
        yield Fountain(())
        return

    def extend(rows, remaining):
        if remaining == 0:
            yield Fountain(rows)
            return
        prev = rows[-1]
        prev_set = set(prev)
        allowed = [p for p in prev if p + 1 in prev_set]
        for size in range(1, min(len(allowed), remaining) + 1):
            for combo in combinations(allowed, size):
                yield from extend(rows + (combo,), remaining - size)

    for base in range(1, total + 1):
        yield from extend((tuple(range(base)),), total - base)


def count_fountains(total):
    """Number of fountains with the given number of coins (brute force)."""
    return sum(1 for _ in iter_fountains(total))


def limit_filter_count(weight):
    """Filters of the stable order in three variables with exactly `weight`
    elements, at any degree past weight (the counts stabilize; degree
    weight+1 already reaches the limit)."""
    if weight < 0:
        raise ValueError("weight must be non-negative")
    h = build_hasse(PosetId(Family.STABLE, 3, weight + 1))
    return count_filters(h, weight)


class PlanarPartition(_Record):
    """A matrix of stack heights, weakly decreasing along rows and columns."""

    __slots__ = ("heights",)

    def __init__(self, heights):
        self._init(heights)
        for row in self.heights:
            if any(b > a for a, b in zip(row, row[1:])):
                raise ValueError("rows must be weakly decreasing")
        for upper, lower in zip(self.heights, self.heights[1:]):
            if len(lower) != len(upper):
                raise ValueError("height rows must form a matrix")
            if any(b > a for a, b in zip(upper, lower)):
                raise ValueError("columns must be weakly decreasing")


def _strict_partitions(max_part):
    """All partitions into distinct parts <= max_part (the empty one first)."""
    out = [()]
    for size in range(1, max_part + 1):
        for combo in combinations(range(1, max_part + 1), size):
            out.append(tuple(sorted(combo, reverse=True)))
    return out


def _fits_under(nxt, prev):
    """Level condition: row t of the next level fits under row t+1 of the
    previous one (so each level sits strictly inside the interior below)."""
    return all(t + 1 < len(prev) and nxt[t] <= prev[t + 1] for t in range(len(nxt)))


def iter_filter_level_stacks(degree):
    """Yield the level sequences (one distinct-parts partition per x4-layer)
    that encode filters of the four-variable fixed-degree order."""

    def rec(level, prev, acc):
        if level > degree:
            yield acc
            return
        for cand in _strict_partitions(degree + 1 - level):
            if prev is None or _fits_under(cand, prev):
                yield from rec(level + 1, cand, acc + (cand,))

    yield from rec(0, None, ())


def planar_partition_from_levels(levels, degree):
    """Stack the level partitions into a planar partition: the height over
    cell (t, c) counts the levels whose row t exceeds c."""
    box = degree + 1
    heights = tuple(
        tuple(
            sum(1 for lam in levels if t < len(lam) and lam[t] > c)
            for c in range(box)
        )
        for t in range(box)
    )
    return PlanarPartition(heights)


def random_weight_vector(nvars, rng):
    """A random strictly decreasing positive weight vector: gaps of 1 to 5."""
    gaps = [rng.randint(1, 5) for _ in range(nvars)]
    weights = []
    running = 0
    for g in reversed(gaps):
        running += g
        weights.append(running)
    return tuple(reversed(weights))


# ---------------------------------------------------------------------------
# suites


class VerifyReport(_Record):
    """Pass/fail counts of one suite run; the suite fills it through check.
    Unlike the other records it is filled in place, so it has no hash."""

    __slots__ = ("suite", "passed", "failed", "failures", "runtime_ms")
    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(self, suite, passed=0, failed=0, failures=None, runtime_ms=0.0):
        self._init(suite, passed, failed, [] if failures is None else failures, runtime_ms)

    def check(self, name, condition):
        if condition:
            self.passed += 1
        else:
            self.failed += 1
            self.failures.append(name)


def run_suite(name, seed=0):
    """Run one verification suite and report pass/fail counts."""
    import random  # only the suites draw random cases

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


def _matches_closed_form(poset, counts, oracle, max_degree=None):
    """closed_form_counts against the sweep's and the pivot oracle's counts
    by size of one diagram: the total always, the counts by size where it
    gives them."""
    profile = closed_form_counts(poset, max_degree, len(counts) - 1)
    return (
        counts == oracle
        and closed_form_counts(poset, max_degree) == sum(counts)
        and (profile is None or profile == counts)
    )


def _closed_forms_match(texts):
    """_matches_closed_form on the diagram of each (poset id, max_degree)."""
    for text, max_degree in texts:
        h = build_hasse(PosetId.parse(text), max_degree=max_degree)
        counts, oracle = filter_counts_by_size(h), pivot_filter_counts(h)
        if not _matches_closed_form(h.poset, counts, oracle, max_degree):
            return False
    return True


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
        c.check(f"closed form matches the sweep and pivot counts (A[n=3,d={d}])",
                _matches_closed_form(h.poset, counts, oracle))
    chains = (("A[n=2,d=4]", None), ("B[n=2,d=3]", None), ("C[n=2,d=5]", None),
              ("A[n=5,d=1]", None), ("B[n=6,d=1]", None), ("C[n=4,d=1]", None),
              ("A[n=1,d=3]", None), ("B[n=4,d=0]", None), ("D[n=1,d=5]", None),
              ("D[n=4,d=0]", None), ("D[n=1]", 3), ("D[n=3]", -1))
    c.check("chain closed forms match the sweep and pivot counts", _closed_forms_match(chains))
    conjugates = (("A[n=4,d=2]", None), ("A[n=6,d=2]", None), ("C[n=3,d=4]", None),
                  ("C[n=5,d=2]", None))
    c.check("side-2 closed forms match the sweep and pivot counts on A[n,2] and C",
            _closed_forms_match(conjugates))
    side_three = (("A[n=4,d=3]", None), ("A[n=4,d=4]", None), ("C[n=4,d=3]", None),
                  ("A[n=5,d=3]", None))
    c.check("side-3 closed forms match the sweep and pivot counts on A[n=4,d], A[n,3] and C",
            _closed_forms_match(side_three))
    glued = (("A[n=3]", 3), ("C[n=2]", 4), ("A[n=1]", 4), ("C[n=3]", -1))
    c.check("glued A and C closed forms match the sweep and pivot counts as A[n+1,d]",
            _closed_forms_match(glued))
    h = build_hasse(PosetId(Family.BOREL, 3, 3))
    c.check(
        "enumeration agrees with counting on the degree-3 three-variable order",
        len(list(enumerate_filters(h))) == count_filters(h) == 16,
    )


def _suite_stable_counts(c, rng):
    for d in range(0, 6):
        c.check(
            f"stable filter total is a Catalan partial sum (d={d})",
            sum(stable_filter_counts(d)) == sum(catalan(i) for i in range(d + 2)),
        )
    for d in range(1, 5):
        h = build_hasse(PosetId(Family.STABLE, 3, d))
        by_size = stable_filter_counts(d)
        oracle, counts = pivot_filter_counts(h), filter_counts_by_size(h)
        ok = all(
            counts[v] == (by_size[v] if v < len(by_size) else 0) == oracle[v]
            for v in range(len(h) + 1)
        )
        c.check(f"stable counts by size match pivot counts (d={d})", ok)
        c.check(f"closed form matches the sweep and pivot counts (B[n=3,d={d}])",
                _matches_closed_form(h.poset, counts, oracle))
    for d in range(1, 6):
        c.check(f"closed form matches the sweep and pivot counts (D[n=2,d={d}])",
                _closed_forms_match([(f"D[n=2,d={d}]", None)]))
    c.check("closed form matches the sweep and pivot counts (D[n=2] to degrees 2 and 4)",
            _closed_forms_match([("D[n=2]", 2), ("D[n=2]", 4)]))
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
            closed = frozenset(closure(subset, Family.BOREL))
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
        poset = PosetId(Family.BOREL, 4, d)
        got = len(list(iter_filter_level_stacks(d)))
        want = count_filters(build_hasse(poset))
        c.check(f"planar partition count matches four-variable filters (d={d})",
                got == want == closed_form_counts(poset))
    for d in range(0, 3):
        stacks = list(iter_filter_level_stacks(d))
        # each builds a valid planar partition, and no two the same one
        ok = len({planar_partition_from_levels(levels, d) for levels in stacks}) == len(stacks)
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
