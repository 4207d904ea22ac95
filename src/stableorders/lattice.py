"""Hasse diagrams, meets and joins, rank data, and Gaussian polynomials.

Fixed-degree ground sets of the strongly-stable order form distributive
lattices computed coordinatewise on partial sums; the stable order also
forms a lattice but a non-modular one, whose meets and joins follow the
same case split on the last variable as its comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .monomials import Monomial, monomials_up_to_degree, stars_and_bars
from .orders import (
    Family,
    GroundSetError,
    PosetId,
    _generating_moves,
    _require_member,
    _running_sums,
    _window,
    dual_rename,
    ground_monomials,
    monomial_from_partial_sums,
)

#: Default bound on the vertices of a Hasse diagram.
VERTEX_CAP = 50_000


class CapExceededError(ValueError):
    """A requested construction is larger than the allowed cap."""


class NotLatticeError(ValueError):
    """Some pair of vertices lacks a unique meet or join."""


class NotGradedError(ValueError):
    """Maximal chains of the diagram do not all have the same length."""


def _iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(eq=False)
class HasseDiagram:
    """A finite poset given by its vertices and covering pairs.

    Vertices are in graded-lex order; covers are (lower, upper) index pairs.
    Reachability bitmasks are computed lazily and cached.
    """

    poset: PosetId
    vertices: tuple[Monomial, ...]
    covers: tuple[tuple[int, int], ...]
    _index: dict | None = field(default=None, repr=False)
    _up: list | None = field(default=None, repr=False)
    _down: list | None = field(default=None, repr=False)

    def __len__(self):
        return len(self.vertices)

    def index(self, m):
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.vertices)}
        try:
            return self._index[m]
        except KeyError:
            raise GroundSetError(f"{m} is not a vertex of this diagram") from None

    def up_masks(self):
        """up_masks()[i] has bit j set iff vertex i <= vertex j."""
        if self._up is None:
            self._up = _fill(self, True, lambda i, ups: reduce(or_, ups, 1 << i))
        return self._up

    def down_masks(self):
        """down_masks()[j] has bit i set iff vertex i <= vertex j."""
        if self._down is None:
            self._down = _fill(self, False, lambda i, lows: reduce(or_, lows, 1 << i))
        return self._down

    def leq_indices(self, i, j):
        return bool(self.up_masks()[i] >> j & 1)

    def leq(self, m, mp):
        return self.leq_indices(self.index(m), self.index(mp))

    def to_dot(self):
        """DOT text with one node per vertex and one edge per cover (upper -> lower)."""
        lines = ["digraph hasse {"]
        for m in self.vertices:
            lines.append(f'  "{m}";')
        for lo, hi in self.covers:
            lines.append(f'  "{self.vertices[hi]}" -> "{self.vertices[lo]}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        nvars = self.poset.nvars
        return {
            "poset": str(self.poset),
            "vertices": [
                {"monomial": str(m), "exponents": m.exponent_vector(nvars)}
                for m in self.vertices
            ],
            "covers": [list(c) for c in self.covers],
        }


def build_hasse(poset, cap=VERTEX_CAP, max_degree=None):
    """Build the Hasse diagram of a finite ground set, or of the truncation
    of a degree-unbounded poset to degrees <= max_degree: every vertex's
    upper covers are the ones _generating_moves lists.  Raises
    CapExceededError, before listing any vertex, when there are more than
    `cap` of them."""
    n = poset.nvars
    if n is None:
        raise ValueError(f"{poset} has unboundedly many variables; no finite diagram")
    if poset.degree is None:
        if max_degree is None:
            raise ValueError(f"{poset} is degree-unbounded; pass max_degree to truncate")
        bars, stars = n, max_degree
    elif poset.family is Family.DIVISIBILITY:
        bars, stars = n, poset.degree
    else:
        bars, stars = n - 1, poset.degree
    # exact up to 2**32 whatever the cap, far past any diagram that could be
    # listed, so a refusal names the count a listing would have found
    size = stars_and_bars(bars, stars, max(cap, 2**32))
    if size is None:
        raise CapExceededError(f"at least 2**{min(bars, stars)} vertices exceed the cap of {cap}")
    if size > cap:
        raise CapExceededError(f"{size} vertices exceed the cap of {cap}")
    if poset.degree is None:
        vertices = tuple(monomials_up_to_degree(n, max_degree))
    else:
        vertices = tuple(ground_monomials(poset))
    index = {m: i for i, m in enumerate(vertices)}
    covers = sorted(
        (i, index[u])
        for i, m in enumerate(vertices)
        for u in _generating_moves(poset, m, max_degree)
    )
    return HasseDiagram(poset, vertices, tuple(covers))


def _linear_order(h):
    """Vertex indices in lex order of their exponent vectors, index-reversed
    for the dual family C: a linear extension, as every cover rises in it.
    By _generating_moves, an upper cover in A, B or D moves a unit from x_j
    to x_i with i < j, or multiplies by x_i: either way the exponent vector
    first changes at position i, where it grows.  In C the covers move x_k
    -> x_{k+1} or multiply by x_1, which index reversal turns into a move to
    a smaller index or multiplication by x_n."""
    n = h.poset.nvars
    step = -1 if h.poset.family is Family.DUAL_BOREL else 1
    return sorted(range(len(h)), key=lambda i: h.vertices[i].exponent_vector(n)[::step])


def _fill(h, upward, value):
    """Entry i is value(i, the entries of i's upper covers) when upward, of
    its lower covers otherwise.  The fill runs down _linear_order going up
    and along it going down, so every cover neighbour's entry is ready."""
    neighbours = [[] for _ in h.vertices]
    for lo, hi in h.covers:
        neighbours[lo if upward else hi].append(hi if upward else lo)
    order = _linear_order(h)
    out = [0] * len(h)
    for i in reversed(order) if upward else order:
        out[i] = value(i, [out[j] for j in neighbours[i]])
    return out


def meet(poset, m, mp):
    """Greatest lower bound of m and mp in the given poset."""
    return _bound(poset, m, mp, want_join=False)


def join(poset, m, mp):
    """Least upper bound of m and mp in the given poset."""
    return _bound(poset, m, mp, want_join=True)


def _bound(poset, m, mp, want_join):
    _require_member(poset, m)
    _require_member(poset, mp)
    family = poset.family
    if family is Family.DIVISIBILITY:
        if not want_join:
            return m.gcd(mp)
        out = m.lcm(mp)
        if not poset.contains(out):
            raise NotLatticeError(f"{m} and {mp} have no upper bound in {poset}")
        return out
    if family is Family.BOREL:
        return _borel_bound(m, mp, want_join)
    if family is Family.DUAL_BOREL:
        # index reversal is an order isomorphism onto the strongly-stable family,
        # so meets map to meets and joins to joins; in the operands' window,
        # as reversal puts the variables above it first, 0 in every sum
        n = _window(m, mp)
        mapped = _borel_bound(dual_rename(m, n), dual_rename(mp, n), want_join)
        return dual_rename(mapped, n)
    # stable family: lattice structure holds degreewise only
    if poset.degree is None:
        raise ValueError("meet/join in the stable family needs a fixed degree")
    return (_stable_join if want_join else _stable_meet)(m, mp)


def _borel_bound(m, mp, want_join):
    n = _window(m, mp)
    pick = max if want_join else min
    return monomial_from_partial_sums(
        tuple(map(pick, _running_sums(m.exps, n), _running_sums(mp.exps, n))))


def _stable_meet(m, mp):
    """Greatest lower bound in the stable order on fixed-degree monomials.

    Case split on the last variable x_n, by the two facts of
    orders._stable_leq: on monomials with x_n the order is divisibility of
    the stripped parts, and u*x_n^a (a > 0) lies below a monomial free of
    x_n iff u*x_{n-1}^a does.  When neither side uses x_n, every lower bound
    with x_n lies below one free of x_n, so the meet is that on n - 1
    variables; on two variables the order is a chain.  When both use x_n,
    the lower bounds with x_n are w*x_n^(d - deg w) for the common divisors
    w of the stripped parts, so the meet is their gcd padded back with x_n.

    Mixed case: f is free of x_n and D = u*x_n^a with a > 0.  Every lower
    bound of D uses x_n, so it is w*x_n^(d - deg w) for a divisor w of u,
    and it lies below f iff w*x_{n-1}^(d - deg w) <= f on n - 1 variables.
    Follow that condition down for k = n - 1, n - 2, ...; the padded w uses
    x_k, since d - deg w >= d - deg u > 0.  If f uses x_k, the condition is
    that w without x_k divides f without x_k, whatever w's x_k exponent.
    If not, padding with x_{k-1} absorbs w's x_k part, and the condition is
    the same one for w without x_k on k - 1 variables.  On two variables the
    chain asks w_1 <= d - f_2 = f_1, the same divisibility, and on one
    variable every w passes.  So with k the largest index below n with
    f_k > 0 (or k = 1 when there is none), w passes iff w_i <= f_i for all
    i < k.  The largest such divisor w* keeps u's exponents from x_k to
    x_{n-1} and takes gcd(u, f) below x_k.  It passes, and every w that
    passes divides it, so w*x_n^(d - deg w*) lies above every common lower
    bound and is the meet: the formula constructs the maximum.

    Each step either answers or lowers n by one, so the split runs as a loop,
    from the operands' window: above both supports it only steps down.
    """
    n = _window(m, mp)
    a, b = m.exponent_vector(n), mp.exponent_vector(n)
    while n > 2 and not a[n - 1] and not b[n - 1]:
        n -= 1
    if n <= 2:
        # a chain: the larger last exponent sits lower
        return m if n < 2 or a[1] >= b[1] else mp
    if a[n - 1] and b[n - 1]:
        u, f, k = a, b, n - 1
    else:
        u, f = (a, b) if a[n - 1] else (b, a)
        k = n - 2
        while k and not f[k]:
            k -= 1
    w = list(map(min, u[:k], f[:k])) + u[k : n - 1]
    return Monomial(w + [m.degree() - sum(w)])


def _stable_join(m, mp):
    """Least upper bound in the stable order on fixed-degree monomials.

    The same case split as the meet: go down a variable when neither uses
    the last variable x_n.  Nothing free of x_n lies below something with
    x_n, and u*x_{n-1}^a is the least monomial free of x_n above u*x_n^a, so
    the upper bounds free of x_n are those of the pair with x_n stripped and
    padded back with x_{n-1}.  When both use x_n and the lcm L of the
    stripped parts has degree below d, L*x_n^(d - deg L) is an upper bound
    with x_n, the least of those by divisibility; the join (the order is a
    lattice) lies below it, so uses x_n too, and is it.  Otherwise no upper
    bound uses x_n, and the join is that of the padded pair on n - 1
    variables.  On one variable there is a single monomial.

    Each step either answers or lowers n by one, so the split runs as a loop
    over exponent lists: padding with x_{n-1} adds the x_n exponent to entry
    n - 1.  It starts from the operands' window, above which it only steps down.
    """
    n = _window(m, mp)
    degree = m.degree()
    a, b = m.exponent_vector(n), mp.exponent_vector(n)
    while n > 1:
        if a[n - 1] and b[n - 1]:
            lcm = list(map(max, a[: n - 1], b[: n - 1]))
            if sum(lcm) < degree:
                return Monomial(lcm + [degree - sum(lcm)])
        a[n - 2] += a[n - 1]
        b[n - 2] += b[n - 1]
        n -= 1
    return Monomial(a[:n])


def _meet_join_tables(h):
    """All pairwise meets and joins by bitmask scans; raises NotLatticeError."""
    n = len(h)
    up, down = h.up_masks(), h.down_masks()
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
    n = len(h)
    for a in range(n):
        for b in range(n):
            if b == a or h.leq_indices(a, b) or h.leq_indices(b, a):
                continue
            for c in range(n):
                if c in (a, b) or not h.leq_indices(b, c):
                    continue
                if h.leq_indices(a, c) or h.leq_indices(c, a):
                    continue
                if meets[a][b] == meets[a][c] and joins[a][b] == joins[a][c]:
                    verts = h.vertices
                    return (verts[meets[a][b]], verts[a], verts[b], verts[c], verts[joins[a][b]])
    return None


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
