"""Hasse diagrams with their reachability bitmasks, and meets and joins.

Fixed-degree ground sets of the strongly-stable order form distributive
lattices computed coordinatewise on partial sums; the stable order also
forms a lattice but a non-modular one, whose meets and joins follow the
same case split on the last variable as its comparisons.  A diagram
answers comparisons through its up masks; verify.diagram_leq reads one off
them for the checks.  The rank sizes of a diagram and the Gaussian
polynomials they match live in verify.
"""

from functools import reduce
from operator import or_

from .monomials import Monomial, _require_width, monomials_up_to_degree, stars_and_bars
from .orders import (
    Family,
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

#: Bound on vertices times variables in one diagram: a vertex is a dense
#: exponent tuple, so a wide chain such as A[n=20000,d=1] holds about n^2/2
#: slots in few vertices.  No flag raises it.
SLOT_BUDGET = 4_000_000


class CapExceededError(ValueError):
    """A requested construction is larger than the allowed cap."""


class NotLatticeError(ValueError):
    """Some pair of vertices lacks a unique meet or join."""


class HasseDiagram:
    """A finite poset given by its vertices and covering pairs.

    Vertices are in graded-lex order; covers are (lower, upper) index pairs.
    The up masks and names are filled lazily and cached.  A diagram equals
    only itself.  build_hasse hands the same diagram to every caller that
    asks for it in one process, so nothing assigns to one once it is built.
    """

    __slots__ = ("poset", "vertices", "covers", "_up", "_names")

    def __init__(self, poset, vertices, covers):
        self.poset, self.vertices, self.covers = poset, vertices, covers
        self._up = self._names = None

    def __repr__(self):
        return f"HasseDiagram(poset={self.poset!r}, vertices={self.vertices!r}, covers={self.covers!r})"

    def __len__(self):
        return len(self.vertices)

    def up_masks(self):
        """up_masks()[i] has bit j set iff vertex i <= vertex j."""
        if self._up is None:
            self._up = _fill(self, True, lambda i, ups: reduce(or_, ups, 1 << i))
        return self._up

    def names(self):
        """names()[i] is str(vertex i)."""
        if self._names is None:
            self._names = tuple(map(str, self.vertices))
        return self._names


def diagram_size(poset, cap=VERTEX_CAP, max_degree=None):
    """The vertex count of the diagram build_hasse builds for these
    arguments, found without listing a vertex, after its refusals in this
    order: ValueError when the poset has no finite diagram,
    CapExceededError when there are more than `cap` vertices, and
    ValueError when a vertex, one exponent slot per variable, would be
    wider than MAX_VARIABLES."""
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
    _require_width(n)
    return size


# The diagrams built in this process by (poset, max_degree or None at a fixed
# degree), least recently used first, and the vertices and slots they hold.
_built, _held = {}, [0, 0]


def build_hasse(poset, cap=VERTEX_CAP, max_degree=None):
    """Build the Hasse diagram of a finite ground set, or of the truncation
    of a degree-unbounded poset to degrees <= max_degree: every vertex's
    upper covers are the ones _generating_moves lists, found by exponent
    tuple.  Refuses, before listing any vertex, as diagram_size does, and
    then with ValueError when the vertices times the n exponent slots a
    vertex may hold exceed SLOT_BUDGET.

    Every call makes those refusals, then returns the diagram an earlier
    call built for the same poset (and max_degree, if glued), if it is still
    held, with the up masks and names it has filled.  The diagrams held
    together stay within one diagram's budgets, VERTEX_CAP vertices and
    SLOT_BUDGET slots: before a build, the least recently used are dropped
    until the new one fits, and one past VERTEX_CAP (a raised cap) is not
    held.  So the names held, one string per vertex, are at most VERTEX_CAP,
    and the up masks held, about N^2 bits for N vertices, never pass those
    of one diagram at the default cap, as the sum of the N^2 is at most the
    square of the sum.  The held diagrams take no lock, so calls from
    several threads at once are not safe; the package starts no thread."""
    size = diagram_size(poset, cap, max_degree)
    n = poset.nvars
    if size * n > SLOT_BUDGET:
        raise ValueError(
            f"{size} vertices of up to {n} exponent slots exceed the budget of {SLOT_BUDGET} slots")
    key = (poset, max_degree if poset.degree is None else None)
    h = _built.pop(key, None)  # put back last: the most recently used
    if h is None:
        if not 0 < size <= VERTEX_CAP:  # nothing to save, or too large to hold
            return _build(poset, max_degree)
        while _held[0] + size > VERTEX_CAP or _held[1] + size * n > SLOT_BUDGET:
            old = _built.pop(next(iter(_built)))
            _held[0] -= len(old)
            _held[1] -= len(old) * old.poset.nvars
        h = _build(poset, max_degree)
        _held[0] += size
        _held[1] += size * n
    _built[key] = h
    return h


def _build(poset, max_degree):
    """The diagram build_hasse returns, built anew, with no check."""
    if poset.degree is None:
        vertices = tuple(monomials_up_to_degree(poset.nvars, max_degree))
    else:
        vertices = tuple(ground_monomials(poset))
    index = {m.exps: i for i, m in enumerate(vertices)}
    covers = sorted(
        (i, index[u])
        for i, m in enumerate(vertices)
        for u in _generating_moves(poset, m.exps, max_degree)
    )
    return HasseDiagram(poset, vertices, tuple(covers))


def _linear_order(h):
    """Vertex indices in lex order of their exponent vectors, index-reversed
    for the dual family C: a linear extension, as every cover rises in it.
    By _generating_moves, an upper cover in A, B or D moves a unit from x_j
    to x_i with i < j, or multiplies by x_i: either way the exponent vector
    first changes at position i, where it grows.  In C the covers move x_k
    -> x_{k+1} or multiply by x_1, which index reversal turns into a move to
    a smaller index or multiplication by x_n.  The frontier sweep runs in
    this order, which keeps few live states, and so does _fill."""
    n = h.poset.nvars
    step = -1 if h.poset.family is Family.DUAL_BOREL else 1
    return sorted(range(len(h)), key=lambda i: h.vertices[i].exponent_vector(n)[::step])


def _fill(h, upward, value):
    """Entry i is value(i, the entries of i's upper covers) when upward, of
    its lower covers otherwise, as a tuple.  The fill runs down
    _linear_order going up and along it going down, so every cover
    neighbour's entry is ready."""
    neighbours = [[] for _ in h.vertices]
    for lo, hi in h.covers:
        neighbours[lo if upward else hi].append(hi if upward else lo)
    order = _linear_order(h)
    out = [0] * len(h)
    for i in reversed(order) if upward else order:
        out[i] = value(i, [out[j] for j in neighbours[i]])
    return tuple(out)


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
    variables.  When both use x_n, the lower bounds with x_n are
    w*x_n^(d - deg w) for the common divisors w of the stripped parts, so
    the meet is their gcd padded back with x_n.

    Mixed case: f is free of x_n and D = u*x_n^a with a > 0.  Every lower
    bound of D uses x_n, so it is w*x_n^(d - deg w) for a divisor w of u,
    and it lies below f iff w*x_{n-1}^(d - deg w) <= f on n - 1 variables.
    Follow that condition down for k = n - 1, n - 2, ...; the padded w uses
    x_k, since d - deg w >= d - deg u > 0.  If f uses x_k, the condition is
    that w without x_k divides f without x_k, whatever w's x_k exponent.
    If not, padding with x_{k-1} absorbs w's x_k part, and the condition is
    the same one for w without x_k on k - 1 variables.  On one variable
    every w passes.  So with k the largest index below n with f_k > 0 (or
    k = 1 when there is none), w passes iff w_i <= f_i for all i < k.  The
    largest such divisor w* keeps u's exponents from x_k to x_{n-1} and
    takes gcd(u, f) below x_k.  It passes, and every w that passes divides
    it, so w*x_n^(d - deg w*) lies above every common lower bound and is
    the meet: the formula constructs the maximum.

    The first case is why the split may start from the operands' window,
    where it never arises: one operand uses the window's last variable.  So
    two variables need no case: the meet is the operand with the smaller x_1
    exponent if both use x_2, else (k = 1, w* = u) the one that does.
    """
    n = _window(m, mp)
    if n < 2:
        return m
    a, b = m.exponent_vector(n), mp.exponent_vector(n)
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


