"""Filters (up-closed sets) of the monomial orders: tests, counts, enumeration.

Counting sweeps the Hasse diagram, deciding vertex after vertex whether it
is in the filter, in lex order of the exponent vectors (index-reversed for
the dual family): a linear extension, so a vertex may always join, and may
stay out only if none of its lower covers is in.  The sweep's state is the
set of future vertices already forced in (the upper covers of the members
so far), each state carrying its filter counts by size: the transfer-matrix
count of order ideals (Knuth, TAOCP 4A, 7.1.4).  Along that order every
family's layers force few distinct sets; a memory budget on the live
states bounds the work.  Counting the filters of an arbitrary poset is
#P-complete, so that layering is where the speed comes from.

Enumeration walks the pivot tree on bitmask subposets: filters avoiding a
minimal pivot are filters of the rest, and filters containing it hold its
up-set; each branch carries its minimal elements down, so none is sought.

Also here: closed_form_counts, the filters of the posets the paper counts
in closed form (chains, A and C of sides 2 and 3, glued A, C and D as
fixed-degree ones, D[n=2,d], B[n=3,d]) without a diagram, by the product
series of sides 2 and 3 (q-TSPP for side 3) and the weighted-walk tables
of the last two, under a work budget; and the (strongly) stable ideal
closures and tests.  Every count by size is a size profile cut at the
largest size asked, `top` (the total when None), and no route builds
past top.  The oracles that only re-check these live in verify.
"""

from collections import Counter
from itertools import accumulate
from math import comb, prod
from operator import add, sub

from .monomials import Monomial, graded_lex_key, stars_and_bars
from .orders import Family, PosetId, _generating_moves, _require_member
from .lattice import VERTEX_CAP, CapExceededError, _linear_order

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
    keys = {m.exps for m in members}
    # member by member, in the set's order, so that a set with both a
    # non-member and an unclosed member is refused by whichever comes first
    for m in members:
        _require_member(poset, m)
        if not keys.issuperset(_generating_moves(poset, m.exps)):
            return False
    return True


# Memory budget of the states one sweep step keeps: each holds its forced
# mask and its packed counts, on top of a dict entry's fixed overhead.
SWEEP_BUDGET_BYTES = 1 << 27
_ENTRY_BYTES = 120


class SweepBudgetError(ValueError):
    """The frontier sweep would keep more than SWEEP_BUDGET_BYTES of states;
    no flag raises this budget, so it is no CapExceededError."""


def _frontier_sweep(h, width, top=None):
    """One sweep over the diagram in _linear_order, where a vertex's upper
    covers come after it, so it may always join.

    A state is the set of future vertices already forced into the filter,
    the upper covers of the members decided so far, as a mask relative to
    the current step: bit 0 is the vertex being decided, and the mask
    shifts right once per step.  That set is all the rest of the sweep
    reads: a vertex may stay out of an up-set iff none of its lower covers
    is in the set, every lower cover is decided earlier, and a decided
    member's upper covers are exactly what it forces.  So two partial
    filters with the same forced set extend in the same ways: a vertex not
    forced may stay out, and any vertex may join, forcing its upper covers.

    Each live state maps to its filter counts by size packed into one
    integer, `width` bits per size (width 0 counts all sizes together).
    With `top`, only sizes 0 .. top count: every top + 1 steps from step
    top on, the fields past top are cleared and a state left with none is
    dropped, which is exact as a partial filter only grows; fewer than
    2(top + 1) fields are carried.  Returns the packed counts, to be read
    up to top.  Raises SweepBudgetError when the states kept after a step
    would need more than SWEEP_BUDGET_BYTES.
    """
    position = {v: t for t, v in enumerate(_linear_order(h))}
    ups = [0] * len(h)  # the upper covers of step t, relative to step t + 1
    for lo, hi in h.covers:
        ups[position[lo]] |= 1 << (position[hi] - position[lo] - 1)
    span = max((up.bit_length() for up in ups), default=0)  # bounds every key
    top = len(h) if top is None else top
    keep = (1 << width * (top + 1)) - 1
    states = {0: 1}
    for t, up in enumerate(ups):
        grown = {}
        get = grown.get
        for state, counts in states.items():
            rest = state >> 1
            if not state & 1:
                grown[rest] = get(rest, 0) + counts
            key = rest | up
            grown[key] = get(key, 0) + (counts << width)
        if t >= top and (t - top) % (top + 1) == 0:
            grown = {key: kept for key, counts in grown.items() if (kept := counts & keep)}
        # after t + 1 decisions: t + 2 bits, or t + 2 fields, under 2(top + 1)
        state_bytes = _ENTRY_BYTES + (span + max(width, 1) * min(t + 2, 2 * top + 1)) // 8
        if len(grown) * state_bytes > SWEEP_BUDGET_BYTES:
            raise SweepBudgetError(
                f"filter counting needs {len(grown)} live states of up to {state_bytes} bytes "
                f"at step {t + 1} of {len(h)}, over the budget of {SWEEP_BUDGET_BYTES >> 20} MiB")
        states = grown
    return states[0]


def filter_counts_by_size(h, top=None, total=None):
    """Filter counts of the diagram by size, entry k for k = 0 .. min(top,
    len(h)) (all by default), from two frontier sweeps: the first counts all
    filters (unless their `total` is given), as no count by size needs more
    bits, the second up to top."""
    top = len(h) if top is None else min(top, len(h))
    width = (total or _frontier_sweep(h, 0)).bit_length()
    packed = _frontier_sweep(h, width, top)
    field = (1 << width) - 1
    return tuple(packed >> (width * k) & field for k in range(top + 1))


def _pivot(up, candidates, mask):
    """The lowest-indexed candidate with the largest up-set in the mask.
    An element above another has a strictly smaller up-set, so never ties
    for the largest: any candidates between the mask's minimal elements and
    the mask give the same pivot, the one the whole mask gives."""
    pivot, best = -1, -1
    while candidates:
        low = candidates & -candidates
        i = low.bit_length() - 1
        size = (up[i] & mask).bit_count()
        if size > best:
            pivot, best = i, size
        candidates ^= low
    return pivot


def count_filters(h, cardinality=None):
    """Number of filters of the diagram's poset, optionally of one
    cardinality (the empty poset has one, the empty filter).  Raises
    SweepBudgetError when the frontier sweep overruns SWEEP_BUDGET_BYTES."""
    if cardinality is None:
        return _frontier_sweep(h, 0)
    return filter_counts_by_size(h, cardinality)[cardinality] if 0 <= cardinality <= len(h) else 0


def _filter_masks(h, cardinality=None, cap=FILTER_CAP):
    """Check the cap now, then return (low, masks): every filter as the
    bitmask of its vertex indices, shifted right by low (see below).

    The cap needs a bound, not the count.  No size k has more filters than
    C(N, k), the k-subsets of the N vertices, and a k outside 0..N has
    none: when that bound fits the cap, nothing is counted.  Else no size
    has more filters than all sizes together.  The total comes from
    closed_form_counts (a glued poset as truncated at its top degree, as
    build_hasse truncated it), else from one plain frontier sweep.  Only
    when it exceeds the cap and a cardinality was asked is the profile cut
    at that size counted, its field width read off the total.

    The walk splits on a pivot, the lowest-indexed element of the mask with
    the largest up-set in it: a branch (mask, least, chosen, r) stands for
    the filters `chosen | F`, F a filter of r elements of the subposet on
    the mask.  Those avoiding the pivot are the filters of the mask minus
    the pivot, those containing it its up-set in the mask joined to the
    filters of the rest.  A finite poset has a filter of every size up to
    its own (the top k elements of a linear extension), so a branch holds
    one exactly when 0 <= r <= |mask|: no counting prunes.  It closes in
    O(1) when r is 0 (only `chosen`) or |mask| (only `chosen | mask`);
    between, the avoid branch always holds a filter, and the contain branch
    does when the up-set has at most r elements.  The full listing takes
    r = N + 1: no branch closes before its mask is empty, none is pruned.

    `least` lies in the mask and holds its minimal elements, exactly so at
    the root; the pivot is one of them, as an element above another has a
    smaller up-set.  The root's mask is an up-set, so a vertex in it is
    minimal there iff none of its lower covers is in it: anything in the
    mask below the vertex starts a chain of covers up to the vertex, all
    in the mask, whose last step is such a lower cover.  Every mask is
    order-convex: the start is a filter, and a step takes out an up-set or
    a minimal element.  Taking out an up-set
    makes no element minimal, so the contain branch keeps `least` less the
    up-set.  Taking out the pivot makes minimal only elements with nothing
    else below them in the mask, which by convexity cover it: the avoid
    branch adds the pivot's upper covers in the rest.

    Listing by size k, the vertices whose up-sets have more than k elements
    are dropped first.  They form a down-set, which the walk would strip one
    avoid step at a time, yielding nothing: while one is in the mask, the
    pivot, with the largest up-set, is one of them, its contain branch is
    too large for r, still k, and taking out a minimal element leaves every
    other up-set in the mask unchanged.  The survivors form a filter, from
    which the walk goes on in the same order, on masks shifted right by low,
    the lowest survivor (0 when nothing is dropped): an order-preserving
    renumbering, under which _pivot picks the same pivots.

    Hence every pushed branch yields a filter.  The full listing takes one
    pivot step fewer than it lists filters, each step pushing both
    branches; by size, an avoid step lowers |mask| - r by one and a contain
    step keeps it, so K survivors take at most K - k + 1 steps per filter.

    Raises CapExceededError when more than `cap` filters would be produced,
    SweepBudgetError when counting them overruns SWEEP_BUDGET_BYTES, and
    ValueError when a closed form by size would pass TABLE_BUDGET.
    """
    fits = cardinality is None or 0 <= cardinality <= len(h)
    # stars_and_bars is None when C(N, k) >= 2**min(k, N - k) > cap
    subsets = (None if cardinality is None else 0 if not fits
               else stars_and_bars(cardinality, len(h) - cardinality, cap))
    if subsets is None or subsets > cap:
        degree = h.vertices[-1].degree() if h.vertices else -1
        total = closed_form_counts(h.poset, degree) or _frontier_sweep(h, 0)
        if total > cap and cardinality is not None:
            total = (closed_form_counts(h.poset, degree, cardinality)
                     or filter_counts_by_size(h, cardinality, total))[cardinality] if fits else 0
        if total > cap:
            raise CapExceededError(f"{total} filters exceed the cap of {cap}")
    if not fits:
        return 0, iter(())
    k = len(h) + 1 if cardinality is None else cardinality
    up, covers = h.up_masks(), [0] * len(h)
    kept = [u.bit_count() <= k for u in up]
    raised = set()  # the vertices with a kept lower cover
    for lo, hi in h.covers:
        covers[lo] |= 1 << hi
        if kept[lo]:
            raised.add(hi)
    keep = sum(1 << i for i, f in enumerate(kept) if f)
    least = sum(1 << i for i, f in enumerate(kept) if f and i not in raised)
    low = max((keep & -keep).bit_length() - 1, 0)
    up, covers = [u >> low for u in up[low:]], [c >> low for c in covers[low:]]
    stack = [(keep >> low, least >> low, 0, k)]

    def walk():  # depth first: the filters avoiding the pivot come first
        while stack:
            mask, least, chosen, r = stack.pop()
            if r == 0:
                yield chosen
                continue
            if r == mask.bit_count() or not mask:
                yield chosen | mask
                continue
            pivot = _pivot(up, least, mask)
            principal = up[pivot] & mask
            size = principal.bit_count()
            if size <= r:
                stack.append((mask ^ principal, least & ~principal, chosen | principal, r - size))
            rest = mask ^ (1 << pivot)
            stack.append((rest, (least | covers[pivot]) & rest, chosen, r))

    return low, walk()


def catalan(n):
    """The n-th Catalan number, comb(2n, n)/(n+1)."""
    if n < 0:
        raise ValueError("catalan(n) needs n >= 0")
    return comb(2 * n, n) // (n + 1)


#: Most weights the walk tables of one size profile may hold: it admits
#: D[n=2,d=218] (22 s, 203 MB on a 2-core host) and B[n=3,d=101] (19 s).
#: No flag raises it.
TABLE_BUDGET = 200_000_000


def _walk_weights(d, b, top):
    """Row b >= 1 of the walk table of degree d: entry a, for a = 0 .. d+2-b,
    lists by weight w the monotone lattice walks from (a, b) down-right to
    (d+2, 0) inside x+y <= d+2 whose vertical steps, labelled d+2-x-y at the
    step's upper end, sum to w, for w = 0 .. top.

    Built bottom-up from row 1, where the walk from (a, 1) that steps down
    at column j >= a has weight d+1-j, one walk of each weight 0 .. d+1-a.
    A walk from (a, b) steps down at column a, with label d+2-a-b, and goes
    on from (a, b-1), or first steps right, and is a walk from (a+1, b): so
    each row is a suffix sum over a of the row below, shifted by the label.
    Cutting every entry at weight top commutes with both.
    """
    t, cut = d + 2, top + 1  # cut: the weights an entry keeps
    row = [(1,) * min(t - a, cut) for a in range(t)]
    for level in range(2, b + 1):
        upper = [()] * (t - level + 1)
        acc = []
        for a in range(t - level, -1, -1):
            label, lower = t - a - level, row[a]
            end = min(label + len(lower), cut)
            acc += [0] * (end - len(acc))
            acc[label:end] = map(add, acc[label:end], lower)
            upper[a] = tuple(acc)
        row = upper
    return tuple(row)


def stable_filter_counts(d, top=None):
    """The filter counts by cardinality of the degree-d stable order in three
    variables, via the layer recursion GG(d,v) = GG(d-1,v) + CC(d-1,v-d-1);
    with top, the counts of sizes 0 .. top only."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    top = (d + 1) * (d + 2) // 2 if top is None else top  # the vertex count by default
    gg = [1, 1][:top + 1]  # the one vertex of degree 0
    for e in range(1, min(d, top - 1) + 1):
        # CC(e-1, w), the weighted walks of degree e-1, land at size w + e + 1
        gg += [0] * (min((e + 1) * (e + 2) // 2, top) + 1 - len(gg))
        for v, count in enumerate(_walk_weights(e - 1, e + 1, top - e - 1)[0], e + 1):
            gg[v] += count
    return tuple(gg)


def _charge(entries, table):
    """Refuse with one ValueError line, before it is built, a table of more
    than TABLE_BUDGET entries."""
    if entries > TABLE_BUDGET:
        raise ValueError(f"counting by size {table} of {entries} entries, "
                         f"over the budget of {TABLE_BUDGET}")


def _table_entries(t, cut):
    """The weights _walk_weights(t - 2, b, cut - 1) holds over rows b = 1 .. t.
    Entry a of row b holds b*(t-a) - b*(b+1)/2 + 1 weights, up to cut: over
    a = t-b .. 0 a run from b*(b-1)/2 + 1 in steps of b, k under the cut."""
    entries = 0
    for b in range(1, t + 1):
        first, n = b * (b - 1) // 2 + 1, t - b + 1
        k = min(max((cut - first) // b + 1, 0), n)
        entries += k * first + b * k * (k - 1) // 2 + (n - k) * cut
    return entries


def _q_product(exponents, top):
    """Coefficients 0 .. top of the power series of the product of
    (1 - q^t)^e over the items (t, e) of exponents, t >= 1.  Multiplying
    by 1 - q^t subtracts the series shifted by t; dividing by it is the
    prefix sum of stride t, as 1/(1 - q^t) is the sum of q^(jt) over j >= 0.
    Both commute with truncation at q^top, so the order does not matter."""
    series = [1] + [0] * top
    for t, e in exponents.items():
        for _ in range(e):
            series[t:] = map(sub, series[t:], series[:-t])
        for _ in range(-e):
            for r in range(min(t, top + 1)):
                series[r::t] = accumulate(series[r::t])
    return series


def _tspp_exponents(side):
    """The net exponent of each t = 1 .. 3*side-1 in the product of
    (i+j+k-1)/(i+j+k-2) over 1 <= i <= j <= k <= side: with c(s) the
    triples of sum s, it is c(t+1) - c(t+2).  Less 1 in each coordinate, the
    triples of sum s are the partitions of s-3 into at most 3 parts of at
    most side-1, counted by the Gaussian binomial [side+2 choose 3]_q, the
    product of (1 - q^(side-1+i))/(1 - q^i) over i = 1, 2, 3."""
    gaussian = Counter((side, side + 1, side + 2))
    gaussian.subtract((1, 2, 3))
    c = [0, 0, 0, *_q_product(gaussian, 3 * side - 3), 0, 0]
    return {t: c[t + 1] - c[t + 2] for t in range(1, 3 * side)}


def _tspp(side):
    """Stembridge's product TSPP(side), by the prime exponents of the net
    exponents of _tspp_exponents: those of an integer are never negative,
    so the product needs no division."""
    primes = Counter()
    for t, e in _tspp_exponents(side).items():
        p = 2
        while p * p <= t:
            while t % p == 0:
                primes[p] += e
                t //= p
            p += 1
        if t > 1:
            primes[t] += e
    return prod(p**e for p, e in primes.items())


def closed_form_counts(poset, max_degree=None, top=None):
    """The number of filters of a poset that the paper counts in closed
    form, found without its diagram; with an integer top, its counts by
    size 0 .. min(top, N) for N vertices, as filter_counts_by_size(h, top)
    gives them.  None for every other poset.
    max_degree truncates a glued poset as in build_hasse; of the glued
    posets, B is left to the sweep.  The size checks are diagram_size's,
    made by the caller; the counts by size of A and C of side 2 and 3,
    D[n=2,d] and B[n=3,d] raise ValueError past TABLE_BUDGET.

    - Glued posets.  D[n] truncated at degree d is D[n=n,d=d], the same
      monomials with the covers _generating_moves bounds at degree d.
      A[n] truncated at degree d is isomorphic to A[n=n+1,d=d] under
      u -> u * x_(n+1)^(d - deg u), a bijection of the monomials of degree
      at most d in x1..xn onto those of degree d in x1..x_(n+1): a move
      x_(k+1) -> x_k with k < n maps to the same move, and multiplication
      by x_n below degree d to the move x_(n+1) -> x_n, which are all the
      covers of either side.  dual_rename carries C[n], which multiplies
      by x1, onto A[n], so glued A and C count as A[n=n+1,d=d] below; the
      empty truncation, d = -1, has its one filter.
    - Chains: A, B and C with min(n-1, d) <= 1, and D with n = 1 or d <= 0.
      One variable or degree 0 leaves one vertex (D truncated below degree
      0 has none).  Otherwise the covers of _generating_moves are one path:
      x1^(d-b)*x2^b moves x2 -> x1 (x1 -> x2 in C), degree-1 monomials move
      x_(k+1) -> x_k (x_k -> x_(k+1) in C; in B it is the one move when
      e_v = 1), and D[n=1] multiplies by x1.  A chain of N vertices has one
      filter of each size 0..N: its top elements.
    - A and C, isomorphic by dual_rename, which sends the cover x_(k+1) ->
      x_k of A[n,d] to the cover x_(n-k) -> x_(n+1-k) of C[n,d].  A[n,d] is
      the lattice of partitions in an (n-1) x d box: a degree-d monomial is
      its running sums 0 <= s_1 <= ... <= s_(n-1) <= d, any such sequence,
      and m <= m' iff each s_k(m) <= s_k(m') (_borel_leq).  Conjugating a
      partition is an isomorphism onto the d x (n-1) box, so A[n,d] is
      isomorphic to A[d+1,n-1]: both count by the box's side min(n-1, d)
      and by m = max(n-1, d) + 1, its length plus one.  The box is
      self-dual: s -> (d - s_(n-1), ..., d - s_1) reverses the order, so it
      maps a filter onto an ideal of the same size, whose complement is a
      filter of the complementary size, and the counts by size are
      symmetric.
      * Side 2: the product of 1 + q^i over i = 1..m, so 2^m filters.
        filter_to_distinct_partition maps the filters of A[n=3,d=m-1] one
        to one onto the partitions into distinct parts of at most m (the
        inverse is distinct_partition_to_filter), each part the size of an
        x3-layer, so a filter's size is the sum of its parts.  Each part
        1..m occurs or not, whence the product; its factor 1 + q^m is the
        recurrence of verify.filter_count_three_vars.
      * Side 3: Stembridge's TSPP(m), the product of (i+j+k-1)/(i+j+k-2)
        over 1 <= i <= j <= k <= m ("The enumeration of totally symmetric
        plane partitions", Adv. Math. 111, 1995), and by size the q-TSPP
        product of (1 - q^(i+j+k-1))/(1 - q^(i+j+k-2)) (Koutschan, Kauers
        and Zeilberger, "Proof of George Andrews's and David Robbins's
        q-TSPP conjecture", PNAS 108, 2011).  The running sums of A[4,m-1],
        plus one, are the triples 1 <= i <= j <= k <= m in the
        componentwise order: the sorted points of the cube [m]^3.  A
        totally symmetric plane partition there is an S3-stable order ideal
        of the cube; it is fixed by its sorted points, an ideal J of the
        triples, and conversely any such J gives the stable ideal {x :
        sort(x) in J}, as the k-th smallest coordinate is monotone in x.
        So the ideals of A[4,m-1], the complements of its filters, are the
        TSPPs, an ideal's size the number of S3-orbits of the cubes, which
        is the statistic the q-TSPP product counts; by the symmetry above,
        it counts the filters by size as well.  The product is a
        polynomial of degree C(m+2,3), the vertex count.
      By size, both sides build their series only up to min(top, N // 2)
      for N vertices, and read entry k past the half as entry N - k.
    - D[n=2,d]: Catalan(d+2) filters, by size entry 0 of _walk_weights(d,
      d+2).  filter_to_walk maps the filters one to one onto the walks of
      region t = d+2 (walk_to_filter is its inverse), the Dyck paths of
      semilength t, and a walk's weight is its filter's size: the column
      heights never rise, so the walk steps down from row b+1 to row b in
      the first column x whose cells in the filter reach row b, and that
      step's label t-x-(b+1) counts the cells (a, b), x <= a <= d-b, of row
      b in the filter.
    - B[n=3,d]: the sum of Catalan(i) over i = 0..d+1, each the last times
      2(2i-1)/(i+1), and by size the layer
      recursion of stable_filter_counts from the one vertex of d = 0.  By
      _stable_leq the monomials below x2^d are the d+1 without x1.  A
      filter without x2^d is one of the up-set of monomials with x1, which
      x1 * B[n=3,d-1] is, as multiplying by x1 keeps the last variable.  A
      filter with x2^d holds the chain of d+1 monomials without x3 above
      it, and any filter of those with x3, on which the order is
      divisibility of u in u*x3^a: D[n=2,d-1].  So GG(d,v) = GG(d-1,v) +
      CC(d-1,v-d-1), with CC the size profile of D[n=2,d-1].

    Work, charged against TABLE_BUDGET before any is built: with h =
    min(top, N // 2), side 2 adds lists of min(i(i+1)/2, h) + 1 entries for
    i = 1..min(m, h); side 3 passes over h + 1 entries once per unit of each
    net exponent t <= h; the walk tables cut each entry at weight top.
    """
    family, n, d = poset.family, poset.nvars, poset.degree
    if n is None or d is None and (max_degree is None or family is Family.STABLE):
        return None
    if d is None:
        n, d = (n, max_degree) if family is Family.DIVISIBILITY else (n + 1, max_degree)
    side = min(n - 1, d)
    if side <= (0 if family is Family.DIVISIBILITY else 1):
        bars = n if family is Family.DIVISIBILITY else n - 1
        size = comb(bars + d, bars) if d >= 0 else 0
        return size + 1 if top is None else (1,) * (min(top, size) + 1)
    m = max(n - 1, d) + 1
    if family in (Family.BOREL, Family.DUAL_BOREL) and side in (2, 3):
        if top is None:
            return 2**m if side == 2 else _tspp(m)
        size, table = comb(m + side - 1, side), f"on a {side} x {m - 1} box needs a product table"
        top = min(top, size)
        half = min(top, size // 2)
        if side == 2:
            _charge(sum(min(i * (i + 1) // 2, half) + 1 for i in range(1, min(m, half) + 1)), table)
            low = [1]
            for i in range(1, min(m, half) + 1):
                low = [a + b for a, b in zip(low + [0] * i, [0] * i + low[:half + 1 - i])]
        else:
            exponents = {t: e for t, e in _tspp_exponents(m).items() if t <= half}
            _charge(sum(map(abs, exponents.values())) * (half + 1), table)
            low = _q_product(exponents, half)
        # the mirror: past the half, entry k is entry size - k
        return tuple(low) + tuple(low[size - top:size - half][::-1])
    if family is Family.DIVISIBILITY and n == 2:
        if top is None:
            return catalan(d + 2)
        _charge(_table_entries(d + 2, top + 1), f"at degree {d} needs a walk table")
        return _walk_weights(d, d + 2, top)[0]
    if family is Family.STABLE and n == 3:
        if top is None:  # Catalan(i+1) = Catalan(i) * 2(2i+1)/(i+2)
            return sum(accumulate(range(d + 1), lambda c, i: c * (4 * i + 2) // (i + 2), initial=1))
        entries = sum(_table_entries(e + 1, top - e) for e in range(1, min(d, top - 1) + 1))
        _charge(entries, f"at degree {d} needs a walk table")  # as stable_filter_counts cuts them
        return stable_filter_counts(d, top)
    return None


# ---------------------------------------------------------------------------
# monomial ideals given by generators


#: Most generator pairs minimal_generators tests: 1,414 incomparable x_i*x_j
#: take 0.8-1.3 s under ideal check on a 2-core host.  No flag raises it.
GENERATOR_PAIR_BUDGET = 1_000_000


def minimal_generators(gens):
    """The divisibility antichain generating the same ideal, graded-lex
    sorted.  Raises CapExceededError, before testing any pair, when the
    distinct generators make more than GENERATOR_PAIR_BUDGET pairs."""
    gens = set(gens)
    pairs = len(gens) * (len(gens) - 1) // 2
    if pairs > GENERATOR_PAIR_BUDGET:
        raise CapExceededError(
            f"{len(gens)} generators make {pairs} pairs, over the budget of {GENERATOR_PAIR_BUDGET}")
    kept: list[Monomial] = []
    for g in sorted(gens, key=graded_lex_key):
        if not any(k.divides(g) for k in kept):
            kept.append(g)
    return tuple(kept)


def _has_segment_in(members, exps):
    """Whether an initial segment of the exponent tuple exps (its first k
    variables in index order, k = 0 .. its degree) is in `members`.  By
    Eliahou-Kervaire each m in a stable ideal is g*w with g a minimal
    generator and max(g) <= min(w), so g is such a segment: the test is
    exact when `members` lies in a stable ideal and holds its minimal
    generators, and never accepts m outside the ideal `members` generate.
    The whole tuple, the longest segment, is looked up first."""
    return exps in members or () in members or any(
        exps[:j] + (a,) in members for j, e in enumerate(exps) for a in range(1, e + 1))


def closure(gens, family):
    """Smallest ideal containing gens whose every degree is a filter of the
    family's order: strongly stable (Borel) for Family.BOREL, stable for
    Family.STABLE, as a graded-lex sorted tuple of its minimal generators.

    Closes under _generating_moves (which keep the degree) in rising degree,
    on exponent tuples.  When degree d begins, the members of lower degree
    are closed, so generate a stable ideal, and _has_segment_in is exact: a
    monomial joins only if outside the ideal so far, so members are the
    minimal generators.  Each is forced, and the result passes the generator
    test proved in _generating_moves.  Raises CapExceededError once the
    members pass VERTEX_CAP: x30^6 alone closes to 1,623,160."""
    poset = PosetId(family)
    members = set()
    for g in sorted(set(gens), key=graded_lex_key):
        queue = [g.exps]
        while queue:
            e = queue.pop()
            if not _has_segment_in(members, e):
                members.add(e)
                if len(members) > VERTEX_CAP:
                    raise CapExceededError(f"the closure passed the cap of {VERTEX_CAP} generators")
                queue.extend(_generating_moves(poset, e))
    return tuple(sorted(map(Monomial, members), key=graded_lex_key))


def is_closed(gens, family):
    """Whether the ideal gens generate is closed as closure closes it: every
    move of every generator stays in the ideal.  The generator test by
    _has_segment_in on set(gens) is exact when the ideal is closed (so
    stable), and rejects a move outside it if not."""
    poset, members = PosetId(family), {g.exps for g in gens}
    return all(_has_segment_in(members, u) for g in members for u in _generating_moves(poset, g))
