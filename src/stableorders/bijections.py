"""Bijections tying the monomial orders to familiar combinatorial objects.

Monomials correspond to Young diagrams (one row of length i per copy of
x_i); three-variable filters of fixed degree correspond to partitions into
distinct parts; those in turn are squarefree monomials; filters of the
two-variable divisibility staircase correspond to bounded lattice walks
counted by Catalan numbers; and the large-degree limit of the stable counts
is the coin-fountain generating function.  The enumerations that re-check
these live in verify.
"""

from collections import Counter
from math import isqrt
from operator import mul

from .monomials import Monomial
from .orders import Family, PosetId, _Record
from .lattice import SLOT_BUDGET, VERTEX_CAP, CapExceededError
from .filters import is_filter


# ---------------------------------------------------------------------------
# Young diagrams


def monomial_to_young(m):
    """Rows of the Young diagram: one row of length i per copy of x_i,
    listed weakly decreasing; ValueError past SLOT_BUDGET rows."""
    if m.degree() > SLOT_BUDGET:
        raise ValueError(f"{m} has degree {m.degree()}, more rows than the budget of {SLOT_BUDGET}")
    rows = []
    for i in range(m.max_support(), 0, -1):
        rows.extend([i] * m.exponent(i))
    return tuple(rows)


def young_to_monomial(rows):
    """Inverse of monomial_to_young: row multiplicities become exponents."""
    return Monomial.from_terms(Counter(_check_partition(rows)))


def _check_partition(rows):
    rows = tuple(rows)
    last = None
    for r in rows:
        if not isinstance(r, int) or r < 1 or (last is not None and r > last):
            raise ValueError(f"not a partition (weakly decreasing positive parts): {rows!r}")
        last = r
    return rows


# ---------------------------------------------------------------------------
# three-variable filters <-> partitions into distinct parts <-> squarefree


def filter_to_distinct_partition(elements, degree):
    """Layer sizes of a three-variable fixed-degree strongly-stable filter.

    Slicing by the exponent i of x3 gives layer i: the filter's monomials
    x1^(degree-i-b) x2^b x3^i, which x2 -> x1 closes into a top segment
    b < s_i.  The nonzero sizes s_i form a strictly falling prefix: when
    s_{i+1} > 0, moving layer i+1 by x3 -> x2 gives b = 1..s_{i+1} in layer
    i, and by x3 -> x1 gives b = 0, so s_i > s_{i+1}.  They are a partition
    into distinct parts, largest first.
    """
    if not is_filter(elements, PosetId(Family.BOREL, 3, degree)):
        raise ValueError("the given set is not a filter of the three-variable order")
    sizes = Counter(m.exponent(3) for m in elements)
    return tuple(sizes[i] for i in sorted(sizes))


def _check_distinct_parts(parts, degree):
    """A partition into distinct parts, none above degree + 1."""
    parts = _check_partition(parts)
    if any(a == b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"parts must be strictly decreasing: {parts!r}")
    if parts and parts[0] > degree + 1:
        raise ValueError(f"parts may not exceed {degree + 1}")
    return parts


def distinct_partition_to_filter(parts, degree):
    """Rebuild the filter whose x3-layers are top segments of the given sizes.
    Raises CapExceededError when the filter, of sum(parts) monomials, would
    have more than VERTEX_CAP."""
    parts = _check_distinct_parts(parts, degree)
    if sum(parts) > VERTEX_CAP:
        raise CapExceededError(f"a filter of {sum(parts)} monomials exceeds the cap of {VERTEX_CAP}")
    elements = set()
    for i, size in enumerate(parts):
        for beta in range(size):
            elements.add(Monomial((degree - i - beta, beta, i)))
    return frozenset(elements)


def distinct_partition_to_squarefree(parts, degree):
    """Encode a partition with distinct parts <= degree+1 as a squarefree
    monomial: a part w contributes the variable x_{degree+2-w}."""
    parts = _check_distinct_parts(parts, degree)
    return Monomial.from_terms({degree + 2 - w: 1 for w in parts})


def squarefree_to_distinct_partition(m, degree):
    """Inverse of distinct_partition_to_squarefree."""
    if m.max_support() > degree + 1:
        raise ValueError(f"{m} uses variables beyond x{degree + 1}")
    if any(e > 1 for e in m.exps):
        raise ValueError(f"{m} is not squarefree")
    return tuple(degree + 2 - i for i in range(1, m.max_support() + 1) if m.exponent(i) == 1)


# ---------------------------------------------------------------------------
# lattice walks


class LatticeWalk(_Record):
    """A walk of down ('D') and right ('R') steps from (0, region) to
    (region, 0) staying inside x + y <= region."""

    __slots__ = ("region", "steps")

    def __init__(self, region, steps):
        self._init(region, steps)
        if self.region < 0:
            raise ValueError("region must be non-negative")
        downs = rights = 0
        for s in self.steps:
            if s == "D":
                downs += 1
            elif s == "R":
                rights += 1
                if rights > downs:
                    raise ValueError("walk leaves the region x + y <= region")
            else:
                raise ValueError(f"steps must be 'D' or 'R', got {s!r}")
        if downs != self.region or rights != self.region:
            raise ValueError(f"a region-{self.region} walk needs {self.region} of each step")

    def __str__(self):
        return "".join(self.steps)

    def points(self):
        """All visited lattice points, starting at (0, region)."""
        x, y = 0, self.region
        out = [(x, y)]
        for s in self.steps:
            if s == "D":
                y -= 1
            else:
                x += 1
            out.append((x, y))
        return out


def walk_weight(walk):
    """Sum over down-steps of region - x - y at the step's upper end."""
    starts = walk.points()
    return sum(walk.region - x - y for (x, y), s in zip(starts, walk.steps) if s == "D")


def filter_to_walk(elements, degree):
    """The walk in region degree+2 tracing a divisibility filter of the
    two-variable staircase of the given degree.

    Column a of the walk descends to the least x2-exponent present in column
    a of the filter, or hugs the staircase just above an empty column.  A
    filter holds x1 times each member of column a that stays in the
    staircase, so these heights never rise from one column to the next.
    Raises CapExceededError when the walk, of 2 * (degree + 2) steps, would
    have more than VERTEX_CAP.
    """
    if not is_filter(elements, PosetId(Family.DIVISIBILITY, 2, degree)):
        raise ValueError("the given set is not a filter of the two-variable staircase")
    region = degree + 2
    if 2 * region > VERTEX_CAP:
        raise CapExceededError(f"a walk of {2 * region} steps exceeds the cap of {VERTEX_CAP}")
    heights = [region] + [region - 1 - a for a in range(region)]
    for m in elements:
        a, b = m.exponent(1), m.exponent(2)
        heights[a + 1] = min(heights[a + 1], b)
    steps = "".join("D" * (high - low) + "R" for high, low in zip(heights, heights[1:]))
    return LatticeWalk(region, tuple(steps))


def walk_to_filter(walk):
    """Inverse of filter_to_walk: in each column a of the staircase of degree
    region-2, the cells from the walk's lowest point there up to the
    staircase's edge.  Raises CapExceededError when the filter, of the sum
    of those column heights, would have more than VERTEX_CAP monomials."""
    if walk.region < 2:
        raise ValueError("the filter region needs walk.region >= 2")
    degree = walk.region - 2
    lows = dict(walk.points()).items()
    size = sum(max(0, degree - a + 1 - low) for a, low in lows)
    if size > VERTEX_CAP:
        raise CapExceededError(f"a filter of {size} monomials exceeds the cap of {VERTEX_CAP}")
    return frozenset(Monomial((a, b)) for a, low in lows for b in range(low, degree - a + 1))


# ---------------------------------------------------------------------------
# coin fountains


#: Most terms fountain_gf_coefficients computes: its series division is
#: quadratic in the terms, on coefficients of about 0.8 bits per term.  On
#: a 2-core Xeon (Python 3.11) 5000 terms take 2-4 s, 10000 about 16 s.
FOUNTAIN_TERMS_CAP = 5000


def fountain_gf_coefficients(nterms):
    """Coefficients 0..nterms of the fountain generating function, the
    continued fraction 1/(1 - z/(1 - z^2/(1 - z^3/...))), as the quotient
    P/Q of Ramanujan's q-series (Odlyzko and Wilf, "n coins in a fountain",
    Amer. Math. Monthly 95, 1988): P = Q_1 and Q = Q_0 of

        Q_j = sum over k >= 0 of (-1)^k z^(k^2 + jk) / ((1-z)...(1-z^k)).

    They obey the three-term recurrence of the convergents, Q_j = Q_(j+1)
    - z^(j+1) Q_(j+2): in term k of Q_j - Q_(j+1), the factor 1 - z^k
    cancels the last one of the denominator (term 0 vanishes), leaving term
    k - 1 of -z^(j+1) Q_(j+2), as k^2 + jk = (k-1)^2 + (j+2)(k-1) + j + 1.
    Each Q_j starts with 1, so r_j = Q_(j+1)/Q_j is a power series, and
    the recurrence divided by Q_(j+1) reads r_j = 1/(1 - z^(j+1) r_(j+1)).
    So P/Q = r_0 is the fraction cut at any depth J with r_J in place of
    1.  Tails that agree below degree 1 give fractions that agree below
    degree 1 + J(J+1)/2, as 1/(1-a) - 1/(1-b) = (a-b)/((1-a)(1-b)) adds j
    at level j; hence P/Q is the fraction at every degree.

    The factors 1/((1-z)...(1-z^k)) are built one from the last, dividing
    by 1 - z^k as a prefix sum with stride k, to the nterms + 1 - k^2
    coefficients term k needs: O(nterms^1.5) additions for both series.
    One series division then gives P/Q.  Raises CapExceededError above
    FOUNTAIN_TERMS_CAP terms.
    """
    if nterms < 0:
        raise ValueError("nterms must be non-negative")
    if nterms > FOUNTAIN_TERMS_CAP:
        raise CapExceededError(f"{nterms} terms exceed the cap of {FOUNTAIN_TERMS_CAP}")
    size = nterms + 1
    p, q = [0] * size, [0] * size
    factor = [1] + [0] * nterms
    for k in range(isqrt(nterms) + 1):
        if k:
            for i in range(k, size - k * k):
                factor[i] += factor[i - k]
        sign = -1 if k % 2 else 1
        for series, shift in ((q, k * k), (p, k * k + k)):
            for i in range(size - shift):
                series[shift + i] += sign * factor[i]
    f = [0] * size
    for m in range(size):
        f[m] = p[m] - sum(map(mul, q[m:0:-1], f[:m]))
    return f

