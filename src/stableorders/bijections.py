"""Bijections tying the monomial orders to familiar combinatorial objects.

Monomials correspond to Young diagrams (one row of length i per copy of
x_i); three-variable filters of fixed degree correspond to partitions into
distinct parts; those in turn are squarefree monomials; filters of the
two-variable divisibility staircase correspond to bounded lattice walks
counted by Catalan numbers; the large-degree limit of the stable counts is
the coin-fountain generating function; and four-variable filters stack up
into planar partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .monomials import Monomial
from .orders import Family, PosetId
from .lattice import build_hasse
from .filters import count_filters, is_filter


# ---------------------------------------------------------------------------
# Young diagrams


def monomial_to_young(m):
    """Rows of the Young diagram: one row of length i per copy of x_i,
    listed weakly decreasing."""
    rows = []
    for i in range(m.max_support(), 0, -1):
        rows.extend([i] * m.exponent(i))
    return tuple(rows)


def young_to_monomial(rows):
    """Inverse of monomial_to_young: row multiplicities become exponents."""
    rows = _check_partition(rows)
    width = rows[0] if rows else 0
    return Monomial(sum(1 for r in rows if r == i) for i in range(1, width + 1))


def young_contains(outer, inner):
    """Diagram containment: inner fits inside outer row by row."""
    outer = _check_partition(outer)
    inner = _check_partition(inner)
    if len(inner) > len(outer):
        return False
    return all(a <= b for a, b in zip(inner, outer))


def _check_partition(rows):
    rows = tuple(rows)
    last = None
    for r in rows:
        if not isinstance(r, int) or r < 1 or (last is not None and r > last):
            raise ValueError(f"not a partition (weakly decreasing positive parts): {rows!r}")
        last = r
    return rows


def remove_first_column(rows):
    """Strip the first column of a Young diagram: subtract 1 from each row."""
    rows = _check_partition(rows)
    return tuple(r - 1 for r in rows if r > 1)


# ---------------------------------------------------------------------------
# three-variable filters <-> partitions into distinct parts <-> squarefree


def filter_to_distinct_partition(elements, degree):
    """Layer sizes of a three-variable fixed-degree strongly-stable filter.

    Slicing by the exponent of x3 gives top segments of shrinking chains, so
    the nonzero sizes form a partition into distinct parts, largest first.
    """
    poset = PosetId(Family.BOREL, 3, degree)
    if not is_filter(elements, poset):
        raise ValueError("the given set is not a filter of the three-variable order")
    sizes = [0] * (degree + 1)
    for m in elements:
        sizes[m.exponent(3)] += 1
    parts = []
    for i, s in enumerate(sizes):
        if s == 0:
            if any(sizes[i:]):
                raise ValueError("layer sizes of a filter cannot skip a level")
            break
        if parts and s >= parts[-1]:
            raise ValueError("layer sizes of a filter must strictly decrease")
        parts.append(s)
    return tuple(parts)


def _check_distinct_parts(parts, degree):
    """A partition into distinct parts, none above degree + 1."""
    parts = _check_partition(parts)
    if any(a == b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"parts must be strictly decreasing: {parts!r}")
    if parts and parts[0] > degree + 1:
        raise ValueError(f"parts may not exceed {degree + 1}")
    return parts


def distinct_partition_to_filter(parts, degree):
    """Rebuild the filter whose x3-layers are top segments of the given sizes."""
    parts = _check_distinct_parts(parts, degree)
    elements = set()
    for i, size in enumerate(parts):
        for beta in range(size):
            elements.add(Monomial((degree - i - beta, beta, i)))
    return frozenset(elements)


def distinct_partition_to_squarefree(parts, degree):
    """Encode a partition with distinct parts <= degree+1 as a squarefree
    monomial: a part w contributes the variable x_{degree+2-w}."""
    parts = _check_distinct_parts(parts, degree)
    out = Monomial(())
    for w in parts:
        out = out.times_var(degree + 2 - w)
    return out


def squarefree_to_distinct_partition(m, degree):
    """Inverse of distinct_partition_to_squarefree."""
    if m.max_support() > degree + 1:
        raise ValueError(f"{m} uses variables beyond x{degree + 1}")
    if any(e > 1 for e in m.exps):
        raise ValueError(f"{m} is not squarefree")
    return tuple(degree + 2 - i for i in range(1, m.max_support() + 1) if m.exponent(i) == 1)


# ---------------------------------------------------------------------------
# lattice walks


@dataclass(frozen=True)
class LatticeWalk:
    """A walk of down ('D') and right ('R') steps from (0, region) to
    (region, 0) staying inside x + y <= region."""

    region: int
    steps: tuple[str, ...]

    def __post_init__(self):
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


def walk_weight(walk):
    """Sum over down-steps of region - x - y at the step's upper end."""
    total = 0
    x, y = 0, walk.region
    for s in walk.steps:
        if s == "D":
            total += walk.region - x - y
            y -= 1
        else:
            x += 1
    return total


def filter_to_walk(elements, degree):
    """The walk in region degree+2 tracing a divisibility filter of the
    two-variable staircase of the given degree.

    Column a of the walk descends to the least x2-exponent present in column
    a of the filter, or hugs the staircase just above an empty column.
    """
    poset = PosetId(Family.DIVISIBILITY, 2, degree)
    if not is_filter(elements, poset):
        raise ValueError("the given set is not a filter of the two-variable staircase")
    column_min: dict[int, int] = {}
    for m in elements:
        a, b = m.exponent(1), m.exponent(2)
        if b < column_min.get(a, degree + 1):
            column_min[a] = b
    region = degree + 2
    heights = [region]
    for a in range(degree + 2):
        if a in column_min:
            heights.append(column_min[a])
        else:
            heights.append(max(0, degree + 1 - a))
    steps = []
    for a in range(degree + 2):
        if heights[a] < heights[a + 1]:
            raise ValueError("column minima of a filter cannot increase")
        steps.extend("D" * (heights[a] - heights[a + 1]))
        steps.append("R")
    return LatticeWalk(region, tuple(steps))


def walk_to_filter(walk):
    """Inverse of filter_to_walk: visited points inside the staircase of
    degree region-2, closed upward under divisibility."""
    if walk.region < 2:
        raise ValueError("the filter region needs walk.region >= 2")
    degree = walk.region - 2
    seeds = [(x, y) for x, y in walk.points() if x + y <= degree]
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        a, b = frontier.pop()
        for nxt in ((a + 1, b), (a, b + 1)):
            if nxt[0] + nxt[1] <= degree and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(Monomial(p) for p in seen)


# ---------------------------------------------------------------------------
# coin fountains


@dataclass(frozen=True)
class Fountain:
    """Rows of coin positions: the base row is contiguous from 0, and every
    higher coin rests on two adjacent coins of the row below.  Rows above the
    base need not be contiguous."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
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


def fountain_gf_coefficients(nterms):
    """Coefficients 0..nterms of the fountain generating function: the
    continued fraction 1/(1 - z/(1 - z^2/(1 - z^3/...))) cut at the least
    depth J with J(J+1)/2 > nterms, which moves none of them.  With f_j =
    1/(1 - z^j f_{j+1}), two f_{j+1} that agree below degree k give f_j
    that agree below k + j, as 1/(1-a) - 1/(1-b) = (a-b)/((1-a)(1-b)).  The
    cut sets f_{J+1} = 1, true below degree 1, so f_1 is true below degree
    1 + J(J+1)/2 > nterms + 1."""
    if nterms < 0:
        raise ValueError("nterms must be non-negative")
    size = nterms + 1
    f = [1] + [0] * nterms
    depth = 1
    while depth * (depth + 1) // 2 <= nterms:
        depth += 1
    for j in range(depth, 0, -1):
        shifted = ([0] * j + f)[:size]
        g = [1] + [0] * nterms
        for k in range(1, size):
            g[k] = sum(shifted[i] * g[k - i] for i in range(1, k + 1))
        f = g
    return f


def limit_filter_count(weight):
    """Filters of the stable order in three variables with exactly `weight`
    elements, at any degree past weight (the counts stabilize; degree
    weight+1 already reaches the limit)."""
    if weight < 0:
        raise ValueError("weight must be non-negative")
    h = build_hasse(PosetId(Family.STABLE, 3, weight + 1))
    return count_filters(h, weight)


# ---------------------------------------------------------------------------
# planar partitions (four variables)


@dataclass(frozen=True)
class PlanarPartition:
    """A matrix of stack heights, weakly decreasing along rows and columns."""

    heights: tuple[tuple[int, ...], ...]

    def __post_init__(self):
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


@lru_cache(maxsize=None)
def planar_partition_filter_count(degree):
    """Count the level stacks; matches the filter count of the four-variable
    fixed-degree strongly-stable order."""
    if degree < 0:
        raise ValueError("degree must be non-negative")

    @lru_cache(maxsize=None)
    def count_from(level, prev):
        if level > degree:
            return 1
        total = 0
        for cand in _strict_partitions(degree + 1 - level):
            if prev is None or _fits_under(cand, prev):
                total += count_from(level + 1, cand)
        return total

    return count_from(0, None)


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
