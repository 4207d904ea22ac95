"""Independent reference answers for the benchmark's checks.

Nothing here imports ``stableorders``: monomials are plain exponent tuples,
orders are the explicit move graphs of their definitions, and every count
comes from a closed form or from this module's own filter counter.  The
benchmark builds its inputs and checks the program's answers with this code
only, so a change to the program can change neither.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb

_TERM = re.compile(r"x(\d+)(?:\^(\d+))?$")


# ---------------------------------------------------------------------------
# monomials as exponent tuples


def strip(exps):
    """Drop trailing zeros, the canonical form the program prints from."""
    exps = tuple(exps)
    end = len(exps)
    while end and exps[end - 1] == 0:
        end -= 1
    return exps[:end]


def pad(exps, n):
    return tuple(exps) + (0,) * (n - len(exps))


def fmt(exps):
    """'x1^2*x3' for (2, 0, 1); '1' for the unit."""
    parts = []
    for i, e in enumerate(exps, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) or "1"


def parse(text):
    """Inverse of fmt, returning the stripped exponent tuple."""
    text = text.strip()
    if text == "1":
        return ()
    exps = {}
    for term in text.split("*"):
        match = _TERM.match(term)
        if match is None:
            raise ValueError(f"unreadable monomial {text!r}")
        i = int(match.group(1))
        exps[i] = exps.get(i, 0) + int(match.group(2) or 1)
    return strip(exps.get(i, 0) for i in range(1, max(exps) + 1))


def of_degree(n, d):
    """All exponent tuples of length n and total degree d."""
    if n == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1) for rest in of_degree(n - 1, d - e)]


def up_to_degree(n, d):
    return [m for k in range(d + 1) for m in of_degree(n, k)]


def partial_sums(exps, n):
    out, total = [], 0
    for e in pad(exps, n):
        total += e
        out.append(total)
    return out


def from_partial_sums(sums):
    return strip(b - a for a, b in zip([0] + list(sums), sums))


def borel_leq(m, mp, n):
    """m <= mp in the strongly-stable order: partial sums of mp dominate."""
    return all(a <= b for a, b in zip(partial_sums(m, n), partial_sums(mp, n)))


# ---------------------------------------------------------------------------
# posets as explicit move graphs


def _moves_up(family, m, n):
    """Upward exchange moves of a length-n tuple, by the family's definition."""
    out = []
    if family == "A":
        for j in range(1, n):
            if m[j]:
                for i in range(j):
                    out.append(m[:i] + (m[i] + 1,) + m[i + 1 : j] + (m[j] - 1,) + m[j + 1 :])
    elif family == "B":
        v = max((k for k in range(n) if m[k]), default=-1)
        for i in range(v):
            out.append(m[:i] + (m[i] + 1,) + m[i + 1 : v] + (m[v] - 1,) + m[v + 1 :])
    elif family == "C":
        out = [u[::-1] for u in _moves_up("A", m[::-1], n)]
    return out


class RefPoset:
    """A finite poset given by its ground tuples and generating edges, with
    reachability as bitmasks.

    ``degree`` fixes the degree (families A, B, C) or bounds it (family D);
    ``max_degree`` instead builds the truncation of the glued order, whose
    edges add multiplication by any variable.
    """

    def __init__(self, family, n, degree=None, max_degree=None):
        glued = degree is None
        top = max_degree if glued else degree
        if family == "D" or glued:
            ground = up_to_degree(n, top)
        else:
            ground = of_degree(n, degree)
        self.vertices = ground
        self.index = {m: i for i, m in enumerate(ground)}
        self.by_name = {fmt(m): i for i, m in enumerate(ground)}
        succ = []
        for m in ground:
            nxt = set(_moves_up(family, m, n)) if family != "D" else set()
            if (family == "D" or glued) and sum(m) < top:
                nxt.update(m[:i] + (m[i] + 1,) + m[i + 1 :] for i in range(n))
            succ.append(sorted(self.index[u] for u in nxt))
        self.succ = succ
        self.up = self._reach(succ)
        down = [0] * len(ground)
        for i, mask in enumerate(self.up):
            for j in _bits(mask):
                down[j] |= 1 << i
        self.down = down

    @staticmethod
    def _reach(succ):
        """up[i] = i together with everything reachable along succ edges."""
        indegree = [0] * len(succ)
        for targets in succ:
            for j in targets:
                indegree[j] += 1
        order = [i for i, k in enumerate(indegree) if k == 0]
        for i in order:
            for j in succ[i]:
                indegree[j] -= 1
                if indegree[j] == 0:
                    order.append(j)
        up = [0] * len(succ)
        for i in reversed(order):
            mask = 1 << i
            for j in succ[i]:
                mask |= up[j]
            up[i] = mask
        return up

    def __len__(self):
        return len(self.vertices)

    def leq(self, i, j):
        return bool(self.up[i] >> j & 1)

    def covers(self):
        """(lower, upper) name pairs: the minimal direct successors of each vertex."""
        out = set()
        for i, targets in enumerate(self.succ):
            for j in targets:
                if not any(k != j and self.up[k] >> j & 1 for k in targets):
                    out.add((fmt(self.vertices[i]), fmt(self.vertices[j])))
        return out

    def bound(self, i, j, want_join):
        """Index of the meet (or join), or None when it is not unique."""
        masks, other = (self.up, self.down) if want_join else (self.down, self.up)
        common = masks[i] & masks[j]
        best = [k for k in _bits(common) if other[k] & common == 1 << k]
        return best[0] if len(best) == 1 else None

    def is_filter(self, members):
        mask = 0
        for k in members:
            mask |= 1 << k
        return all(self.up[k] & mask == self.up[k] for k in members)

    def closure(self, generators):
        mask = 0
        for k in generators:
            mask |= self.up[k]
        return frozenset(_bits(mask))

    def filter_poly(self):
        """Filter counts by cardinality, by this module's own pivot recursion
        (use only on small posets; closed forms cover the large ones)."""
        memo = {0: (1,)}
        up, down = self.up, self.down

        def count(mask):
            got = memo.get(mask)
            if got is not None:
                return got
            pivot = (mask & -mask).bit_length() - 1
            inside = up[pivot] & mask
            without = count(mask & ~down[pivot])
            within = count(mask & ~inside)
            shift = inside.bit_count()
            out = [0] * (mask.bit_count() + 1)
            for k, v in enumerate(without):
                out[k] += v
            for k, v in enumerate(within):
                out[k + shift] += v
            memo[mask] = out = tuple(out)
            return out

        return count((1 << len(self.vertices)) - 1)


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def glued_leq(family, m, mp, n):
    """m <= mp in the degree-unbounded order of the family, by breadth-first
    search over moves and multiplication up to the degree of mp."""
    m, mp = pad(m, n), pad(mp, n)
    if m == mp:
        return True
    top = sum(mp)
    seen, frontier = {m}, [m]
    while frontier:
        nxt = []
        for u in frontier:
            step = [] if family == "D" else _moves_up(family, u, n)
            if sum(u) < top:
                step = step + [u[:i] + (u[i] + 1,) + u[i + 1 :] for i in range(n)]
            for w in step:
                if w == mp:
                    return True
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return False


# ---------------------------------------------------------------------------
# closed-form counts


def catalan(k):
    return comb(2 * k, k) // (k + 1)


def distinct_parts_poly(d):
    """Filters of A[n=3,d] by size: subsets of {1..d+1} by their sum."""
    poly = [1]
    for part in range(1, d + 2):
        grown = poly + [0] * part
        for k, v in enumerate(poly):
            grown[k + part] += v
        poly = grown
    return tuple(poly)


def four_var_poly(d):
    """Filters of A[n=4,d] by size.  Slicing by the exponent of x4 gives one
    three-variable filter per level, each a set of distinct parts bounded by
    its level; level i+1 must fit strictly under level i row by row."""

    def strict(max_part):
        out = [()]
        for part in range(1, max_part + 1):
            out += [(part,) + rest for rest in out if not rest or rest[0] < part]
        return out

    @lru_cache(maxsize=None)
    def stacks(level, prev):
        if level > d:
            return (1,)
        total = [0]
        for cand in strict(d + 1 - level):
            if prev is not None and not all(
                t + 1 < len(prev) and cand[t] <= prev[t + 1] for t in range(len(cand))
            ):
                continue
            rest = stacks(level + 1, cand)
            shift = sum(cand)
            if len(total) < len(rest) + shift:
                total += [0] * (len(rest) + shift - len(total))
            for k, v in enumerate(rest):
                total[k + shift] += v
        return tuple(total)

    return stacks(0, None)


def staircase_poly(d):
    """Filters of D[n=2,d] by size.  Column a of a filter is the top segment
    of {(a, b): b <= d - a} starting at its least member c_a (c_a = d - a + 1
    for an empty column); closure under x1 forces c_{a+1} <= c_a whenever
    c_a < d - a."""
    polys = {c: {d + 1 - c: 1} for c in range(d + 2)}
    for a in range(1, d + 1):
        top, grown = d - a + 1, {}
        for c_prev, by_size in polys.items():
            for c in range(0, (c_prev if c_prev < top else top) + 1):
                bucket = grown.setdefault(c, {})
                for s, v in by_size.items():
                    bucket[s + top - c] = bucket.get(s + top - c, 0) + v
        polys = grown
    total = {}
    for by_size in polys.values():
        for s, v in by_size.items():
            total[s] = total.get(s, 0) + v
    return tuple(total.get(s, 0) for s in range(max(total) + 1))


# ---------------------------------------------------------------------------
# term orders


def order_compare(kind, weights, degree_first, m, mp):
    """-1, 0 or 1 for m against mp in the named term order."""
    n = max(len(m), len(mp))
    a, b = pad(m, n), pad(mp, n)
    cmp = lambda x, y: (x > y) - (x < y)  # noqa: E731
    lex = cmp(a, b)
    if kind == "lex":
        return lex
    if kind == "deglex":
        return cmp(sum(a), sum(b)) or lex
    if kind == "degrevlex":
        return cmp(sum(a), sum(b)) or cmp(b[::-1], a[::-1])
    by_degree = cmp(sum(a), sum(b)) if degree_first else 0
    wa = sum(w * e for w, e in zip(weights, a))
    wb = sum(w * e for w, e in zip(weights, b))
    return by_degree or cmp(wa, wb) or lex


def refines(kind, weights, degree_first, n, max_degree):
    """Whether the term order keeps every strict strongly-stable relation.

    Across degrees that order is still partial-sum domination: moves and
    multiplication both only raise partial sums."""
    ground = up_to_degree(n, max_degree)
    return all(
        order_compare(kind, weights, degree_first, m, mp) == -1
        for m in ground
        for mp in ground
        if m != mp and borel_leq(m, mp, n)
    )


# ---------------------------------------------------------------------------
# bijections and series


def filter_partition(members):
    """x3-layer sizes of a three-variable filter, largest first."""
    sizes = {}
    for m in members:
        k = pad(m, 3)[2]
        sizes[k] = sizes.get(k, 0) + 1
    return tuple(sizes[k] for k in sorted(sizes))


def filter_walk(members, d):
    """The region-(d+2) walk tracing a filter of D[n=2,d]: column a descends
    to its least x2-exponent, or hugs the staircase above an empty column."""
    least = {}
    for m in members:
        a, b = pad(m, 2)
        least[a] = min(b, least.get(a, d + 1))
    heights = [d + 2] + [least.get(a, max(0, d + 1 - a)) for a in range(d + 2)]
    return "".join("D" * (heights[a] - heights[a + 1]) + "R" for a in range(d + 2))


def fountain_series(terms):
    """Coefficients of 1/(1 - z/(1 - z^2/(1 - z^3/...))) up to z^terms."""
    size = terms + 1
    series = [1] + [0] * terms
    for depth in range(terms + 1, 0, -1):
        denom = [1] + [0] * terms
        for k in range(size - depth):
            denom[k + depth] -= series[k]
        inverse = [1] + [0] * terms
        for k in range(1, size):
            inverse[k] = -sum(denom[i] * inverse[k - i] for i in range(1, k + 1))
        series = inverse
    return series
