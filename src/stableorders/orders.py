"""The divisibility, strongly-stable (Borel), stable, and dual partial orders.

Each order is generated by upward exchange moves (and, when degrees are
unbounded, by multiplication): the strongly-stable order allows replacing
any occurring variable by one of smaller index, while the stable order only
lets the largest-index variable move.  A poset is identified by a family
code plus optional bounds on the number of variables and the degree.

Comparability in the strongly-stable family is decided in linear time from
partial sums of the exponent vector; the stable family by a case split on
the last variable, and its glued order by one fixed-degree comparison with
the lex-greatest divisor of matching degree.
"""

import re
from enum import Enum
from itertools import accumulate
from operator import le, sub

from .monomials import (
    Monomial,
    _moved,
    monomials_of_degree,
    monomials_up_to_degree,
)


class GroundSetError(ValueError):
    """A monomial lies outside the ground set of the poset at hand."""


class Family(Enum):
    """The four order families, keyed by their one-letter CLI codes."""

    DIVISIBILITY = "D"
    BOREL = "A"
    STABLE = "B"
    DUAL_BOREL = "C"


_POSET_RE = re.compile(r"^([ABCD])(?:\[(.*)\])?$")


class _Record:
    """A value compared, hashed and shown by its __slots__, in order, and
    never assigned after __init__ sets them through _init: what a frozen
    dataclass gives, without the cost of importing dataclasses."""

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


class PosetId(_Record):
    """A family code plus optional bounds: nvars/degree of None mean unbounded.

    For families A, B, C a finite degree restricts the ground set to monomials
    of exactly that degree; for family D it bounds the degree from above
    (a staircase region).
    """

    __slots__ = ("family", "nvars", "degree")

    def __init__(self, family, nvars=None, degree=None):
        self._init(family, nvars, degree)
        if self.nvars is not None and self.nvars < 1:
            raise ValueError("nvars must be at least 1")
        if self.degree is not None and self.degree < 0:
            raise ValueError("degree must be non-negative")
        if self.family is Family.DUAL_BOREL and self.nvars is None:
            raise ValueError(
                "family C needs a finite number of variables (the renaming window); "
                "use the Young-diagram containment for the unbounded dual order"
            )

    @classmethod
    def parse(cls, text):
        """Parse identifiers like 'A[n=3,d=4]', 'B[n=3]', 'A[*,d=4]', or 'D'."""
        match = _POSET_RE.match(text.strip())
        if match is None:
            raise ValueError(f"malformed poset id {text!r}")
        family = Family(match.group(1))
        fields: dict[str, int] = {}
        body = match.group(2)
        if body is not None and body.strip():
            tokens = [t.strip() for t in body.split(",")]
            if len(tokens) > 2:
                raise ValueError(f"too many fields in poset id {text!r}")
            for token in tokens:
                if token == "*":
                    continue
                name, eq, value = token.partition("=")
                name = name.strip()
                if not eq or name not in ("n", "d"):
                    raise ValueError(f"malformed field {token!r} in poset id {text!r}")
                if name in fields:
                    raise ValueError(f"field {name!r} given twice in poset id {text!r}")
                try:
                    fields[name] = int(value)
                except ValueError:
                    raise ValueError(f"non-integer value in field {token!r} of poset id {text!r}") from None
        return cls(family, fields.get("n"), fields.get("d"))

    def __str__(self):
        code = self.family.value
        if self.nvars is None and self.degree is None:
            return code
        if self.degree is None:
            return f"{code}[n={self.nvars}]"
        if self.nvars is None:
            return f"{code}[*,d={self.degree}]"
        return f"{code}[n={self.nvars},d={self.degree}]"

    def contains(self, m):
        """Whether the monomial belongs to this poset's ground set."""
        if self.nvars is not None and m.max_support() > self.nvars:
            return False
        if self.degree is not None:
            if self.family is Family.DIVISIBILITY:
                return m.degree() <= self.degree
            return m.degree() == self.degree
        return True

    def is_finite(self):
        return self.nvars is not None and self.degree is not None


def _require_member(poset, m):
    if not poset.contains(m):
        raise GroundSetError(f"{m} is not in the ground set of {poset}")


def ground_monomials(poset):
    """The ground set of a finite poset, in graded-lex order."""
    if not poset.is_finite():
        raise ValueError(f"{poset} has an infinite ground set")
    if poset.family is Family.DIVISIBILITY:
        return monomials_up_to_degree(poset.nvars, poset.degree)
    return monomials_of_degree(poset.nvars, poset.degree)


def _running_sums(exps, n):
    """The running partial sums of an exponent vector of at most n entries,
    padded to n entries with its last value.  The last entry is the degree,
    so componentwise <= of these tuples is the strongly stable order, at
    fixed degree and glued alike: partial-sum domination, tails included."""
    sums = tuple(accumulate(exps))
    return sums + (sums[-1] if sums else 0,) * (n - len(sums))


def _window(m, mp):
    """The operands' window: the larger support of the two, at least 1."""
    return max(len(m.exps), len(mp.exps), 1)


def monomial_from_partial_sums(sums):
    """Inverse of _running_sums: difference the tuple back to exponents.
    Padding with the last value adds only trailing zeros."""
    return Monomial(map(sub, sums, (0,) + tuple(sums)))


def dual_rename(m, nvars):
    """Reverse variable indices inside a window: x_i becomes x_{nvars+1-i}."""
    if m.max_support() > nvars:
        raise ValueError(f"{m} does not fit in {nvars} variables")
    return Monomial(reversed(m.exponent_vector(nvars)))


def _stable_leq(m, mp, n):
    """Comparability of two same-degree monomials in the stable order on n
    variables, by a case split on the last variable.

    Moves of the stable order only ever replace x_n while it occurs, so a
    monomial with x_n keeps its stripped part: on the block of monomials
    with x_n the order is divisibility of the stripped parts.  Nothing free
    of x_n lies below something with x_n, and a monomial u*x_n^a with a > 0
    sits below a free one exactly when u*x_{n-1}^a does, the least monomial
    free of x_n above it.  Free of x_n, it is the order on n - 1 variables.
    On two variables (a chain) it compares x_1 exponents if both use x_2 and
    answers no if only mp does; one variable has one monomial per degree.

    Each step either answers or lowers n by one, so the split runs as a loop
    over exponent lists: padding u with x_{n-1}^a adds a to entry n - 1.
    """
    a, b = m.exponent_vector(n), mp.exponent_vector(n)
    while n > 1:
        top, other_top = a[n - 1], b[n - 1]
        if top and other_top:
            return all(map(le, a[: n - 1], b[: n - 1]))
        if other_top:
            # nothing free of the last variable sits below the divisible block
            return False
        a[n - 2] += top
        n -= 1
    return True


def _lex_greatest_divisor(mp, degree):
    """The lex-greatest divisor of mp of the given degree (at most mp's)."""
    exps = []
    for e in mp.exps:
        exps.append(min(e, degree))
        degree -= exps[-1]
    return Monomial(exps)


def leq(poset, m, mp):
    """Decide m <= mp in the given poset.

    Strongly-stable comparability is partial-sum domination; the stable family
    splits on the last variable (_stable_leq).  Raises GroundSetError off the
    ground set.

    Every comparison works in the operands' window, n = the larger support of
    the two (at least 1), whatever the poset's nvars: variables above both
    supports change no answer, as in A their running sums equal the degree,
    which the window's last entry already compares, in C the reversal puts
    them first, where both running sums are 0, and B's last-variable split
    steps over them.

    In the glued stable order (unbounded degree) m <= mp exactly when
    deg m <= deg mp and m <= w* in the fixed-degree order, where w* is the
    lex-greatest divisor of mp of degree deg m.  A multiplication followed by
    a move is a move followed by a multiplication, or is itself a
    multiplication, so every path can do its multiplications last: m <= mp
    iff m <= w for some divisor w of mp of degree deg m.  Every such w lies
    below w*: moving the top unit of w to the first index where w falls short
    of w* is a stable move (that index is smaller than the top one, since
    the degrees agree) and keeps a divisor of mp, so repeating it reaches w*.
    """
    _require_member(poset, m)
    _require_member(poset, mp)
    family = poset.family
    if family is Family.DIVISIBILITY:
        return m.divides(mp)
    if family is Family.BOREL:
        return _borel_leq(m, mp)
    n = _window(m, mp)
    if family is Family.DUAL_BOREL:
        return _borel_leq(dual_rename(m, n), dual_rename(mp, n))
    if poset.degree is not None:
        return _stable_leq(m, mp, n)
    degree = m.degree()
    return degree <= mp.degree() and _stable_leq(m, _lex_greatest_divisor(mp, degree), n)


def _borel_leq(m, mp):
    """Partial-sum domination of m by mp, in their window."""
    n = _window(m, mp)
    return all(map(le, _running_sums(m.exps, n), _running_sums(mp.exps, n)))


def _generating_moves(poset, exps, max_degree=None):
    """The upper covers of the monomial with stripped exponent tuple exps,
    as stripped exponent tuples (the move kernel works on tuples; see
    monomials): the family's covering moves, plus (below the
    degree bound: D's staircase degree, or max_degree for a truncated glued
    poset) multiplication by the least variable: x_n in A and B, x_1 in C,
    every x_i in D.  A: x_{k+1} -> x_k.  C: x_k -> x_{k+1}.  B, with v the
    last variable of m: every x_v -> x_i if e_v >= 2, else x_v -> x_{v-1}.

    They generate the order: x_j -> x_i is a chain of adjacent moves; in B
    with e_v = 1 it is x_v -> x_{v-1}, then the stable move x_{v-1} -> x_i;
    multiplication by x_i is by the least variable, then a move to x_i.
    They are covers: phi = (n+1)*degree - index weight (A, B), index weight
    (C) or degree (D) rises by |j - i| along a move x_j -> x_i, and by
    n + 1 - i (A, B), i (C) or 1 (D) along multiplication by x_i.  Adjacent
    moves and multiplication by the least variable raise it by exactly 1,
    so nothing fits between.  In B with e_v >= 2, anything between m and
    u = m*x_i/x_v has their degree, so lies on x_1..x_v and, by the facts of
    _stable_leq, uses x_v with a stripped part between those of m and u,
    which differ by one variable.  A cover is one generating step and each
    dropped step is two, so these are all the covers.

    They test an ideal I on any generating set (filters): if the moves of
    each generator g lie in I, a move of m = g*h takes x_j from h or is the
    same move of g (in B, v is then g's last variable) times h, except, in
    B with e_v(g) = 1, x_v -> x_i (i < v - 1): a move of g*x_{v-1}/x_v, in
    I with last variable v - 1, so by induction on v it lies in I too.
    """
    family = poset.family
    n = poset.nvars
    v = len(exps)
    if family is Family.BOREL:
        moves = [_moved(exps, k, k + 1) for k in range(1, v) if exps[k]]
    elif family is Family.DUAL_BOREL:
        moves = [_moved(exps, k + 1, k) for k in range(1, min(v + 1, n)) if exps[k - 1]]
    elif family is Family.STABLE and v > 1:
        moves = [_moved(exps, i, v) for i in range(1 if exps[-1] > 1 else v - 1, v)]
    else:
        moves = []
    if poset.degree is None:
        bound = max_degree
    elif family is Family.DIVISIBILITY:
        bound = poset.degree
    else:
        return moves
    if bound is None or sum(exps) >= bound:
        return moves
    if family is Family.DIVISIBILITY:
        return moves + [_moved(exps, i) for i in range(1, n + 1)]
    return moves + [_moved(exps, 1 if family is Family.DUAL_BOREL else n)]


def relation(poset, m, mp):
    """One of 'lt', 'gt', 'eq', 'incomparable'."""
    forward = leq(poset, m, mp)
    backward = leq(poset, mp, m)
    if forward and backward:
        return "eq"
    if forward:
        return "lt"
    if backward:
        return "gt"
    return "incomparable"
