"""Monomials in finitely many variables x1, x2, ... and their exchange moves.

A monomial is stored as a tuple of non-negative integer exponents with
trailing zeros stripped, so x1^2*x3 is (2, 0, 1) and the unit is ().  An
exchange move replaces one copy of a variable x_j by a variable x_i with
smaller index.  The covers that orders, diagrams and filters use come from
orders._generating_moves.

The move kernel works on the stripped exponent tuples themselves: _moved is
the one definition of a unit move and of multiplication by a variable, and
orders._generating_moves, the diagram build, the filter tests and the ideal
closures take and return tuples.  A Monomial, which validates its
exponents, is built only at the boundary: parsed input, diagram vertices
and returned sets.

A tuple as long as its largest variable index is built from sparse terms
(a parsed product, a partition's rows or parts, a number of variables) only
up to MAX_VARIABLES variables: x300000000 alone would take gigabytes.
"""

import re
from itertools import combinations_with_replacement
from math import comb
from operator import sub

_TERM_RE = re.compile(r"x(\d+)(?:\^(\d+))?$")

#: The most variables a dense exponent tuple built from sparse terms may
#: span: x1000000 takes 8 MB and a few hundredths of a second.
MAX_VARIABLES = 1_000_000


def _require_width(nvars):
    """Refuse nvars above MAX_VARIABLES, before a tuple that wide is built."""
    if nvars > MAX_VARIABLES:
        raise ValueError(f"x{nvars} lies above x{MAX_VARIABLES}, the last variable allowed")


def _stripped(exps):
    """The tuple without its trailing zeros, in one slice however many."""
    if exps and not exps[-1]:
        end = len(exps) - 1
        while end and not exps[end - 1]:
            end -= 1
        return exps[:end]
    return exps


def _moved(exps, i, j=0):
    """The stripped exponent tuple of exps * x_i / x_j, or of exps * x_i when
    j is 0 (indices from 1): the one place a tuple gains or moves a unit.
    exps is stripped, and holds x_j when j is given and differs from i."""
    out = list(exps)
    if i > len(out):
        out += [0] * (i - len(out))
    out[i - 1] += 1
    if j:
        out[j - 1] -= 1
        while out and not out[-1]:
            out.pop()
    return tuple(out)


def _check_exponents(values):
    for e in values:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"exponents must be non-negative integers, got {e!r}")


class Monomial:
    """An exponent vector, canonicalized by stripping trailing zeros."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exponents=(), _checked=False):
        exps = tuple(exponents)
        if not _checked:
            _check_exponents(exps)
        exps = _stripped(exps)
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "_hash", hash(exps))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Monomial({list(self.exps)!r})"

    def __str__(self):
        if not self.exps:
            return "1"
        parts = []
        for i, e in enumerate(self.exps, start=1):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts)

    @classmethod
    def from_terms(cls, terms):
        """The monomial with exponent terms[i] on x_i, from a dict of
        variable indices (>= 1) to exponents: the one way sparse terms
        become an exponent tuple, refused above MAX_VARIABLES variables.
        Only the given exponents are checked, not the zeros between them."""
        width = max(terms, default=0)
        _require_width(width)
        _check_exponents(terms.values())
        exps = [0] * width
        for i, e in terms.items():
            exps[i - 1] = e
        return cls(exps, _checked=True)

    @classmethod
    def parse(cls, text):
        """Parse 'x1^2*x3', the unit '1', or an exponent-vector '[2,0,1]'.

        A product goes through from_terms, so a variable above
        MAX_VARIABLES is refused from its sparse terms.  An exponent vector
        is as long as its text, so it is not checked.
        """
        text = text.strip()
        if text == "1":
            return cls()
        if text.startswith("["):
            from ast import literal_eval  # about 3 ms to import, so only here

            try:
                vec = literal_eval(text)
            except (SyntaxError, ValueError, TypeError, MemoryError, RecursionError):
                raise ValueError(f"malformed exponent vector {text!r}") from None
            if not isinstance(vec, (list, tuple)):
                raise ValueError(f"not an exponent vector: {text!r}")
            return cls(vec)
        exps: dict[int, int] = {}
        for term in text.split("*"):
            match = _TERM_RE.match(term.strip())
            if match is None:
                raise ValueError(f"malformed monomial term {term!r} in {text!r}")
            index = int(match.group(1))
            if index < 1:
                raise ValueError(f"variable index must be >= 1 in {text!r}")
            power = int(match.group(2)) if match.group(2) else 1
            if power:  # x_i^0 names no variable
                exps[index] = exps.get(index, 0) + power
        return cls.from_terms(exps)

    def exponent(self, i):
        """Exponent of x_i (1-based); zero beyond the stored support."""
        if i < 1:
            raise ValueError("variable indices start at 1")
        return self.exps[i - 1] if i <= len(self.exps) else 0

    def exponent_vector(self, nvars):
        """Exponents as a list, zero-padded to nvars."""
        if nvars < len(self.exps):
            raise ValueError(f"{self} does not fit in {nvars} variables")
        return list(self.exps) + [0] * (nvars - len(self.exps))

    def degree(self):
        """Total degree, the sum of all exponents."""
        return sum(self.exps)

    def max_support(self):
        """Largest index of a variable that occurs; 0 for the unit."""
        return len(self.exps)

    def divides(self, other):
        """True when every exponent of self is at most the matching one of other."""
        if len(self.exps) > len(other.exps):
            return False
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def gcd(self, other):
        n = min(len(self.exps), len(other.exps))
        return Monomial(min(self.exps[k], other.exps[k]) for k in range(n))

    def lcm(self, other):
        n = max(len(self.exps), len(other.exps))
        return Monomial(max(self.exponent(i), other.exponent(i)) for i in range(1, n + 1))


#: The unit monomial.
ONE = Monomial(())


def graded_lex_key(m):
    """Sort key: total degree first, then the exponent tuple lexicographically."""
    return (m.degree(), m.exps)


def monomials_of_degree(nvars, degree):
    """All monomials of the given total degree in x1..x_nvars, graded-lex order.

    Stars and bars: the running sums s_1 <= ... <= s_{nvars-1} of such an
    exponent vector are any nvars - 1 values in 0..degree, repeats allowed,
    and the exponents are their differences.  itertools lists those tuples
    in lex order, which is the lex order of the exponent vectors.
    """
    if nvars < 0 or degree < 0:
        raise ValueError("nvars and degree must be non-negative")
    if nvars == 0:
        return [ONE] if degree == 0 else []
    return [
        Monomial(map(sub, sums + (degree,), (0,) + sums))
        for sums in combinations_with_replacement(range(degree + 1), nvars - 1)
    ]


def stars_and_bars(bars, stars, bound):
    """comb(bars + stars, bars), counted without listing: the number of
    monomials of degree `stars` in bars + 1 variables, and of degree at most
    `stars` in `bars` variables; 0 when stars < 0.

    None when k = min(bars, stars) exceeds bound's bit length: then the
    count is at least comb(2k, k), the product of (k + i) / i >= 2 over
    i = 1..k, so at least 2**k > bound, and it is not computed
    (comb(2 * 10**6, 10**6) alone would take about a minute).
    """
    if min(bars, stars) > bound.bit_length():
        return None
    return comb(bars + stars, bars) if stars >= 0 else 0


def monomials_up_to_degree(nvars, max_degree):
    """All monomials of degree <= max_degree in x1..x_nvars, graded-lex order."""
    out = []
    for d in range(max_degree + 1):
        out.extend(monomials_of_degree(nvars, d))
    return out
