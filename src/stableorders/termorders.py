"""Term orders on monomials and how they interact with the exchange orders.

Every term order built here is a total order; the ones with strictly
decreasing positive weights refine the strongly-stable order, and the
intersection of all degree-compatible term orders is the ordinal sum of the
fixed-degree strongly-stable orders.
"""

from operator import le

from .lattice import CapExceededError
from .monomials import _require_width, monomials_up_to_degree, stars_and_bars
from .orders import Family, PosetId, _Record, _running_sums, relation

LESS = -1
EQUAL = 0
GREATER = 1

_KINDS = ("lex", "deglex", "degrevlex", "weighted")


class TermOrder(_Record):
    """A total order on monomials.

    kind 'weighted' compares weighted exponent sums (breaking ties
    lexicographically); with degree_first it compares total degree before the
    weighted sums, making the order degree-compatible regardless of weights.
    """

    __slots__ = ("kind", "weights", "degree_first")

    def __init__(self, kind, weights=None, degree_first=False):
        if kind not in _KINDS:
            raise ValueError(f"unknown term order kind {kind!r}")
        if kind == "weighted":
            weights = tuple(weights or ())
            if not weights:
                raise ValueError("a weighted order needs a weight vector")
            if not all(isinstance(w, int) and w > 0 for w in weights):
                raise ValueError("weights must be positive integers")
        else:
            if weights is not None:
                raise ValueError(f"{kind} does not take weights")
            if degree_first:
                raise ValueError("degree_first applies only to weighted orders")
        self._init(kind, weights, degree_first)

    def compare(self, m, mp):
        """LESS, EQUAL, or GREATER for m against mp."""
        nvars = max(m.max_support(), mp.max_support())
        a = m.exponent_vector(nvars)
        b = mp.exponent_vector(nvars)
        if self.kind == "lex":
            return _cmp(a, b)
        if self.kind == "deglex":
            return _cmp(m.degree(), mp.degree()) or _cmp(a, b)
        if self.kind == "degrevlex":
            # after degree, the monomial with the smaller last differing
            # exponent is the greater one
            return _cmp(m.degree(), mp.degree()) or _cmp(b[::-1], a[::-1])
        if len(self.weights) < nvars:
            raise ValueError(
                f"weight vector of length {len(self.weights)} cannot compare "
                f"monomials in {nvars} variables"
            )
        if self.degree_first:
            by_degree = _cmp(m.degree(), mp.degree())
            if by_degree:
                return by_degree
        wa = sum(w * e for w, e in zip(self.weights, a))
        wb = sum(w * e for w, e in zip(self.weights, b))
        return _cmp(wa, wb) or _cmp(a, b)


def _cmp(x, y):
    """LESS, EQUAL or GREATER for x against y; exponent lists of equal
    length compare lexicographically."""
    return (x > y) - (x < y)


#: Default bound on the ordered pairs refines_borel scans, N * (N - 1) for
#: N monomials: it admits n=4 up to degree 9 (715 monomials), not degree 10.
REFINES_PAIR_CAP = 1_000_000


def refines_borel(order, nvars, max_degree, cap=REFINES_PAIR_CAP):
    """Check that every strict strongly-stable relation on monomials in
    nvars variables up to max_degree is preserved by the term order.

    Scans the ground set in graded-lex order, m in the outer loop and m'
    in the inner one, and checks each strict relation m < m' against the
    order.  Returns (True, (top, bottom)) with the first strict pair on
    success, or (False, (bottom, top)) naming the first violated relation.
    Raises CapExceededError, before building the ground set, when it has
    more than `cap` ordered pairs, and ValueError when nvars is above
    MAX_VARIABLES, before a running-sum tuple that long is built.
    """
    PosetId(Family.BOREL, nvars)  # refuses nvars < 1
    size = stars_and_bars(nvars, max_degree, cap)
    if size is None:
        raise CapExceededError(
            f"at least 2**{min(nvars, max_degree)} monomials have more pairs than the cap of {cap}"
        )
    if size * (size - 1) > cap:
        raise CapExceededError(
            f"{size * (size - 1)} pairs of monomials exceed the cap of {cap}"
        )
    _require_width(nvars)
    ground = monomials_up_to_degree(nvars, max_degree)
    rows = [(m, _running_sums(m.exps, nvars)) for m in ground]
    sample = None
    for m, s in rows:
        for mp, sp in rows:
            if mp is m or not all(map(le, s, sp)):
                continue
            if order.compare(m, mp) != LESS:
                return False, (m, mp)
            if sample is None:
                sample = (mp, m)
    return True, sample


def weight_vectors_by_total(nvars):
    """Yield all strictly decreasing positive integer weight vectors, by
    increasing total, then in lex order.

    A loop, not a recursion over the entries.  Say entry k is f and the c =
    nvars - k entries from it on sum to r.  The c - 1 entries after f are
    distinct positive integers below f, whose sum can be anything from
    c(c-1)/2 to (c-1)f - c(c-1)/2, so the prefix up to f is completed by
    some vector exactly when f is below entry k - 1 and
    ceil((r + c(c-1)/2) / c) <= f <= r - c(c-1)/2.
    Those f form an interval, so the next vector in lex order raises by one
    the last entry that can still rise and completes it by _least_tail.
    Refuses nvars above MAX_VARIABLES, before building the first vector.
    """
    if nvars < 1:
        raise ValueError("nvars must be at least 1")
    _require_width(nvars)
    total = nvars * (nvars + 1) // 2
    while True:
        v = _least_tail(total, nvars)
        while True:
            yield tuple(v)
            rest = v[-1]
            for k in range(nvars - 2, -1, -1):
                rest += v[k]
                c = nvars - k
                upper = v[k - 1] if k else total + 1
                if v[k] < min(upper - 1, rest - c * (c - 1) // 2):
                    v[k + 1 :] = _least_tail(rest - v[k] - 1, c - 1)
                    v[k] += 1
                    break
            else:
                break
        total += 1


def _least_tail(rest, count):
    """The lex-least strictly decreasing `count` positive integers summing
    to rest, each the least value that leaves a completable tail."""
    out = []
    for c in range(count, 0, -1):
        out.append(-(-(rest + c * (c - 1) // 2) // c))
        rest -= out[-1]
    return out


def separating_witnesses(m, mp, nvars=None, budget=10_000):
    """For a strongly-stable-incomparable pair, find weight vectors whose
    weighted orders disagree about it.

    Returns (above, below): strictly decreasing weight vectors putting m
    above mp and below mp respectively.  Raises ValueError if the pair is
    comparable or the search budget runs out.
    """
    if nvars is None:
        nvars = max(m.max_support(), mp.max_support(), 1)
    rel = relation(PosetId(Family.BOREL, nvars), m, mp)
    if rel != "incomparable":
        raise ValueError(f"{m} and {mp} are comparable ({rel}); nothing to separate")
    above = below = None
    for tried, weights in enumerate(weight_vectors_by_total(nvars)):
        if tried >= budget:
            raise ValueError(f"no separating weight vectors within budget {budget}")
        side = TermOrder("weighted", weights).compare(m, mp)
        if side == GREATER and above is None:
            above = weights
        elif side == LESS and below is None:
            below = weights
        if above is not None and below is not None:
            return above, below


