"""Counting filters of the exchange orders, with closed forms and rank data."""
from __future__ import annotations

import argparse

from stableorders.filters import (
    catalan,
    count_filters,
    stable_filter_counts,
)
from stableorders.lattice import build_hasse
from stableorders.orders import PosetId
from stableorders.verify import enumerate_filters, filter_count_three_vars, gaussian, rank_sizes


def hasse(text):
    return build_hasse(PosetId.parse(text))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=int, default=4, help="largest degree tabulated")
    args = parser.parse_args()
    top = args.degree

    print("Every filter of the full-transfer order on three variables, degree 2:")
    for members in enumerate_filters(hasse("A[n=3,d=2]")):
        inner = ", ".join(sorted(map(str, members)))
        print(f"  {{{inner}}}")
    print()

    print("Totals double with the degree (three variables), and grow by one (two):")
    print("  d   A[n=3,d]   2^(d+1)   A[n=2,d]   d+2")
    for d in range(1, top + 1):
        a3 = count_filters(hasse(f"A[n=3,d={d}]"))
        a2 = count_filters(hasse(f"A[n=2,d={d}]"))
        print(f"  {d}   {a3:8}   {2 ** (d + 1):7}   {a2:8}   {d + 2:3}")
    print()

    print("Counts by filter size follow a two-term recursion; row for d = 3:")
    size = 4 * 5 // 2
    row = [filter_count_three_vars(3, v) for v in range(size + 1)]
    print(f"  {row}  (sums to {sum(row)})")
    print()

    print("Last-variable-only moves give Catalan partial sums:")
    print("  d   total   catalan(0) + ... + catalan(d+1)")
    for d in range(top + 1):
        total = sum(stable_filter_counts(d))
        closed = sum(catalan(i) for i in range(d + 2))
        print(f"  {d}   {total:5}   {closed}")
    print()

    print("Rank sizes of the full-transfer order match Gaussian binomials:")
    for n, d in [(3, 3), (4, 2)]:
        rs = rank_sizes(hasse(f"A[n={n},d={d}]"))
        print(f"  A[n={n},d={d}]: {rs}")
        print(f"  gaussian({n - 1},{d}): {list(gaussian(n - 1, d))}")


if __name__ == "__main__":
    main()
