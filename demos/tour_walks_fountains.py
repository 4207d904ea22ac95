"""Filters of the two-variable staircase as lattice walks and coin fountains."""
from __future__ import annotations

import argparse
from collections import Counter

from stableorders.bijections import (
    filter_to_walk,
    fountain_gf_coefficients,
    walk_to_filter,
    walk_weight,
)
from stableorders.filters import catalan
from stableorders.lattice import build_hasse
from stableorders.orders import PosetId
from stableorders.verify import (
    count_fountains,
    enumerate_filters,
    enumerate_walks,
    iter_fountains,
    limit_filter_count,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=int, default=2, help="staircase degree to walk")
    args = parser.parse_args()
    d = args.degree

    print(f"Divisibility filters of the degree-{d} staircase in two variables,")
    print(f"each traced as a walk of region {d + 2} whose weight is the filter size:")
    for members in enumerate_filters(build_hasse(PosetId.parse(f"D[n=2,d={d}]"))):
        walk = filter_to_walk(members, d)
        inner = ", ".join(sorted(map(str, members)))
        print(f"  {walk}  weight {walk_weight(walk):2}  {{{inner}}}")
    print()

    print("Walk counts by region are Catalan numbers:")
    counts = [sum(1 for _ in enumerate_walks(r)) for r in range(7)]
    print(f"  walks:   {counts}")
    print(f"  catalan: {[catalan(r) for r in range(7)]}")
    print()

    steps = "DDRDRR"
    walk = next(w for w in enumerate_walks(3) if str(w) == steps)
    members = walk_to_filter(walk)
    print(f"A single walk decoded: {steps} ->", sorted(map(str, members)))
    print()

    print("Fountains of coins grouped by size (first rows shown as weights):")
    for coins in range(5):
        shapes = [f.rows for f in iter_fountains(coins)]
        print(f"  {coins} coins: {len(shapes)} fountains  {shapes}")
    print()

    nterms = 12
    coefficients = fountain_gf_coefficients(nterms)
    print(f"Generating-function coefficients up to {nterms} coins:")
    print(f"  {coefficients}")
    print()

    print("The same numbers appear as stabilized filter counts by size:")
    print("  coins   fountains   filters of that size (degree large enough)")
    for coins in range(8):
        print(f"  {coins:5}   {count_fountains(coins):9}   {limit_filter_count(coins)}")
    print()

    histogram = Counter(walk_weight(w) for w in enumerate_walks(4))
    print("Walk weights of region 4, tallied:", dict(sorted(histogram.items())))


if __name__ == "__main__":
    main()
