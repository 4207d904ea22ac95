"""Guided tour of the exchange orders on monomials."""
from __future__ import annotations

import argparse

from stableorders import cli
from stableorders.lattice import build_hasse
from stableorders.monomials import Monomial
from stableorders.orders import PosetId, relation
from stableorders.verify import borel_moves_up, partial_sums, stable_moves_up

M = Monomial.parse

SYMBOL = {"lt": "<", "gt": ">", "eq": "=", "incomparable": "||"}


def show_pair(code, left, right):
    """Print how one poset relates two monomials."""
    rel = relation(PosetId.parse(code), left, right)
    print(f"  {code:12}  {left} {SYMBOL[rel]} {right}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=int, default=2, help="degree of the diagram shown")
    args = parser.parse_args()

    print("One-step exchange moves push an exponent onto a smaller variable index.")
    m = M("x2*x3")
    print(f"moves up from {m}:")
    print(f"  all transfers:        {sorted(map(str, borel_moves_up(m)))}")
    print(f"  last-variable only:   {sorted(map(str, stable_moves_up(m)))}")
    print()

    print("The four order families compared on the same pairs:")
    for left, right in [(M("x2*x3"), M("x1*x3")), (M("x1*x3"), M("x2^2")), (M("x1"), M("x1*x2"))]:
        for code in ["D", "A[n=3]", "B[n=3]", "C[n=3,d=2]"]:
            poset = PosetId.parse(code)
            if not (poset.contains(left) and poset.contains(right)):
                continue
            show_pair(code, left, right)
        print()

    print("Partial-sum sequences decide the full-transfer order by domination:")
    for m in [M("x1^2*x3"), M("x1*x2*x3"), M("x3^3")]:
        print(f"  {str(m):10} -> {partial_sums(m)}")
    print()

    code = f"A[n=3,d={args.degree}]"
    h = build_hasse(PosetId.parse(code))
    print(f"Cover relations of {code} ({len(h)} monomials):")
    for lo, hi in h.covers:
        print(f"  {h.vertices[hi]} covers {h.vertices[lo]}")
    print()
    print("The same diagram as graphviz input:")
    cli.main(["hasse", "--poset", code, "--format", "dot"])


if __name__ == "__main__":
    main()
