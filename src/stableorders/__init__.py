"""Strongly-stable and stable partial orders on monomials.

The package models monomials under exchange moves: the strongly-stable
order lets any variable move to a smaller index, the stable order only the
largest one, and both sit between divisibility and the term orders that
refine them.  Fixed-degree slices are lattices whose filters are counted
and enumerated exactly, with bijections onto partitions, bounded lattice
walks, coin fountains, and planar partitions.
"""

__version__ = "0.1.0"
