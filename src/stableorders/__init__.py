"""Strongly-stable and stable partial orders on monomials.

The package models monomials under exchange moves: the strongly-stable
order lets any variable move to a smaller index, the stable order only the
largest one, and both sit between divisibility and the term orders that
refine them.  Fixed-degree slices are lattices whose filters are counted
and enumerated exactly, with bijections onto partitions, bounded lattice
walks, coin fountains, and planar partitions.
"""

from .monomials import (
    ONE,
    Monomial,
    borel_moves_up,
    graded_lex_key,
    index_weight,
    monomials_of_degree,
    monomials_up_to_degree,
    stable_moves_up,
)
from .orders import (
    Family,
    GroundSetError,
    PosetId,
    antitone_dual_sequence,
    dual_rename,
    ground_monomials,
    leq,
    monomial_from_partial_sums,
    partial_sums,
    reachability_oracle,
    relation,
)
from .lattice import (
    CapExceededError,
    HasseDiagram,
    NotGradedError,
    NotLatticeError,
    build_hasse,
    check_distributive,
    find_n5,
    gaussian,
    height_width,
    join,
    join_stable,
    meet,
    meet_stable,
    rank_sizes,
)
from .filters import (
    borel_closure,
    boundary,
    catalan,
    count_filters,
    enumerate_filters,
    filter_count_three_vars,
    filter_counts_by_size,
    interior,
    is_borel_ideal,
    is_filter,
    is_filter_by_layers,
    is_stable_ideal,
    minimal_generators,
    stable_closure,
    stable_filter_counts,
    weighted_walk_count,
)
from .bijections import (
    Fountain,
    LatticeWalk,
    PlanarPartition,
    count_fountains,
    distinct_partition_to_filter,
    distinct_partition_to_squarefree,
    enumerate_walks,
    filter_to_distinct_partition,
    filter_to_walk,
    fountain_gf_coefficients,
    iter_filter_level_stacks,
    iter_fountains,
    limit_filter_count,
    monomial_to_young,
    planar_partition_filter_count,
    planar_partition_from_levels,
    remove_first_column,
    squarefree_to_distinct_partition,
    walk_to_filter,
    walk_weight,
    young_contains,
    young_to_monomial,
)
from .termorders import (
    EQUAL,
    GREATER,
    LESS,
    TermOrder,
    ordinal_sum_leq,
    random_weight_vector,
    refines_borel,
    separating_witnesses,
    weight_vectors_by_total,
)

__version__ = "0.1.0"
