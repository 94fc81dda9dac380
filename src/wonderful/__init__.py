"""Combinatorics of wonderful compactifications of configuration spaces of
points in a variety X relative to a nonsingular subvariety D: building sets,
the nested-set complex of the boundary, blowup orderings, and the dual
graphs of universal-family fibers."""

from .geometry import Component, ConfigError, GeometryConfig, Space, load_config, point_components
from .labels import Partition, SubsetRelation, elements, mask_of, subset_relation
from .loci import (
    Center,
    Diagonal,
    DLocus,
    Locus,
    PairPosition,
    center_to_locus,
    codimension,
    contains,
    dimension,
    intersect,
    pair_position,
    parse_center,
)
from .building import (
    BuildingSet,
    building_set_for,
    g_factors,
    is_nested_flag_oracle,
)
from .nested import (
    BudgetError,
    NestedSet,
    count_divisors,
    divisors_for,
    enumerate_nested_sets,
    f_vector,
    is_nested,
    make_nested_set,
    maximal_nested_sets,
)
from .orders import (
    BlowupSequence,
    generate_order,
    swap_rewrite,
    two_block_order,
    validate_building_set_order,
    validate_inclusion_order,
)
from .symmetry import Orbit, Permutation, act, all_permutations, orbits, stabilizer
from .trees import (
    DegenerationTree,
    fiber_tree,
    is_stable,
    to_dot,
    tree_to_nested,
)

__version__ = "0.1.0"
