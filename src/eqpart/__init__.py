"""Equitable 2-partitions and eigenfunctions of Hamming graphs H(n, q).

The package certifies equitable partitions exactly (integer and rational
arithmetic only), builds the known families attaining the second graph
eigenvalue, classifies small ternary eigenfunctions, and enumerates
partitions by quotient matrix or eigenvalue index.
"""

from .hamming import (
    Automorphism,
    GraphParams,
    MAX_VERTICES,
    apply_automorphism,
    compose,
    coordinate_stride,
    coordinate_value,
    decode_vertex,
    eigenvalue,
    encode_vertex,
    essential_coordinates_of_values,
    identity_automorphism,
    inverse,
    line_cliques,
    neighbor_table,
    neighbors,
    random_automorphism,
    vertex_map,
)
from .partitions import (
    FiberMismatch,
    NotEquitable,
    QuotientMatrix,
    TwoPartition,
    equitable_check,
    essential_coordinates,
    extend,
    orthogonal_array_check,
    predicted_cell_size,
    quotient_eigenvalue_indices,
    quotient_eigenvalues,
    reduce,
    spectral_check,
    transform,
)
from .eigenfunctions import (
    AllZero,
    Constant,
    MAX_ABS_VALUE,
    NotEigen,
    NotMember,
    QuasiCross,
    QuasiString,
    VertexFunction,
    adjacency_image,
    classify_lambda1,
    classify_top_two,
    constant_function,
    in_top_two_eigenspaces,
    is_eigenfunction,
    partition_eigenfunction,
    quasi_cross,
    quasi_string,
    restrict,
    restriction_difference,
)
from .constructions import (
    AlphabetBlocks,
    GridImbalance,
    LiftBlocks,
    eight_cycle_partition,
    grid_clique_balance,
    grid_quotient,
    is_induced_cycle,
    lift_two_partition,
    lifted_cycle_pair,
    permutation_switching,
)
from .search import (
    CyclePairLifting,
    EnumConstraints,
    SmallBase,
    SwitchingConstruction,
    TernaryCensus,
    Unclassified,
    are_isomorphic,
    backtracking_enumerate,
    brute_force_enumerate,
    candidate_quotient_matrices,
    canonical_form,
    classify_reduced_lambda2,
    enumerate_ternary_census,
)
from .documents import (
    DocumentError,
    FORMAT_VERSION,
    cell_to_hex,
    function_from_doc,
    function_to_doc,
    hex_to_cell,
    parse_blocks,
    partition_from_doc,
    partition_to_doc,
)

__version__ = "0.1.0"
