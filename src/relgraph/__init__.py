"""Algebra of relations between finite graphs.

A relation between the vertex sets of two graphs transfers edges from one
to the other; this package implements that composition (strong, loop-free
weak, and weighted forms), the equivalences it induces, minimum
representatives (reduced forms, cores, cocores) with verified witnesses,
and an exhaustive solver for the underlying equation with machine-checkable
no-instance certificates.
"""

from .algebra import (
    Decomposition,
    HallReport,
    HallSatisfiedError,
    apply_strong,
    apply_weak,
    apply_weighted,
    decompose,
    hall_check,
    is_reversible,
    nohall_split,
)
from .core import (
    CapExceededError,
    Graph,
    ImageNotFullError,
    LoopsNotAllowedError,
    Partition,
    Relation,
    UniverseMismatchError,
    WeightedGraph,
    WitnessCheckError,
    chromatic_number,
    complement,
    complete_graph,
    components,
    compose_rel,
    cycle_graph,
    diameter,
    disjoint_union,
    distance_matrix,
    empty_graph,
    graph_from_edges,
    identity_relation,
    induced_subgraph,
    is_complete,
    is_connected,
    partition_from_classes,
    path_graph,
    path_length_of,
    radius,
    relation_from_pairs,
    transpose,
    unit_weights,
    weighted_graph,
)
from .equivalence import (
    EquivalenceWitness,
    ThinQuotient,
    find_isomorphism,
    is_thin,
    rcore,
    rcore_oracle,
    rcore_with_witness,
    strongly_equivalent,
    thin_quotient,
    weakly_equivalent,
)
from .generate import all_graphs, all_graphs_up_to, canonical_key
from .retract import (
    RetractionWitness,
    all_self_relations_are_automorphisms,
    cocore,
    cocore_oracle,
    cocore_with_witness,
    graph_core,
    graph_core_with_witness,
    is_automorphism_relation,
    is_coretraction,
    is_retraction,
    property_n,
    property_n_star,
)
from .solver import (
    BudgetExhaustedError,
    Certificate,
    PreconditionViolatedError,
    SolutionSet,
    SolveQuery,
    certificate_holds,
    certify,
    complete_source_decision,
    complete_source_solution,
    iter_solutions,
    reduce_fulrel_to_shom,
    reduce_hom_to_fulrel,
    relation_exists,
    solve,
    subgraph_reduce,
)

__version__ = "0.1.0"
