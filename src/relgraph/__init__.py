"""Algebra of relations between finite graphs.

A relation between the vertex sets of two graphs transfers edges from one
to the other; this package implements that composition (strong, loop-free
weak, and weighted forms), the equivalences it induces, minimum
representatives (reduced forms, cores, cocores) with verified witnesses,
and an exhaustive solver for the underlying equation with machine-checkable
no-instance certificates.

Names load on first use (PEP 562): ``import relgraph`` imports no
submodule, and ``relgraph.solve`` or ``relgraph.solver`` imports the module
that defines it the first time it is read. A process then pays only for
the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each exported name, by the submodule that defines it.
_EXPORTS = {
    "algebra": (
        "Decomposition", "HallReport", "HallSatisfiedError", "decompose", "hall_check",
        "is_reversible", "nohall_split",
    ),
    "core": (
        "CapExceededError", "Graph", "ImageNotFullError", "LoopsNotAllowedError",
        "Partition", "Relation", "UniverseMismatchError", "WitnessCheckError", "apply_strong",
        "apply_weak", "chromatic_number", "complement", "complete_graph", "components",
        "compose_rel", "cycle_graph", "diameter", "disjoint_union", "distance_matrix",
        "empty_graph", "graph_from_edges", "identity_relation", "induced_subgraph",
        "is_complete", "is_connected", "partition_from_classes", "path_graph",
        "path_length_of", "radius", "relation_from_pairs", "transpose",
    ),
    "equivalence": (
        "EquivalenceWitness", "ThinQuotient", "find_isomorphism", "is_thin", "rcore",
        "rcore_oracle", "rcore_with_witness", "strongly_equivalent", "thin_quotient",
        "weakly_equivalent",
    ),
    "generate": (
        "all_graphs", "all_graphs_up_to", "canonical_key",
    ),
    "retract": (
        "RetractionWitness", "all_self_relations_are_automorphisms", "cocore",
        "cocore_oracle", "cocore_with_witness", "graph_core", "graph_core_with_witness",
        "is_automorphism_relation", "is_coretraction", "is_retraction", "property_n",
        "property_n_star",
    ),
    "solver": (
        "BudgetExhaustedError", "Certificate", "PreconditionViolatedError",
        "SolutionSet", "SolveQuery", "certificate_holds", "certify",
        "complete_source_decision", "complete_source_solution", "iter_solutions",
        "reduce_fulrel_to_shom", "reduce_hom_to_fulrel", "relation_exists", "solve",
        "subgraph_reduce",
    ),
    "weighted": (
        "WeightedGraph", "apply_weighted", "unit_weights", "weighted_graph",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "io"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # Importing a submodule also binds it in this namespace.
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
