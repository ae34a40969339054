"""Thinness, relational equivalence, and minimum representatives.

Two graphs are strongly equivalent when one relation maps each onto the
other in both directions (the backward trip uses the transpose); this holds
exactly when their quotients by the equal-neighborhood relation are
isomorphic. The weak variant allows unrelated relations in the two
directions; its minimum-order representatives ("reduced forms") are
computed by a polynomial deletion algorithm and cross-checked against an
exhaustive search over candidate graphs and relation pairs.
"""

from __future__ import annotations

from .algebra import apply_strong
from .core import (
    CapExceededError,
    Graph,
    ORACLE_VERTEX_CAP,
    Partition,
    Record,
    Relation,
    _rcore_maps,
    _reduced_graph,
    _sweep,
    check_witness,
    compose_rel,
    partition_from_classes,
)


class ThinQuotient(Record):
    """Quotient of a graph by the equal-open-neighborhood relation.

    ``class_relation`` maps each vertex to its class; applying the quotient
    graph through its transpose reconstructs the source exactly, which the
    constructor path checks.
    """

    source: Graph
    partition: Partition
    thin_graph: Graph
    class_relation: Relation


def thin_quotient(g: Graph) -> ThinQuotient:
    classes: dict[int, int] = {}
    for v, row in enumerate(g.adjacency):
        classes[row] = classes.get(row, 0) | 1 << v
    # In insertion order, so ordered by smallest member: the vertex-to-class
    # relation's columns. The quotient graph is g through it.
    rel = Relation._of_columns(g.n, len(classes), classes.values())
    partition = partition_from_classes(g.n, [rel.preimage_of(i) for i in range(rel.image_size)])
    thin = apply_strong(g, rel)
    out = ThinQuotient(g, partition, thin, rel)
    check_witness(
        apply_strong(thin, rel.transpose()) == g,
        "thin_quotient: quotient does not regenerate the graph",
    )
    check_witness(is_thin(thin), "thin_quotient: quotient is not thin")
    return out


def is_thin(g: Graph) -> bool:
    """No two vertices share an open neighborhood."""
    return len({g.adjacency[v] for v in range(g.n)}) == g.n


def find_isomorphism(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """A vertex bijection preserving adjacency both ways, or None.

    Follows the first path of ``g``'s individualization-refinement tree
    (see ``generate``), recording the cell sizes at each depth, then
    searches ``h``'s tree depth first for a leaf that relabels ``h`` to the
    same rows, skipping every subtree whose cell sizes differ. An
    isomorphism maps ``g``'s path onto one of ``h``'s, so the search is
    complete. On a graph and itself it returns the identity. Graphs whose
    sorted degree sequences differ are rejected at once.
    """
    if sorted(map(int.bit_count, g.adjacency)) != sorted(map(int.bit_count, h.adjacency)):
        return None
    # Imported here, so that ``rcore`` and ``thin`` never load ``generate``.
    from .generate import _leaves, _permute

    profile: list[list[int]] = []

    def record(depth: int, colour: list[int]) -> bool:
        profile.append(sorted(colour))
        return True

    leaf = next(_leaves(g.adjacency, record))
    rows = _permute(g.adjacency, leaf)
    for other in _leaves(h.adjacency, lambda depth, colour: sorted(colour) == profile[depth]):
        if _permute(h.adjacency, other) == rows:
            vertex_at = {c: w for w, c in enumerate(other)}
            return tuple(vertex_at[c] for c in leaf)
    return None


class EquivalenceWitness(Record):
    """Relations realizing an equivalence; strong witnesses are transposes."""

    kind: str  # strong | weak
    forward: Relation
    backward: Relation


def strongly_equivalent(g: Graph, h: Graph) -> EquivalenceWitness | None:
    """Witness with h = g*forward, g = h*transpose(forward), or None.

    Decided through the thin quotients; the witness threads the two class
    relations through an isomorphism of the quotients and is re-validated
    by application before being returned.
    """
    tq_g, tq_h = thin_quotient(g), thin_quotient(h)
    iso = find_isomorphism(tq_g.thin_graph, tq_h.thin_graph)
    if iso is None:
        return None
    k = tq_g.thin_graph.n
    iso_rel = Relation(k, k, frozenset((i, iso[i]) for i in range(k)))
    forward = compose_rel(tq_g.class_relation, iso_rel, tq_h.class_relation.transpose())
    backward = forward.transpose()
    check_witness(apply_strong(g, forward) == h, "strongly_equivalent: forward witness")
    check_witness(apply_strong(h, backward) == g, "strongly_equivalent: backward witness")
    return EquivalenceWitness("strong", forward, backward)


def rcore(g: Graph) -> Graph:
    """Minimum-order representative of the weak equivalence class.

    Isolated vertices are split off first and re-attached as a single
    isolated vertex. The graph is that of :func:`rcore_with_witness`.
    """
    core, _, _ = rcore_with_witness(g)
    return core


def rcore_with_witness(g: Graph) -> tuple[Graph, Relation, Relation]:
    """Reduced form plus full-domain relations to and from it.

    Returns (core, forward, backward) with core = g*forward and
    g = core*backward; both directions are checked before returning.
    Isolated vertices collapse onto one isolated core vertex, the last,
    and it fans back out over them.
    """
    if g.n == 0:
        empty = Relation(0, 0, frozenset())
        return g, empty, empty
    keep, forward, backward = _rcore_maps(g, *_sweep(g, rcore=True))
    core = _reduced_graph(g, keep)
    forward = Relation._of_columns(g.n, core.n, forward)
    backward = Relation._of_columns(core.n, g.n, backward)
    check_witness(apply_strong(g, forward) == core, "rcore: forward witness")
    check_witness(apply_strong(core, backward) == g, "rcore: backward witness")
    return core, forward, backward


def rcore_oracle(g: Graph) -> Graph:
    """Exhaustive minimum-order weak-equivalence representative.

    Scans candidate graphs by increasing order (canonical generation order
    within each size, loops allowed only when the input has them) and
    returns the first admitting full-domain relations in both directions.
    Independent of the deletion algorithm: existence is decided by the
    equation solver.
    """
    from .generate import all_graphs, canonical_key
    from .solver import relation_exists

    if g.n > ORACLE_VERTEX_CAP:
        raise CapExceededError(f"oracle capped at {ORACLE_VERTEX_CAP} vertices, got {g.n}")
    if g.n == 0:
        return g
    loops = not g.is_simple
    for k in range(1, g.n):
        for cand in all_graphs(k, loops=loops):
            if relation_exists(g, cand, full_domain=True) and relation_exists(
                cand, g, full_domain=True
            ):
                return cand
    # No strictly smaller representative: the input itself (trivially
    # equivalent to itself) has minimum order; return its canonical form.
    return Graph._of_rows(canonical_key(g))


def weakly_equivalent(g: Graph, h: Graph) -> EquivalenceWitness | None:
    """Witness with h = g*forward and g = h*backward, or None.

    Decided through isomorphism of the reduced forms; the witnesses are
    composed from the deletion traces of both graphs and re-validated.
    """
    core_g, fwd_g, bwd_g = rcore_with_witness(g)
    core_h, fwd_h, bwd_h = rcore_with_witness(h)
    iso = find_isomorphism(core_g, core_h)
    if iso is None:
        return None
    k = core_g.n
    iso_rel = Relation(k, k, frozenset((i, iso[i]) for i in range(k)))
    forward = compose_rel(fwd_g, iso_rel, bwd_h)
    backward = compose_rel(fwd_h, iso_rel.transpose(), bwd_g)
    check_witness(apply_strong(g, forward) == h, "weakly_equivalent: forward witness")
    check_witness(apply_strong(h, backward) == g, "weakly_equivalent: backward witness")
    return EquivalenceWitness("weak", forward, backward)
