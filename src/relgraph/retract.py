"""Retraction-style relations with identity restriction, and their fixpoints.

A retraction maps a graph onto an induced subgraph through a relation
containing the identity on that subgraph; the minimal targets coincide with
classical graph cores. Reversing direction (growing a graph out of a
subgraph) yields the coretract structure: the minimal generating subgraph
is unique up to isomorphism and computable greedily from the neighborhood
set system. Brute-force searches double-check both constructions.
"""

from __future__ import annotations

from itertools import combinations

from .core import (
    CapExceededError,
    Graph,
    ORACLE_VERTEX_CAP,
    Record,
    Relation,
    _compose_columns,
    _deletions,
    _sweep,
    apply_strong,
    check_witness,
    identity_relation,
    induced_subgraph,
)


def property_n(g: Graph) -> bool:
    """No vertex's open neighborhood is contained in another's."""
    adj = g.adjacency
    for x in range(g.n):
        for y in range(g.n):
            if x != y and adj[x] & ~adj[y] == 0:
                return False
    return True


def property_n_star(g: Graph) -> bool:
    """No neighborhood is a union of other vertices' neighborhoods.

    Greedy test: the union of all neighborhoods contained in N(x) is the
    largest candidate union, so comparing it against N(x) is exact. That is
    the R-cocore deletion rule, so a pass of ``_deletions`` over the
    vertices with an edge must delete none of them; the first deletion
    settles it. The covering family must be nonempty; a lone isolated
    vertex does not defeat itself, two do.
    """
    return next(_deletions(g, rcore=False), None) is None and len(g.isolated_vertices()) <= 1


def _identity_within(sub: list[int], rel: Relation) -> bool:
    return all(rel.columns[x] >> x & 1 for x in sub)


def is_retraction(g: Graph, sub, rel: Relation) -> bool:
    """Whether ``rel`` maps g onto its induced subgraph fixing that subgraph.

    ``rel`` lives on the full universe with pairs landing inside ``sub``;
    it must have full domain, contain the identity on ``sub``, and produce
    exactly the induced subgraph.
    """
    vs = sorted(set(sub))
    if any(v < 0 or v >= g.n for v in vs):
        raise ValueError("subgraph vertices out of range")
    if rel.domain_size != g.n or rel.image_size != g.n:
        raise ValueError("retraction relations live on the graph's own universe")
    inside = set(vs)
    if any(col for b, col in enumerate(rel.columns) if b not in inside):
        return False
    if not rel.has_full_domain or not _identity_within(vs, rel):
        return False
    dense = Relation._of_columns(g.n, len(vs), [rel.columns[v] for v in vs])
    if not dense.has_full_image:
        return False
    return apply_strong(g, dense) == induced_subgraph(g, vs)


def is_coretraction(g: Graph, sub, rel: Relation) -> bool:
    """Whether ``rel`` grows g back out of its induced subgraph.

    Pairs run from ``sub`` over the full universe, the identity on ``sub``
    is contained, and applying the subgraph through ``rel`` reproduces g.
    """
    vs = sorted(set(sub))
    if any(v < 0 or v >= g.n for v in vs):
        raise ValueError("subgraph vertices out of range")
    if rel.domain_size != g.n or rel.image_size != g.n:
        raise ValueError("coretraction relations live on the graph's own universe")
    inside = set(vs)
    rows = rel.row_masks()
    if any(row for x, row in enumerate(rows) if x not in inside):
        return False
    if not _identity_within(vs, rel):
        return False
    # Its transpose's columns are the rows of ``rel`` at ``sub``.
    dense = Relation._of_columns(g.n, len(vs), [rows[v] for v in vs]).transpose()
    if not dense.has_full_image:
        return False
    return apply_strong(induced_subgraph(g, vs), dense) == g


class RetractionWitness(Record):
    """A verified retraction or coretraction onto/from ``sub``."""

    direction: str  # retraction | coretraction
    sub: frozenset[int]
    relation: Relation


def _functional_retraction(g: Graph, sub: tuple[int, ...]) -> dict[int, int] | None:
    """Identity-on-sub homomorphism g -> g[sub], by backtracking.

    ``g`` is loop-free: ``graph_core_with_witness`` settles a looped graph
    before it searches.
    """
    adj = g.adjacency
    image: dict[int, int] = {v: v for v in sub}
    outside = [v for v in range(g.n) if v not in image]

    def place(i: int) -> bool:
        if i == len(outside):
            return True
        v = outside[i]
        # The images of v's placed neighbours; v may go to a common neighbour.
        need = 0
        for u, w in image.items():
            need |= (adj[v] >> u & 1) << w
        for c in sub:
            if adj[c] & need == need:
                image[v] = c
                if place(i + 1):
                    return True
                del image[v]
        return False

    return dict(image) if place(0) else None


# The caps of the exhaustive searches of ``graph_core_with_witness`` and of
# ``all_self_relations_are_automorphisms(..., verify=True)``.
CORE_SEARCH_CAP = 10
SELF_RELATION_CAP = 6


def graph_core(g: Graph) -> Graph:
    core, _ = graph_core_with_witness(g)
    return core


def graph_core_with_witness(g: Graph) -> tuple[Graph, RetractionWitness]:
    """Smallest induced subgraph reachable by a retraction, with witness.

    Tries target vertex sets by increasing size then lexicographic order;
    minimal retractions are functional, so the search runs over
    identity-fixing homomorphisms. A loop vertex shortcuts the search:
    everything retracts onto it.
    """
    if g.n > CORE_SEARCH_CAP:
        raise CapExceededError(f"core search capped at {CORE_SEARCH_CAP} vertices, got {g.n}")
    loops = g.loop_vertices()
    if loops:
        o = loops[0]
        rel = Relation(g.n, g.n, frozenset((x, o) for x in range(g.n)))
        witness = RetractionWitness("retraction", frozenset({o}), rel)
        check_witness(is_retraction(g, [o], rel), "graph_core: loop retraction")
        return induced_subgraph(g, [o]), witness
    if g.n == 0:
        return g, RetractionWitness(
            "retraction", frozenset(), Relation(0, 0, frozenset())
        )
    for size in range(1, g.n):
        for sub in combinations(range(g.n), size):
            mapping = _functional_retraction(g, sub)
            if mapping is None:
                continue
            rel = Relation(g.n, g.n, mapping.items())
            check_witness(rel.is_functional, "graph_core: retraction not functional")
            check_witness(is_retraction(g, sub, rel), "graph_core: retraction witness")
            witness = RetractionWitness("retraction", frozenset(sub), rel)
            return induced_subgraph(g, sub), witness
    # No proper retract: the graph is its own core, through the identity.
    sub = tuple(range(g.n))
    rel = identity_relation(g.n)
    check_witness(is_retraction(g, sub, rel), "graph_core: identity retraction")
    return induced_subgraph(g, sub), RetractionWitness("retraction", frozenset(sub), rel)


def cocore(g: Graph) -> Graph:
    """Minimal generating subgraph (R-cocore), the graph of
    :func:`cocore_with_witness`."""
    core, _ = cocore_with_witness(g)
    return core


def cocore_with_witness(g: Graph) -> tuple[Graph, RetractionWitness]:
    """Minimal generating subgraph plus a verified coretraction witness.

    Every deleted vertex's neighborhood is a union of surviving ones, so
    the witness relates each survivor to the deleted vertices whose
    neighborhoods contain its own, on top of the identity. Isolated
    vertices are split off and re-attached as one isolated vertex.
    """
    if g.n == 0:
        return g, RetractionWitness(
            "coretraction", frozenset(), Relation(0, 0, frozenset())
        )
    adj = g.adjacency
    survivors, _ = _sweep(g, rcore=False)
    keep = [v for v in range(g.n) if survivors >> v & 1]
    pairs = {(x, x) for x in keep}
    for d in range(g.n):
        if adj[d] and not survivors >> d & 1:
            pairs |= {(y, d) for y in keep if adj[y] & ~adj[d] == 0}
    isolated = g.isolated_vertices()
    if isolated:
        keep.append(isolated[0])
        pairs |= {(isolated[0], v) for v in isolated}
    rel = Relation(g.n, g.n, pairs)
    core = induced_subgraph(g, keep)
    check_witness(is_coretraction(g, keep, rel), "cocore: coretraction witness")
    return core, RetractionWitness("coretraction", frozenset(keep), rel)


def cocore_oracle(g: Graph) -> Graph:
    """Exhaustive minimal coretract: scan induced subgraphs by size and
    lexicographic vertex set, deciding each by pinned-column search."""
    from .solver import search_with_pinned_columns

    if g.n > ORACLE_VERTEX_CAP:
        raise CapExceededError(f"oracle capped at {ORACLE_VERTEX_CAP} vertices, got {g.n}")
    if g.n == 0:
        return g
    for size in range(1, g.n):
        for sub in combinations(range(g.n), size):
            index = {v: i for i, v in enumerate(sub)}
            required = [0] * g.n
            universe = [(1 << size) - 1] * g.n
            for v in sub:
                required[v] = 1 << index[v]
            found = search_with_pinned_columns(
                induced_subgraph(g, sub), g, required, universe=universe
            )
            if found is not None:
                return induced_subgraph(g, sub)
    return g  # the graph itself qualifies via the identity


def is_automorphism_relation(g: Graph, rel: Relation) -> bool:
    """Whether the relation is the graph of an adjacency-preserving bijection."""
    if rel.domain_size != g.n or rel.image_size != g.n:
        return False
    if not (
        rel.is_functional
        and rel.is_injective
        and rel.has_full_domain
        and rel.has_full_image
    ):
        return False
    # A bijection preserves adjacency exactly when it commutes with it:
    # the neighbours of each pre-image are the pre-images of the neighbours.
    adj, cols = g.adjacency, rel.columns
    return _compose_columns(adj, cols) == _compose_columns(cols, adj)


def all_self_relations_are_automorphisms(g: Graph, verify: bool = False) -> bool:
    """Whether every self-solution of the graph's own equation is an
    automorphism; equivalent to containment-free neighborhoods.

    With ``verify=True`` the answer is cross-checked against the solver:
    positively by enumerating all self-solutions (the set is then just the
    automorphism group), negatively by exhibiting a non-functional
    solution built from a containment pair.
    """
    answer = property_n(g)
    if not verify:
        return answer
    if g.n > SELF_RELATION_CAP:
        raise CapExceededError(
            f"verification capped at {SELF_RELATION_CAP} vertices, got {g.n}"
        )
    if answer:
        from .solver import SolveQuery, solve

        solutions, _ = solve(SolveQuery(g, g, enumeration="all"))
        bad = next(
            (r for r in solutions.solutions if not is_automorphism_relation(g, r)), None
        )
        check_witness(
            bad is None,
            f"self-relations: containment-free graph admits non-automorphism solution {bad}",
        )
    else:
        pair = next(
            (x, y)
            for x in range(g.n)
            for y in range(g.n)
            if x != y and g.adjacency[x] & ~g.adjacency[y] == 0
        )
        rel = identity_relation(g.n).union(Relation(g.n, g.n, [pair]))
        check_witness(
            apply_strong(g, rel) == g and not is_automorphism_relation(g, rel),
            "self-relations: constructed counterexample failed to validate",
        )
    return answer
