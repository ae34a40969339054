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

from dataclasses import dataclass

from .algebra import apply_strong
from .core import (
    CapExceededError,
    Graph,
    Partition,
    Relation,
    check_witness,
    compose_rel,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    partition_from_classes,
)
from .generate import all_graphs, canonical_key, graph_of
from .retract import _sweep, _sweep_reattach
from .solver import relation_exists


@dataclass(frozen=True)
class ThinQuotient:
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
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.adjacency[v], []).append(v)
    classes = sorted((frozenset(vs) for vs in groups.values()), key=min)
    partition = partition_from_classes(g.n, classes)
    index = {}
    for i, cls in enumerate(partition.classes):
        for v in cls:
            index[v] = i
    k = len(partition.classes)
    edges = set()
    for u, v in g.edges:
        a, b = index[u], index[v]
        edges.add((a, b) if a <= b else (b, a))
    thin = Graph(k, frozenset(edges))
    rel = Relation(g.n, k, frozenset((v, index[v]) for v in range(g.n)))
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

    Deterministic backtracking: source vertices in index order, candidate
    images in index order, pruned by (loop, degree) invariants.
    """
    if g.n != h.n or len(g.edges) != len(h.edges):
        return None
    n = g.n
    ga, ha = g.adjacency, h.adjacency

    def sig(adj, v):
        return (adj[v] >> v & 1, bin(adj[v]).count("1"))

    if sorted(sig(ga, v) for v in range(n)) != sorted(sig(ha, v) for v in range(n)):
        return None
    image = [-1] * n
    used = [False] * n

    def place(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or sig(ga, v) != sig(ha, w):
                continue
            ok = True
            for u in range(v):
                if bool(ga[v] >> u & 1) != bool(ha[w] >> image[u] & 1):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if place(v + 1):
                    return True
                used[w] = False
        return False

    return tuple(image) if place(0) else None


@dataclass(frozen=True)
class EquivalenceWitness:
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


def rcore(g: Graph, mode: str = "fixpoint") -> Graph:
    """Minimum-order representative of the weak equivalence class.

    Isolated vertices are split off first and re-attached as a single
    isolated vertex. ``mode="literal"`` runs the one-pass variant with
    stale neighborhoods instead of the recomputed fixpoint.
    """
    if mode == "fixpoint":
        core, _, _ = rcore_with_witness(g)
        return core
    if mode != "literal":
        raise ValueError(f"unknown mode {mode!r}")
    return _sweep_reattach(g, rcore=True, fixpoint=False)


def rcore_with_witness(g: Graph) -> tuple[Graph, Relation, Relation]:
    """Reduced form plus full-domain relations to and from it.

    Returns (core, forward, backward) with core = g*forward and
    g = core*backward; both directions are checked before returning.
    """
    if g.n == 0:
        empty = Relation(0, 0, frozenset())
        return g, empty, empty

    isolated = set(g.isolated_vertices())
    live = sorted(set(range(g.n)) - isolated)
    base = induced_subgraph(g, live)
    core_part, fwd, bwd = _rcore_witness_no_isolated(base)

    if not isolated:
        core, forward, backward = core_part, fwd, bwd
    else:
        # Re-attach a single isolated vertex; all stripped vertices collapse
        # onto it and it fans back out over them.
        core = disjoint_union(core_part, empty_graph(1))
        iso_core = core_part.n
        fwd_pairs = {(live[x], b) for x, b in fwd.pairs}
        fwd_pairs |= {(v, iso_core) for v in isolated}
        bwd_pairs = {(a, live[y]) for a, y in bwd.pairs}
        bwd_pairs |= {(iso_core, v) for v in isolated}
        forward = Relation(g.n, core.n, frozenset(fwd_pairs))
        backward = Relation(core.n, g.n, frozenset(bwd_pairs))
    check_witness(apply_strong(g, forward) == core, "rcore: forward witness")
    check_witness(apply_strong(core, backward) == g, "rcore: backward witness")
    return core, forward, backward


def _rcore_witness_no_isolated(g: Graph) -> tuple[Graph, Relation, Relation]:
    """One fixpoint sweep, then both witnesses from its trace in one reverse pass.

    A deleted vertex goes forward wherever its container goes; its pre-image
    under backward is the union of its contributors' pre-images. Every
    container and contributor was live when the vertex went, so the reverse
    pass has already placed it.
    """
    survivors, trace = _sweep(g.adjacency, (1 << g.n) - 1, rcore=True, fixpoint=True)
    keep = [v for v in range(g.n) if survivors >> v & 1]
    image = {v: a for a, v in enumerate(keep)}
    pre = {v: 1 << a for a, v in enumerate(keep)}
    for v, contributors, container in reversed(trace):
        image[v] = image[container]
        pre[v] = 0
        for c in contributors:
            pre[v] |= pre[c]
    k = len(keep)
    forward = Relation(g.n, k, frozenset(image.items()))
    backward = Relation(
        k, g.n, frozenset((a, v) for v in range(g.n) for a in range(k) if pre[v] >> a & 1)
    )
    return induced_subgraph(g, keep), forward, backward


def rcore_oracle(g: Graph, cap: int = 7) -> Graph:
    """Exhaustive minimum-order weak-equivalence representative.

    Scans candidate graphs by increasing order (canonical generation order
    within each size, loops allowed only when the input has them) and
    returns the first admitting full-domain relations in both directions.
    Independent of the deletion algorithm: existence is decided by the
    equation solver.
    """
    if g.n > cap:
        raise CapExceededError(f"oracle capped at {cap} vertices, got {g.n}")
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
    return graph_of(canonical_key(g))


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
