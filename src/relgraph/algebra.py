"""Composing graphs with relations, and the supporting machinery.

The central operation takes a graph on the relation's source universe and
produces a graph on its target universe: two target vertices are adjacent
when they are related to the endpoints of some source edge. The weak
variant discards loops. Everything operates on dense indices and returns
new immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Graph,
    ImageNotFullError,
    LoopsNotAllowedError,
    Relation,
    UniverseMismatchError,
    WeightedGraph,
    check_witness,
    weighted_graph,
)


class HallSatisfiedError(ValueError):
    """No shrinking split exists: the relation satisfies the Hall condition."""


def _check_universes(g: Graph, rel: Relation) -> None:
    if rel.domain_size != g.n:
        raise UniverseMismatchError(
            f"relation domain {rel.domain_size} != graph order {g.n}"
        )


def _require_full_image(rel: Relation) -> None:
    if not rel.has_full_image:
        missing = sorted(set(range(rel.image_size)) - set(rel.image_set))
        raise ImageNotFullError(f"target vertices without pre-image: {missing}")


def apply_strong(g: Graph, rel: Relation) -> Graph:
    """Graph on the relation's target set generated through ``rel``.

    Requires every target vertex to have a pre-image, so the result's
    vertex set is well defined. Equals the relational product
    transpose(R) . G . R, computed one target column at a time: column b's
    neighbour mask is the union of its pre-images' adjacency rows, so a
    call costs O(|R| + m^2) mask operations for m target vertices.
    """
    _check_universes(g, rel)
    _require_full_image(rel)
    m = rel.image_size
    adj = g.adjacency
    cols = [0] * m
    nbr = [0] * m
    for x, b in rel.pairs:
        cols[b] |= 1 << x
        nbr[b] |= adj[x]
    edges = set()
    for b in range(m):
        nb = nbr[b]
        for c in range(b, m):
            if nb & cols[c]:
                edges.add((b, c))
    return Graph(m, frozenset(edges))


def apply_weak(g: Graph, rel: Relation) -> Graph:
    """Irreflexive part of the strong composition; source must be simple."""
    if not g.is_simple:
        raise LoopsNotAllowedError("weak composition needs a loop-free source")
    strong = apply_strong(g, rel)
    return Graph(strong.n, frozenset(e for e in strong.edges if e[0] != e[1]))


def apply_weighted(wg: WeightedGraph, rel: Relation) -> WeightedGraph:
    """Weighted composition: each target weight sums its pre-image weights.

    Equals the matrix product transpose(R) . W . R over exact rationals.
    """
    if rel.domain_size != wg.n:
        raise UniverseMismatchError(
            f"relation domain {rel.domain_size} != weighted graph order {wg.n}"
        )
    m = rel.image_size
    pre = [rel.preimage_of(b) for b in range(m)]
    out: dict[tuple[int, int], Fraction] = {}
    for b in range(m):
        for c in range(b, m):
            total = Fraction(0)
            for x in pre[b]:
                for y in pre[c]:
                    total += wg.weight(x, y)
            if total:
                out[(b, c)] = total
    return weighted_graph(m, out)


@dataclass(frozen=True)
class Decomposition:
    """Standard split of a relation into duplicate-then-contract form.

    ``duplicator`` is injective with full domain on ``domain_vertices``;
    ``contractor`` is functional. Composing identity-on-domain, duplicator
    and contractor reproduces the original relation, and the intermediate
    universe has exactly one element per original pair (minimal size).
    """

    domain_vertices: frozenset[int]
    mid_size: int
    mid_pairs: tuple[tuple[int, int], ...]
    identity_on_domain: Relation
    duplicator: Relation
    contractor: Relation

    def recomposed(self) -> Relation:
        return self.identity_on_domain.compose(self.duplicator).compose(
            self.contractor
        )


def decompose(rel: Relation) -> Decomposition:
    """Split ``rel`` into an injective duplicator and a functional contractor.

    The intermediate universe carries one element per pair of ``rel``,
    indexed in sorted pair order; ``mid_pairs`` records the mapping.
    """
    pairs = tuple(sorted(rel.pairs))
    mid = len(pairs)
    dom = frozenset(x for x, _ in pairs)
    ident = Relation(rel.domain_size, rel.domain_size, frozenset((a, a) for a in dom))
    dup = Relation(
        rel.domain_size, mid, frozenset((x, i) for i, (x, _) in enumerate(pairs))
    )
    con = Relation(
        mid, rel.image_size, frozenset((i, b) for i, (_, b) in enumerate(pairs))
    )
    out = Decomposition(dom, mid, pairs, ident, dup, con)
    check_witness(
        dup.is_injective and con.is_functional,
        "decompose: duplicator not injective or contractor not functional",
    )
    check_witness(out.recomposed() == rel, "decompose: parts do not recompose")
    return out


@dataclass(frozen=True)
class HallReport:
    """Outcome of the matching-based Hall condition check.

    Exactly one of ``violating_set`` / ``monomorphism`` is populated:
    a saturating assignment (as sorted source->target pairs) when the
    condition holds, otherwise a source set strictly larger than its image.
    """

    satisfied: bool
    violating_set: frozenset[int] | None
    monomorphism: tuple[tuple[int, int], ...] | None

    def monomorphism_map(self) -> dict[int, int]:
        if self.monomorphism is None:
            raise ValueError("no monomorphism on an unsatisfied report")
        return dict(self.monomorphism)


def hall_check(rel: Relation) -> HallReport:
    """Decide the Hall condition by augmenting-path bipartite matching.

    Every subset of the source universe must have at least as many
    neighbors. On success the saturating matching is returned; on failure
    a violating set is recovered from alternating reachability.
    """
    n, m = rel.domain_size, rel.image_size
    rows = rel.row_masks()
    match_of_target = [-1] * m
    match_of_source = [-1] * n

    def try_augment(x: int, seen: list[bool]) -> bool:
        mask = rows[x]
        b = 0
        while mask:
            if mask & 1 and not seen[b]:
                seen[b] = True
                if match_of_target[b] == -1 or try_augment(match_of_target[b], seen):
                    match_of_target[b] = x
                    match_of_source[x] = b
                    return True
            mask >>= 1
            b += 1
        return False

    for x in range(n):
        try_augment(x, [False] * m)

    unmatched = [x for x in range(n) if match_of_source[x] == -1]
    if not unmatched:
        pairs = tuple(sorted((x, match_of_source[x]) for x in range(n)))
        return HallReport(True, None, pairs)

    # Alternating reachability from unmatched sources: free edges forward,
    # matching edges backward. Reached sources form a violating set.
    reached_src = set(unmatched)
    reached_tgt: set[int] = set()
    frontier = list(unmatched)
    while frontier:
        x = frontier.pop()
        mask = rows[x]
        b = 0
        while mask:
            if mask & 1 and b not in reached_tgt:
                reached_tgt.add(b)
                back = match_of_target[b]
                if back != -1 and back not in reached_src:
                    reached_src.add(back)
                    frontier.append(back)
            mask >>= 1
            b += 1
    violating = frozenset(reached_src)
    image = set()
    for x in violating:
        image |= set(rel.image_of(x))
    check_witness(
        len(violating) > len(image), "hall_check: violating set meets Hall's bound"
    )
    return HallReport(False, violating, None)


def nohall_split(
    g: Graph, rel: Relation, violating: frozenset[int] | set[int] | None = None
) -> tuple[Relation, Graph, Relation]:
    """Factor a Hall-violating relation through a strictly smaller graph.

    Returns (first, smaller, second) with first . second == rel and
    ``smaller`` = the strong composition of ``g`` with ``first``, whose
    order drops by exactly the deficiency of the violating set. The
    intermediate universe lists the violated set's image first, then the
    untouched source vertices, both in ascending order. By default the
    matching-derived (maximum deficiency) violating set is used; pass
    ``violating`` to split along a particular one.
    """
    _check_universes(g, rel)
    _require_full_image(rel)
    if violating is not None:
        s = frozenset(violating)
        image = {b for x in s for b in rel.image_of(x)}
        if len(s) <= len(image):
            raise HallSatisfiedError(
                "provided set does not violate the Hall condition"
            )
    else:
        report = hall_check(rel)
        if report.satisfied:
            raise HallSatisfiedError("relation satisfies the Hall condition")
        s = report.violating_set
    image_of_s = sorted({b for x in s for b in rel.image_of(x)})
    outside = sorted(set(range(g.n)) - s)
    z = len(image_of_s) + len(outside)
    slot_of_target = {b: i for i, b in enumerate(image_of_s)}
    slot_of_source = {x: len(image_of_s) + i for i, x in enumerate(outside)}

    first_pairs = set()
    for x in range(g.n):
        if x in s:
            for b in rel.image_of(x):
                first_pairs.add((x, slot_of_target[b]))
        else:
            first_pairs.add((x, slot_of_source[x]))
    second_pairs = set()
    for b in image_of_s:
        second_pairs.add((slot_of_target[b], b))
    for x in outside:
        for b in rel.image_of(x):
            second_pairs.add((slot_of_source[x], b))

    first = Relation(g.n, z, frozenset(first_pairs))
    second = Relation(z, rel.image_size, frozenset(second_pairs))
    smaller = apply_strong(g, first)
    check_witness(first.compose(second) == rel, "nohall_split: factors do not compose")
    check_witness(
        smaller.n == g.n - (len(s) - len(image_of_s)),
        "nohall_split: order did not drop by the deficiency",
    )
    return first, smaller, second


def is_reversible(g: Graph, rel: Relation) -> bool:
    """Whether applying ``rel`` and then its transpose restores ``g`` exactly.

    Relations without full domain are never reversible: the return trip is
    not even defined on all of the original vertex set.
    """
    _check_universes(g, rel)
    _require_full_image(rel)
    if not rel.has_full_domain:
        return False
    forward = apply_strong(g, rel)
    return apply_strong(forward, rel.transpose()) == g
