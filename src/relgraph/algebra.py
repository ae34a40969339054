"""Composing graphs with relations, and the supporting machinery.

The central operation takes a graph on the relation's source universe and
produces a graph on its target universe: two target vertices are adjacent
when they are related to the endpoints of some source edge. The weak
variant discards loops. Everything operates on dense indices and returns
new immutable values.
"""

from __future__ import annotations

from .core import (
    Graph,
    ImageNotFullError,
    LoopsNotAllowedError,
    Record,
    Relation,
    UniverseMismatchError,
    _bits,
    _compose_columns,
    _transpose_columns,
    check_witness,
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
        missing = [b for b, col in enumerate(rel.columns) if not col]
        raise ImageNotFullError(f"target vertices without pre-image: {missing}")


def apply_strong(g: Graph, rel: Relation) -> Graph:
    """Graph on the relation's target set generated through ``rel``.

    Requires every target vertex to have a pre-image, so the result's
    vertex set is well defined. Equals the relational product
    transpose(R) . G . R, built as adjacency rows by the one column
    kernel, ``core._compose_columns``: row b is the mask of the columns
    that meet N_G(C_b), the neighbourhood of target b's pre-image, the
    union of the rows of its members. That is O(|R| + sum_b |N_G(C_b)|)
    mask operations, at most |R| + n*m.
    """
    _check_universes(g, rel)
    _require_full_image(rel)
    rows = _transpose_columns(g.n, rel.columns)
    return Graph._of_rows(_compose_columns(rows, _compose_columns(g.adjacency, rel.columns)))


def apply_weak(g: Graph, rel: Relation) -> Graph:
    """Irreflexive part of the strong composition; source must be simple."""
    if not g.is_simple:
        raise LoopsNotAllowedError("weak composition needs a loop-free source")
    return Graph._of_rows(row & ~(1 << v) for v, row in enumerate(apply_strong(g, rel).adjacency))


class Decomposition(Record):
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
    dom = rel.domain_set
    ident = Relation(rel.domain_size, rel.domain_size, [(a, a) for a in dom])
    dup = Relation(rel.domain_size, mid, [(x, i) for i, (x, _) in enumerate(pairs)])
    con = Relation(mid, rel.image_size, [(i, b) for i, (_, b) in enumerate(pairs)])
    out = Decomposition(dom, mid, pairs, ident, dup, con)
    check_witness(
        dup.is_injective and con.is_functional,
        "decompose: duplicator not injective or contractor not functional",
    )
    check_witness(out.recomposed() == rel, "decompose: parts do not recompose")
    return out


class HallReport(Record):
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

    def augment(root: int) -> None:
        # Depth first over an explicit stack: ``path`` holds the sources of
        # the alternating path, each after the root the partner of a target
        # tried from the one before. Targets are tried in ascending order,
        # each at most once per root.
        seen = 0
        path = [root]
        while path:
            todo = rows[path[-1]] & ~seen
            if not todo:
                path.pop()
                continue
            low = todo & -todo
            seen |= low
            b = low.bit_length() - 1
            if match_of_target[b] != -1:
                path.append(match_of_target[b])
                continue
            # Each source takes b, and hands its old target to the one before.
            for x in reversed(path):
                match_of_target[b] = x
                match_of_source[x], b = b, match_of_source[x]
            return

    for x in range(n):
        augment(x)

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
        for b in _bits(rows[x]):
            if b not in reached_tgt:
                reached_tgt.add(b)
                back = match_of_target[b]
                if back != -1 and back not in reached_src:
                    reached_src.add(back)
                    frontier.append(back)
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
    rows = rel.row_masks()
    if violating is None:
        report = hall_check(rel)
        if report.satisfied:
            raise HallSatisfiedError("relation satisfies the Hall condition")
        s = report.violating_set
    else:
        s = frozenset(violating)
        if not s <= frozenset(range(g.n)):
            raise ValueError("violating set outside the source vertices")
    s_mask = image_mask = 0
    for x in s:
        s_mask |= 1 << x
        image_mask |= rows[x]
    if len(s) <= image_mask.bit_count():
        raise HallSatisfiedError("provided set does not violate the Hall condition")
    image_of_s = [b for b in range(rel.image_size) if image_mask >> b & 1]
    outside = [x for x in range(g.n) if not s_mask >> x & 1]
    z = len(image_of_s) + len(outside)
    # Slot i < len(image_of_s) takes the members of s related to
    # image_of_s[i] and passes them on to it; the other slots take one
    # outside vertex each and pass it on as ``rel`` does.
    first = Relation._of_columns(
        g.n, z, [rel.columns[b] & s_mask for b in image_of_s] + [1 << x for x in outside]
    )
    second = Relation._of_columns(
        rel.image_size, z, [1 << b for b in image_of_s] + [rows[x] for x in outside]
    ).transpose()
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
