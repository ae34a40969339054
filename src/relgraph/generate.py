"""Exhaustive generation of small graphs up to isomorphism, and the one
individualization-refinement engine behind canonical forms and isomorphisms.

Everything here works on row tuples, a graph's ``adjacency`` (bit v of row
u set iff edge (u, v); a loop sets bit u of row u), and builds graphs from
them with ``Graph._of_rows``.

A colouring gives each vertex the rank of its signature. Colours start from
(loop, degree) and are refined by (colour, sorted neighbour colours) until
their number stops growing. While some colour holds more than one vertex,
each vertex of the lowest-ranked such cell is individualized in turn and
the colouring refined again (McKay and Piperno, *Practical graph
isomorphism II*, 2014). Every step depends only on the graph, so the leaves
of this search tree, discrete colourings read as relabellings, correspond
under any isomorphism. The canonical form is the least relabelled row tuple
over all leaves; ``equivalence.find_isomorphism`` matches one leaf of one
graph against the leaves of the other. There is no automorphism pruning,
so K_n and E_n have n! leaves: only generation and the exhaustive oracles,
at n <= 7, take canonical forms.
"""

from __future__ import annotations

from functools import lru_cache

from .core import Graph

Rows = tuple[int, ...]


def _permute(rows: Rows, perm: tuple[int, ...]) -> Rows:
    """Relabel so that old vertex v becomes perm[v]."""
    n = len(rows)
    out = [0] * n
    for v in range(n):
        m = rows[v]
        acc = 0
        u = 0
        while m:
            if m & 1:
                acc |= 1 << perm[u]
            m >>= 1
            u += 1
        out[perm[v]] = acc
    return tuple(out)


def _ranks(keys: list) -> list[int]:
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def _leaves(rows: Rows, keep=lambda depth, colour: True):
    """Discrete colourings at the leaves of the search tree, depth first.

    A colour is the rank of its vertex's signature, so ``leaf[v]`` is the
    new label of vertex v. ``keep(depth, colour)`` sees every refined
    colouring, in depth-first order, before it is expanded; when it returns
    False the subtree is skipped. Branches follow the target cell's
    vertices in index order.
    """
    n = len(rows)
    nbrs = [[u for u in range(n) if row >> u & 1] for row in rows]
    stack = [(_ranks([(row >> v & 1, row.bit_count()) for v, row in enumerate(rows)]), 0)]
    while stack:
        colour, depth = stack.pop()
        while max(colour, default=n) < n - 1:  # a discrete colouring is stable
            refined = _ranks(
                [(c, tuple(sorted([colour[u] for u in nb]))) for c, nb in zip(colour, nbrs)]
            )
            if refined == colour:
                break
            colour = refined
        if not keep(depth, colour):
            continue
        size = [0] * n
        for c in colour:
            size[c] += 1
        target = next((c for c in range(n) if size[c] > 1), None)
        if target is None:
            yield colour
            continue
        for v in reversed(range(n)):  # popped in index order
            if colour[v] == target:
                child = [c + (c > target or (c == target and u != v)) for u, c in enumerate(colour)]
                stack.append((child, depth + 1))


def canonical_rows(rows: Rows) -> Rows:
    """Least relabeling of ``rows`` over the leaves; equal exactly for isomorphic graphs."""
    return min(_permute(rows, leaf) for leaf in _leaves(rows))


def canonical_key(g: Graph) -> Rows:
    return canonical_rows(g.adjacency)


@lru_cache(maxsize=None)
def _all_rows(n: int, loops: bool) -> tuple[Rows, ...]:
    if n == 0:
        return ((),)
    if n == 1:
        out = [(0,)]
        if loops:
            out.append((1,))
        return tuple(out)
    seen: set[Rows] = set()
    new = n - 1
    for base in _all_rows(n - 1, loops):
        loop_choices = (0, 1 << new) if loops else (0,)
        for mask in range(1 << new):
            for loop_bit in loop_choices:
                rows = [r | ((mask >> v & 1) << new) for v, r in enumerate(base)]
                rows.append(mask | loop_bit)
                seen.add(canonical_rows(tuple(rows)))
    return tuple(sorted(seen))


def all_graphs(n: int, loops: bool = False) -> list[Graph]:
    """All graphs on exactly n vertices, one per isomorphism class."""
    return [Graph._of_rows(rows) for rows in _all_rows(n, loops)]


def all_graphs_up_to(n: int, loops: bool = False) -> list[Graph]:
    """All graphs on 1..n vertices, one per isomorphism class."""
    out: list[Graph] = []
    for k in range(1, n + 1):
        out.extend(all_graphs(k, loops))
    return out
