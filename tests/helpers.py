"""Shared test oracles, independent of the library's algorithms.

The naive solver filters every one of the 2^(n*m) relation bitmasks through
tables built by direct edge scans; the isomorphism oracle tries all vertex
permutations. These deliberately re-derive everything from definitions so
they can stand as the second route in every dual-route check.
"""

from __future__ import annotations

import dataclasses
import random
from itertools import permutations

import numpy as np

import relgraph as rg


def naive_neighbor_table(g: rg.Graph) -> np.ndarray:
    tab = [0] * (1 << g.n)
    for mask in range(1 << g.n):
        acc = 0
        for u, v in g.edges:
            if mask >> u & 1:
                acc |= 1 << v
            if mask >> v & 1:
                acc |= 1 << u
        tab[mask] = acc
    return np.array(tab, dtype=np.int64)


def matrix_composition(g: rg.Graph, rel: rg.Relation, weak: bool = False) -> rg.Graph:
    """Composition as the integer matrix product transpose(R) . A . R.

    Target vertices b, c are adjacent when entry (b, c) is nonzero; the
    weak form drops the diagonal. Shares no code with ``apply_strong``.
    """
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1
    r = np.zeros((rel.domain_size, rel.image_size), dtype=np.int64)
    for x, b in rel.pairs:
        r[x, b] = 1
    product = r.T @ a @ r
    m = rel.image_size
    edges = [
        (b, c)
        for b in range(m)
        for c in range(b, m)
        if product[b, c] and not (weak and b == c)
    ]
    return rg.Graph(m, frozenset(edges))


def naive_solution_masks(g: rg.Graph, h: rg.Graph, weak: bool):
    """All solution bitmasks (bit b*n+x set for pair (x, b)) and the
    full-domain subset, by exhaustive filtering."""
    n, m = g.n, h.n
    if weak and not h.is_simple:
        empty = np.array([], dtype=np.int64)
        return empty, empty
    total = 1 << (n * m)
    rels = np.arange(total, dtype=np.int64)
    colmask = (1 << n) - 1
    cols = [(rels >> (b * n)) & colmask for b in range(m)]
    nbr = naive_neighbor_table(g)
    ok = np.ones(total, dtype=bool)
    for b in range(m):
        ok &= cols[b] != 0
    for b in range(m):
        for c in range(b, m):
            if b == c and weak:
                continue
            generated = (nbr[cols[b]] & cols[c]) != 0
            ok &= generated == h.has_edge(b, c)
    union = np.zeros(total, dtype=np.int64)
    for b in range(m):
        union |= cols[b]
    full = (union == colmask) if n else np.ones(total, dtype=bool)
    return rels[ok], rels[ok & full]


def relation_to_mask(rel: rg.Relation) -> int:
    acc = 0
    for x, b in rel.pairs:
        acc |= 1 << (b * rel.domain_size + x)
    return acc


def brute_isomorphic(g: rg.Graph, h: rg.Graph) -> bool:
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    for perm in permutations(range(g.n)):
        if all(
            h.has_edge(perm[u], perm[v]) == g.has_edge(u, v)
            for u in range(g.n)
            for v in range(u, g.n)
        ):
            return True
    return False


def brute_hom_exists(g: rg.Graph, h: rg.Graph) -> bool:
    if g.n == 0:
        return True
    if h.n == 0:
        return False
    for images in _all_maps(g.n, h.n):
        if all(h.has_edge(images[u], images[v]) for u, v in g.edges):
            return True
    return False


def brute_surjective_hom_exists(g: rg.Graph, h: rg.Graph) -> bool:
    """Vertex- and edge-surjective homomorphism existence by brute force."""
    if g.n == 0:
        return h.n == 0
    target_edges = set(h.edges)
    for images in _all_maps(g.n, h.n):
        hit = set()
        ok = True
        for u, v in g.edges:
            a, b = images[u], images[v]
            if not h.has_edge(a, b):
                ok = False
                break
            hit.add((a, b) if a <= b else (b, a))
        if ok and len(set(images)) == h.n and hit == target_edges:
            return True
    return False


def _all_maps(n: int, m: int):
    images = [0] * n
    while True:
        yield tuple(images)
        i = 0
        while i < n:
            images[i] += 1
            if images[i] < m:
                break
            images[i] = 0
            i += 1
        if i == n:
            return


def random_graph(rng: random.Random, n: int, p: float = 0.5, loops: bool = False) -> rg.Graph:
    edges = []
    for u in range(n):
        for v in range(u if loops else u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return rg.graph_from_edges(n, edges)


def relabel(g: rg.Graph, seed: int) -> rg.Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return rg.graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def blow_up(base: rg.Graph, copies: int, seed: int) -> rg.Graph:
    """``copies`` mutual twins per base vertex, vertex labels shuffled."""
    return relabel(rg.reduce_fulrel_to_shom(base, rg.empty_graph(copies)), seed)


def random_image_full_relation(rng: random.Random, n: int, m: int, extra: float = 0.25) -> rg.Relation:
    """Every target vertex gets at least one pre-image; extra pairs sprinkled."""
    pairs = set()
    for b in range(m):
        pairs.add((rng.randrange(n), b))
    for x in range(n):
        for b in range(m):
            if rng.random() < extra:
                pairs.add((x, b))
    return rg.relation_from_pairs(n, m, pairs)


def random_full_relation(rng: random.Random, n: int, m: int, extra: float = 0.25) -> rg.Relation:
    """Full domain and full image."""
    rel = random_image_full_relation(rng, n, m, extra)
    pairs = set(rel.pairs)
    for x in range(n):
        pairs.add((x, rng.randrange(m)))
    return rg.relation_from_pairs(n, m, pairs)


def min_completing_budget(query: rg.SolveQuery, guess: int = 1) -> int:
    """Smallest ``node_budget`` under which ``rg.solve(query)`` completes.

    A query completes under budget B exactly when its search needs at most
    B units, so completion is monotone in B. A weak exists-query's strong
    attempt gets B // 10 units and its weak search what the attempt left;
    both grow with B, so completion stays monotone. Starting from
    ``guess``, the step doubles until it brackets the threshold, then the
    bracket is bisected; a correct guess costs two solves. To regenerate
    the pinned thresholds of ``tests/test_solver.py`` on another commit,
    run each case from the repository root with ``PYTHONPATH=src:tests``::

        import relgraph as rg, helpers
        query = rg.SolveQuery(rg.cycle_graph(6), rg.path_graph(4), mode="weak")
        print(helpers.min_completing_budget(query))
    """

    def completes(budget: int) -> bool:
        return rg.solve(dataclasses.replace(query, node_budget=budget))[0].complete

    step = 1
    if completes(guess):
        hi = guess
        while hi > step and completes(hi - step):
            hi -= step
            step *= 2
        lo = max(hi - step, 0)
    else:
        lo = guess
        while not completes(lo + step):
            lo += step
            step *= 2
        hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if completes(mid):
            hi = mid
        else:
            lo = mid
    return hi
