"""Shared test oracles, independent of the library's algorithms.

The naive solver filters every one of the 2^(n*m) relation bitmasks through
tables built by direct edge scans; the isomorphism oracle tries all vertex
permutations. These deliberately re-derive everything from definitions so
they can stand as the second route in every dual-route check.
"""

from __future__ import annotations

import argparse
import random
from itertools import count, permutations, product, repeat
from operator import lshift, or_

import numpy as np

import relgraph as rg
from relgraph import cli
from relgraph.solver import _NO_BUDGET, _column_order


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
    """The relation as one integer: pair (x, b) is bit ``b * n + x``.

    Built from the columns, column b shifted by ``b * n``, so that reading
    many solutions builds no pair sets.
    """
    n = rel.domain_size
    acc = 0
    for b, col in enumerate(rel.columns):
        acc |= col << (b * n)
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
    B units, so completion is monotone in B. Starting from
    ``guess``, the step doubles until it brackets the threshold, then the
    bracket is bisected; a correct guess costs two solves. To regenerate
    the pinned thresholds of ``tests/test_solver.py`` on another commit,
    run each case from the repository root with ``PYTHONPATH=src:tests``::

        import relgraph as rg, helpers
        query = rg.SolveQuery(rg.cycle_graph(6), rg.path_graph(4), mode="weak")
        print(helpers.min_completing_budget(query))
    """

    def completes(budget: int) -> bool:
        return rg.solve(query.__replace__(node_budget=budget))[0].complete

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


def reference_sweep(adj, alive: int, *, rcore: bool, fixpoint: bool):
    """The deletion sweep in its two former forms, as a reference.

    With ``fixpoint`` neighbourhoods are restricted to the live vertices
    and passes repeat until one deletes nothing; without it one pass reads
    the full rows, entries of deleted vertices included. Returns the
    surviving mask and the trace ``(vertex, contributors, container)``.
    """
    live = [v for v in range(len(adj)) if alive >> v & 1]
    trace = []
    changed = True
    while changed:
        changed = False
        for i in tuple(live):
            restrict = alive if fixpoint else -1
            ni = adj[i] & restrict
            container = None
            if rcore:
                container = next((j for j in live if j != i and not ni & ~adj[j]), None)
                if container is None:
                    continue
            outside = restrict & ~ni
            union = 0
            contributors = []
            for j in live:
                if j != i and not adj[j] & outside:
                    union |= adj[j] & restrict
                    contributors.append(j)
            if union == ni:
                live.remove(i)
                alive &= ~(1 << i)
                trace.append((i, tuple(contributors), container))
                changed = fixpoint
    return alive, trace


def all_labelled_rows(n: int, loops: bool):
    """The adjacency rows of every labelled graph on n vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u if loops else u + 1, n)]
    for edges in range(1 << len(pairs)):
        rows = [0] * n
        for k, (u, v) in enumerate(pairs):
            if edges >> k & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        yield rows


def reference_search_columns(
    src: rg.Graph,
    tgt: rg.Graph,
    *,
    weak: bool = False,
    full_domain: bool = False,
    required: list[int] | None = None,
    universe: list[int] | None = None,
    budget=_NO_BUDGET,
):
    """The column search with its candidates as lists, as a reference.

    Yields what ``solver._search_columns`` yields, in the same order. It
    visits every child it accepts, walking each candidate list one mask at
    a time, and charges ``budget`` one unit per mask of a visited node's
    list. Each list keeps a memo from a ``forbidden`` mask to the
    positions of its masks disjoint from it, up to 2^16 stored positions
    in all. Every mask's neighbourhood comes from one table of 2^n rows.
    """
    n, m = src.n, tgt.n
    full = (1 << n) - 1
    if m == 0:
        if not (full_domain and n > 0):
            yield ()
        return
    if n == 0:
        return
    tadj = tgt.adjacency
    order = _column_order(tgt)
    nbr = [0]
    for row in src.adjacency:
        nbr += [t | row for t in nbr]

    # Columns with the same pins (and, in strong mode, the same loop
    # requirement) share one read-only candidate list, ascending, and one
    # memo: ``forbidden`` -> the positions of the list's masks disjoint
    # from it, in order. All positions stand for ``forbidden = 0``.
    lists: dict[tuple[int, int, bool | None], tuple[list[int], dict[int, range | list[int]]]] = {}
    cand = []
    for b in order:
        req = required[b] if required is not None else 0
        uni = universe[b] if universe is not None else full
        loop = None if weak else bool(tadj[b] >> b & 1)
        entry = lists.get((req, uni, loop))
        if entry is None:
            opts = [
                mask
                for mask in range(1, full + 1)
                if not mask & ~uni
                and mask & req == req
                and (loop is None or bool(nbr[mask] & mask) == loop)
            ]
            entry = lists[req, uni, loop] = (opts, {0: range(len(opts))})
        if not entry[0]:
            return
        cand.append(entry)
    # Masks the memos may still store. An entry costs its masks plus one,
    # so empty sub-lists count too.
    room = 1 << 16

    # Full-domain pruning rests on one rule: a vertex next to column j's
    # contents may only sit in columns adjacent to j, at the positions set in
    # ``tpos_adj[j]``. ``avail[p]`` holds the source vertices that may still
    # join the column at position p; in strong mode a looped vertex never
    # joins a loopless column.
    avail = []
    if full_domain:
        pos_of = {b: i for i, b in enumerate(order)}
        tpos_adj = [sum(1 << pos_of[c] for c in range(m) if tadj[b] >> c & 1) for b in range(m)]
        looped = 0 if weak else sum(1 << x for x in src.loop_vertices())
        for b in order:
            uni = universe[b] if universe is not None else full
            avail.append(uni if tadj[b] >> b & 1 else uni & ~looped)

    chosen = [0] * m
    limited = not budget.unlimited
    spend = budget.spend
    # Units charged but not yet spent, and the count at which they must be.
    held = 0
    limit = spend(0) if limited else None

    def dfs(i: int, covered: int):
        nonlocal room, held, limit
        if i == m:
            if held:
                limit = spend(held)
                held = 0
            out = [0] * m
            for pos, b in enumerate(order):
                out[b] = chosen[pos]
            yield tuple(out)
            return
        b = order[i]
        # Collapse the constraints from assigned columns: a candidate must
        # avoid every neighborhood it may not touch and hit each one it must.
        forbidden = 0
        need_hit = []
        tb = tadj[b]
        for j in range(i):
            nb_j = nbr[chosen[j]]
            if tb >> order[j] & 1:
                need_hit.append(nb_j)
            else:
                forbidden |= nb_j
        if full_domain:
            # What the later columns may take: those adjacent to b (``near``)
            # keep it, the rest (``far``) lose a candidate's neighbours.
            tp = tpos_adj[b]
            near = far = 0
            far_pos = []
            for p in range(i + 1, m):
                if tp >> p & 1:
                    near |= avail[p]
                else:
                    far |= avail[p]
                    far_pos.append(p)
        opts, memo = cand[i]
        allowed = memo.get(forbidden)
        if allowed is None:
            allowed = [k for k, mask in enumerate(opts) if not mask & forbidden]
            if len(allowed) < room:
                memo[forbidden] = allowed
                room -= len(allowed) + 1
        # Every mask of ``opts`` costs one budget unit, whether or not it is
        # in ``allowed``. A rejected mask has no effect, so the units are
        # charged in bulk: up to each accepted mask before the search goes
        # on from it, and the rest when the loop ends.
        charged = 0
        for k in allowed:
            mask = opts[k]
            ok = True
            for h in need_hit:
                if not mask & h:
                    ok = False
                    break
            if not ok:
                continue
            if limited:
                held += k + 1 - charged
                charged = k + 1
                if held >= limit:
                    limit = spend(held)
                    held = 0
            chosen[i] = mask
            if full_domain:
                # Dead when a source vertex can no longer be covered.
                keep = ~nbr[mask]
                if covered | mask | near | (far & keep) != full:
                    continue
                saved = avail[i + 1:]
                for p in far_pos:
                    avail[p] &= keep
                yield from dfs(i + 1, covered | mask)
                avail[i + 1:] = saved
            else:
                yield from dfs(i + 1, covered | mask)
        if limited:
            held += len(opts) - charged
            if held >= limit:
                limit = spend(held)
                held = 0

    yield from dfs(0, 0)
    if held:
        spend(held)


def reference_antichains(
    n: int, m: int, found: list[tuple[int, ...]], keys: list[bytes]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimal/maximal solution indices of a complete enumeration.

    ``keys`` are the solutions' ``_canonical_keys``. Sandwich closure makes
    the one-pair perturbation exact: a solution strictly contains another
    iff it minus some single pair is a solution too, and dually for
    maximality. Each solution is packed into one int, pair (x, b) at bit
    b*n + x, a column per pass over all solutions. One pass looks up each
    solution minus each of its own pairs, read off its key: a hit has a
    solution below it, and that solution has one above it.
    """
    packed = [0] * len(found)
    for b, column in enumerate(zip(*found)):
        packed = list(map(or_, packed, map(lshift, column, repeat(b * n))))
    # The packed bit of pair number k = x*m + b.
    flip = [1 << (k % m * n + k // m) for k in range(n * m)]
    get = dict(zip(packed, count())).get
    has_below = [False] * len(found)
    has_above = [False] * len(found)
    for idx, word, numbers in zip(count(), packed, keys):
        for k in numbers:
            lower = get(word ^ flip[k])
            if lower is not None:
                has_below[idx] = True
                has_above[lower] = True
    minimal = tuple(i for i, hit in enumerate(has_below) if not hit)
    maximal = tuple(i for i, hit in enumerate(has_above) if not hit)
    return minimal, maximal


def reference_certify(g: rg.Graph, h: rg.Graph, mode: str = "strong", domain: str = "any"):
    """``solver.certify`` with the no-instance rules as they read before
    each graph cached its invariants: each rule calls ``components``,
    ``diameter``, ``radius``, ``path_length_of`` and ``chromatic_number``
    itself, in the order ``solver._RULES`` tries them."""
    from relgraph.solver import Certificate, _complement_clique_parts, complete_source_solution

    weak, full = mode == "weak", domain == "full"

    def components_rule():
        if not full or g.isolated_vertices() or h.isolated_vertices():
            return None
        b0g, b0h = len(rg.components(g)), len(rg.components(h))
        if b0g >= b0h:
            return None
        return Certificate(
            "components",
            f"source has {b0g} connected components but target has {b0h}; "
            "a full-domain composition cannot increase the count",
            (("source_components", b0g), ("target_components", b0h)),
        )

    def chromatic_rule():
        if weak or not full or not (g.is_simple and h.is_simple):
            return None
        cg, ch = rg.chromatic_number(g), rg.chromatic_number(h)
        if cg <= ch:
            return None
        return Certificate(
            "chromatic",
            f"chromatic number {cg} of the source exceeds {ch} of the target; "
            "a full-domain composition cannot lower it",
            (("source_chromatic", cg), ("target_chromatic", ch)),
        )

    def distance_rule():
        if not full:
            return None
        dg = rg.diameter(g)
        if dg < 2:
            return None
        dh = rg.diameter(h)
        if dh <= dg:
            return None
        return Certificate(
            "distance",
            f"target diameter {dh} exceeds source diameter {dg}",
            (("source_diameter", dg), ("target_diameter", str(dh))),
        )

    def radius_rule():
        if not full or g.n < 2:
            return None
        bound = max(rg.radius(g), 2)
        rh = rg.radius(h)
        if rh <= bound:
            return None
        return Certificate(
            "radius",
            f"target radius {rh} exceeds max(source radius, 2) = {bound}",
            (("target_radius", str(rh)), ("bound", str(bound))),
        )

    def path_rule():
        if weak or not full:
            return None
        k, l = rg.path_length_of(g), rg.path_length_of(h)
        if k is None or l is None or min(k, l) < 1 or k >= l or (k == 1 and l == 2):
            return None
        return Certificate(
            "pathChar",
            f"no relation takes a path of length {k} onto a path of length {l}",
            (("source_length", k), ("target_length", l)),
        )

    def complete_rule():
        if g.n < 1 or not rg.is_complete(g) or not h.is_simple:
            return None
        if not full:
            if complete_source_solution(g.n, h, weak=weak) is not None:
                return None
        elif weak:
            return None
        else:
            parts = _complement_clique_parts(h)
            if parts is not None and len(parts) == g.n:
                return None
        return Certificate(
            "completeChar",
            f"the target's complement does not split into "
            f"{'exactly' if full else 'at most'} {g.n} "
            "disjoint complete graphs"
            + (" (counting only components with two or more vertices)" if weak else ""),
            (("source_order", g.n),),
        )

    for rule in (components_rule, chromatic_rule, distance_rule, radius_rule, path_rule,
                 complete_rule):
        cert = rule()
        if cert is not None:
            return cert
    return None


def union_find_components(g: rg.Graph) -> list[frozenset[int]]:
    """Connected components by union-find over the edge pairs, ordered by
    smallest member."""
    parent = list(range(g.n))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges:
        parent[find(u)] = find(v)
    classes: dict[int, set[int]] = {}
    for v in range(g.n):
        classes.setdefault(find(v), set()).add(v)
    return sorted(map(frozenset, classes.values()), key=min)


def floyd_warshall(g: rg.Graph) -> list[list[float]]:
    """All-pairs distances by Floyd-Warshall over the adjacency rows."""
    inf = float("inf")
    dist = [
        [0 if u == v else 1 if g.adjacency[u] >> v & 1 else inf for v in range(g.n)]
        for u in range(g.n)
    ]
    for k in range(g.n):
        for u in range(g.n):
            for v in range(g.n):
                if dist[u][k] + dist[k][v] < dist[u][v]:
                    dist[u][v] = dist[u][k] + dist[k][v]
    return dist


def brute_chromatic(g: rg.Graph) -> int:
    """Least k for which some map of the vertices into k colours gives the
    ends of every edge different colours, trying every map."""
    for k in range(g.n + 1):
        if any(all(c[u] != c[v] for u, v in g.edges) for c in product(range(k), repeat=g.n)):
            return k


def frozen_degeneracy_order(g: rg.Graph) -> list[int]:
    """The vertex order ``chromatic_number`` colours in reverse, as the
    library computed it one vertex pair at a time: its search tree must not
    change when the bookkeeping does."""
    remaining = set(range(g.n))
    deg = {v: g.degree(v) for v in remaining}
    order = []
    while remaining:
        v = min(remaining, key=lambda x: (deg[x], x))
        order.append(v)
        remaining.remove(v)
        for u in remaining:
            if g.has_edge(u, v):
                deg[u] -= 1
    return order


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser ``relgraph`` was built on, kept as the oracle for
    ``cli._parse``: the same namespace for every argv it accepts, and exit 2
    with nothing on stdout for every argv it rejects."""
    parser = argparse.ArgumentParser(
        prog="relgraph",
        description="Algebra of relations between graphs: composition, "
        "equivalences, cores, cocores, and an exhaustive equation solver.",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, inputs, func, help_text in (
        ("apply", ("graph", "relation"), cli._cmd_apply, "compose a graph with a relation"),
        ("apply-weak", ("graph", "relation"), cli._cmd_apply, "loop-free composition"),
        ("thin", ("graph",), cli._cmd_thin, "quotient by equal neighborhoods"),
        ("rcore", ("graph",), cli._cmd_rcore, "minimum weak-equivalence representative"),
        ("cocore", ("graph",), cli._cmd_core, "minimal generating subgraph"),
        ("core", ("graph",), cli._cmd_core, "smallest retract (graph core)"),
    ):
        p = sub.add_parser(name, help=help_text)
        for arg in inputs:
            p.add_argument(arg)
        p.set_defaults(func=func)

    p = sub.add_parser("equiv", help="decide relational equivalence")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--strong", action="store_true")
    mode.add_argument("--weak", action="store_true")
    p.add_argument("graph")
    p.add_argument("other")
    p.set_defaults(func=cli._cmd_equiv)

    p = sub.add_parser("solve", help="solve graph * R = target for R")
    p.add_argument("--weak", action="store_true")
    p.add_argument("--full-domain", action="store_true")
    what = p.add_mutually_exclusive_group()
    what.add_argument("--all", action="store_true")
    what.add_argument("--exists", action="store_true")
    p.add_argument("--minimal", action="store_true")
    p.add_argument("--maximal", action="store_true")
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("graph")
    p.add_argument("other")
    p.set_defaults(func=cli._cmd_solve)

    p = sub.add_parser("check", help="boolean predicates with witnesses")
    p.add_argument(
        "predicate",
        choices=["hall", "reversible", "prop-n", "prop-nstar", "retraction", "coretraction"],
    )
    p.add_argument("inputs", nargs="+")
    p.add_argument("--sub", default=None, help="subgraph vertices, e.g. '0,2,3'")
    p.set_defaults(func=cli._cmd_check)

    p = sub.add_parser("decompose", help="duplicate-then-contract split")
    p.add_argument("relation")
    p.set_defaults(func=cli._cmd_decompose)

    p = sub.add_parser("reduce", help="problem reductions")
    p.add_argument("construction", choices=["hom-to-fulrel", "fulrel-to-shom"])
    p.add_argument("graph")
    p.add_argument("other")
    p.set_defaults(func=cli._cmd_reduce)
    return parser
