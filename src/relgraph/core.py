"""Core value types: graphs, binary relations, partitions, weighted graphs.

Vertices are dense integers ``0..n-1``; external vertex names live only in
an optional label table used by the I/O layer. Graphs are undirected and
may carry loops, stored as normalized ``(min, max)`` pairs. Every type is
an immutable value and every operation is a pure function, so everything
here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations


class UniverseMismatchError(ValueError):
    """Relation and graph universes do not line up."""


class ImageNotFullError(ValueError):
    """Composition needs every target vertex to have a pre-image."""


class LoopsNotAllowedError(ValueError):
    """Operation is only defined for simple (loop-free) graphs."""


class CapExceededError(ValueError):
    """Input exceeds the configured exhaustive-search cap."""


class WitnessCheckError(RuntimeError):
    """A witness or solution failed its independent re-check before return."""


def check_witness(ok: bool, what: str) -> None:
    """Raise :class:`WitnessCheckError` unless ``ok``.

    Used instead of ``assert`` so the re-checks also run under ``python -O``.
    """
    if not ok:
        raise WitnessCheckError(what)


def _normalize_edges(edges) -> frozenset[tuple[int, int]]:
    return frozenset((u, v) if u <= v else (v, u) for u, v in edges)


@dataclass(frozen=True, eq=False)
class Graph:
    """Finite undirected graph with loops allowed.

    ``edges`` must hold normalized pairs ``(u, v)`` with ``u <= v``; use
    :func:`graph_from_edges` for arbitrary input. Equality and hashing
    ignore ``labels`` (they are I/O metadata, not graph identity).
    """

    n: int
    edges: frozenset[tuple[int, int]]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.edges:
            if not (0 <= u <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range or not normalized")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("label table size must match vertex count")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks; a loop puts a vertex in its own mask."""
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    def neighbors(self, v: int) -> frozenset[int]:
        """Open neighborhood N(v); contains v itself exactly when v has a loop."""
        mask = self.adjacency[v]
        return frozenset(u for u in range(self.n) if mask >> u & 1)

    def closed_neighbors(self, v: int) -> frozenset[int]:
        """Closed neighborhood N[v] = N(v) plus v."""
        return self.neighbors(v) | {v}

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u] >> v & 1)

    def degree(self, v: int) -> int:
        return bin(self.adjacency[v]).count("1")

    @property
    def is_simple(self) -> bool:
        return not any(u == v for u, v in self.edges)

    def loop_vertices(self) -> list[int]:
        return sorted(u for u, v in self.edges if u == v)

    def isolated_vertices(self) -> list[int]:
        """Vertices with no incident edge at all. A loop vertex is not isolated."""
        return [v for v in range(self.n) if self.adjacency[v] == 0]

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)


def graph_from_edges(n: int, edges, labels=None) -> Graph:
    """Build a graph from an arbitrary iterable of (u, v) pairs."""
    return Graph(n, _normalize_edges(edges), tuple(labels) if labels else None)


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def complete_graph(n: int) -> Graph:
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def path_graph(n: int) -> Graph:
    """Path on n vertices 0-1-...-(n-1)."""
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return graph_from_edges(n, edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    edges = set(g.edges)
    edges.update((u + g.n, v + g.n) for u, v in h.edges)
    return Graph(g.n + h.n, frozenset(edges))


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Induced subgraph on ``vertices``, densely renumbered.

    The result's labels record the original vertex names so callers can
    trace dense indices back to the input graph.
    """
    kept = sorted(set(vertices))
    if any(v < 0 or v >= g.n for v in kept):
        raise ValueError("subgraph vertices out of range")
    index = {v: i for i, v in enumerate(kept)}
    edges = frozenset(
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    )
    return Graph(len(kept), edges, tuple(g.label_of(v) for v in kept))


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components as vertex sets, ordered by smallest member."""
    seen = [False] * g.n
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = []
        stack = [s]
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            mask = g.adjacency[v]
            for u in range(g.n):
                if mask >> u & 1 and not seen[u]:
                    seen[u] = True
                    stack.append(u)
        out.append(frozenset(comp))
    return out


def distance_matrix(g: Graph) -> list[list[float]]:
    """All-pairs shortest path lengths; ``math.inf`` for disconnected pairs."""
    dist = [[math.inf] * g.n for _ in range(g.n)]
    for s in range(g.n):
        row = dist[s]
        row[s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                mask = g.adjacency[v]
                for u in range(g.n):
                    if mask >> u & 1 and row[u] == math.inf:
                        row[u] = d
                        nxt.append(u)
            frontier = nxt
    return dist


def eccentricities(g: Graph) -> list[float]:
    dist = distance_matrix(g)
    return [max(row) if row else 0 for row in dist]


def radius(g: Graph) -> float:
    ecc = eccentricities(g)
    return min(ecc) if ecc else 0


def diameter(g: Graph) -> float:
    ecc = eccentricities(g)
    return max(ecc) if ecc else 0


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


def complement(g: Graph) -> Graph:
    """Complement of a simple graph (swap adjacency on distinct pairs)."""
    if not g.is_simple:
        raise LoopsNotAllowedError("complement is defined for simple graphs only")
    edges = frozenset(
        (u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)
    )
    return Graph(g.n, edges)


def path_length_of(g: Graph) -> int | None:
    """Length (edge count) if g is a path graph, else None. K1 counts as length 0.

    The O(n) degree test runs first; connectivity is checked only on a
    path's degree sequence, which a path plus disjoint cycles also has.
    """
    if not g.is_simple or g.n == 0:
        return None
    if g.n == 1:
        return 0
    degs = sorted(g.degree(v) for v in range(g.n))
    if degs[:2] != [1, 1] or any(d != 2 for d in degs[2:]):
        return None
    return g.n - 1 if is_connected(g) else None


def is_complete(g: Graph) -> bool:
    return g.is_simple and len(g.edges) == g.n * (g.n - 1) // 2


def _degeneracy_order(g: Graph) -> list[int]:
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


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by branch and bound over a degeneracy order."""
    if not g.is_simple:
        raise LoopsNotAllowedError("chromatic number is defined for simple graphs")
    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    # Color in reverse degeneracy order: most constrained vertices first.
    order = _degeneracy_order(g)[::-1]
    adj = g.adjacency
    pos_mask = [0] * g.n
    for i, v in enumerate(order):
        for j in range(i):
            if adj[v] >> order[j] & 1:
                pos_mask[i] |= 1 << j
    n = g.n
    colors = [0] * n
    best = n  # trivial upper bound

    def extend(i: int, used: int) -> None:
        nonlocal best
        if used >= best:
            return
        if i == n:
            best = used
            return
        taken = 0
        m = pos_mask[i]
        j = 0
        while m:
            if m & 1:
                taken |= 1 << colors[j]
            m >>= 1
            j += 1
        for c in range(used):
            if not taken >> c & 1:
                colors[i] = c
                extend(i + 1, used)
        if used + 1 < best:
            colors[i] = used
            extend(i + 1, used + 1)

    extend(0, 0)
    return best


# The exhaustive solver's cap on vertices per side. Masks over at most this
# many vertices have their set bits cached.
SOLVER_VERTEX_CAP = 16


@lru_cache(maxsize=1 << SOLVER_VERTEX_CAP)
def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _bits_for(n: int):
    """``_bits`` for masks over ``n`` vertices.

    The cache is sized for masks under the vertex cap. Wider masks, such as
    a solution lifted from R-cores, are walked without it, so the cache
    never holds their long tuples.
    """
    return _bits if n <= SOLVER_VERTEX_CAP else _bits.__wrapped__


def _compose_columns(first, second) -> tuple[int, ...]:
    """Columns of ``first ; second`` from the columns of each: column c ORs
    the columns of ``first`` at the members of ``second[c]``."""
    out = []
    for col in second:
        mask = 0
        while col:
            low = col & -col
            mask |= first[low.bit_length() - 1]
            col ^= low
        out.append(mask)
    return tuple(out)


@dataclass(frozen=True, init=False, repr=False)
class Relation:
    """Binary relation between two dense vertex universes, stored as its columns.

    ``columns[b]`` is the bitmask of the source vertices related to target
    vertex b. ``Relation(domain_size, image_size, pairs)`` takes ``(x, b)``
    pairs and checks each; ``pairs`` is derived from the columns on first
    use. Equality and hashing compare ``(domain_size, image_size, columns)``.
    """

    domain_size: int
    image_size: int
    columns: tuple[int, ...]

    def __init__(self, domain_size: int, image_size: int, pairs) -> None:
        if domain_size < 0 or image_size < 0:
            raise ValueError("universe sizes must be non-negative")
        cols = [0] * image_size
        for x, b in pairs:
            if not (0 <= x < domain_size and 0 <= b < image_size):
                raise ValueError(f"pair ({x}, {b}) outside declared universes")
            cols[b] |= 1 << x
        self._set(domain_size, image_size, tuple(cols))

    @classmethod
    def _of_columns(cls, domain_size: int, image_size: int, columns) -> Relation:
        """The relation whose column b is the source mask ``columns[b]``.

        The internal constructor: it checks, in O(m), only the column count
        and that every column is a mask over the domain.
        """
        columns = tuple(columns)
        if domain_size < 0 or len(columns) != image_size:
            raise ValueError(f"{len(columns)} columns for a {domain_size}x{image_size} relation")
        full = 1 << domain_size
        for col in columns:
            if not 0 <= col < full:
                raise ValueError(f"column {col:#x} outside a {domain_size}-vertex domain")
        rel = cls.__new__(cls)
        rel._set(domain_size, image_size, columns)
        return rel

    def _set(self, domain_size: int, image_size: int, columns: tuple[int, ...]) -> None:
        # The dataclass is frozen: its fields are set once, here.
        object.__setattr__(self, "domain_size", domain_size)
        object.__setattr__(self, "image_size", image_size)
        object.__setattr__(self, "columns", columns)

    def __repr__(self):
        return f"Relation({self.domain_size}x{self.image_size}, {sorted(self.pairs)})"

    @cached_property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The ``(x, b)`` pairs, from the columns."""
        bits = _bits_for(self.domain_size)
        return frozenset((x, b) for b, col in enumerate(self.columns) for x in bits(col))

    def image_of(self, x: int) -> frozenset[int]:
        if x < 0:
            return frozenset()
        return frozenset(b for b, col in enumerate(self.columns) if col >> x & 1)

    def preimage_of(self, b: int) -> frozenset[int]:
        if not 0 <= b < self.image_size:
            return frozenset()
        return frozenset(_bits_for(self.domain_size)(self.columns[b]))

    @cached_property
    def domain_set(self) -> frozenset[int]:
        mask = 0
        for col in self.columns:
            mask |= col
        return frozenset(_bits_for(self.domain_size)(mask))

    @cached_property
    def image_set(self) -> frozenset[int]:
        return frozenset(b for b, col in enumerate(self.columns) if col)

    @property
    def has_full_domain(self) -> bool:
        return len(self.domain_set) == self.domain_size

    @property
    def has_full_image(self) -> bool:
        return all(self.columns)

    @property
    def is_functional(self) -> bool:
        return len(self.domain_set) == sum(col.bit_count() for col in self.columns)

    @property
    def is_injective(self) -> bool:
        return not any(col & (col - 1) for col in self.columns)

    def column_masks(self) -> list[int]:
        """Pre-image bitmask for each target vertex."""
        return list(self.columns)

    def row_masks(self) -> list[int]:
        """Image bitmask for each source vertex."""
        rows = [0] * self.domain_size
        bits = _bits_for(self.domain_size)
        for b, col in enumerate(self.columns):
            for x in bits(col):
                rows[x] |= 1 << b
        return rows

    def transpose(self) -> Relation:
        return Relation._of_columns(self.image_size, self.domain_size, self.row_masks())

    def compose(self, other: Relation) -> Relation:
        """Relational composition self followed by ``other``."""
        if self.image_size != other.domain_size:
            raise UniverseMismatchError(
                f"cannot compose {self.image_size}-image with "
                f"{other.domain_size}-domain relation"
            )
        return Relation._of_columns(
            self.domain_size, other.image_size, _compose_columns(self.columns, other.columns)
        )

    def union(self, other: Relation) -> Relation:
        if (self.domain_size, self.image_size) != (other.domain_size, other.image_size):
            raise UniverseMismatchError("union requires matching universes")
        return Relation._of_columns(
            self.domain_size,
            self.image_size,
            [a | b for a, b in zip(self.columns, other.columns)],
        )


def relation_from_pairs(domain_size: int, image_size: int, pairs) -> Relation:
    return Relation(domain_size, image_size, pairs)


def identity_relation(n: int) -> Relation:
    return Relation._of_columns(n, n, [1 << x for x in range(n)])


def transpose(rel: Relation) -> Relation:
    return rel.transpose()


def compose_rel(first: Relation, *rest: Relation) -> Relation:
    out = first
    for r in rest:
        out = out.compose(r)
    return out


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint nonempty classes covering ``0..universe_size-1``."""

    universe_size: int
    classes: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("partition classes must be nonempty")
            if cls & seen:
                raise ValueError("partition classes must be disjoint")
            seen |= cls
        if seen != set(range(self.universe_size)):
            raise ValueError("partition classes must cover the universe")

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.universe_size == other.universe_size and set(self.classes) == set(
            other.classes
        )

    def __hash__(self):
        return hash((self.universe_size, frozenset(self.classes)))

    def class_of(self, v: int) -> int:
        for i, cls in enumerate(self.classes):
            if v in cls:
                return i
        raise ValueError(f"vertex {v} not in partition")


def partition_from_classes(universe_size: int, classes) -> Partition:
    """Normalize class order by smallest member."""
    ordered = tuple(sorted((frozenset(c) for c in classes), key=min))
    return Partition(universe_size, ordered)


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Symmetric rational edge weights; absent entries weigh zero."""

    n: int
    weights: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        for u, v, w in self.weights:
            if not (0 <= u <= v < self.n):
                raise ValueError(f"weight entry ({u}, {v}) out of range")
            if w == 0:
                raise ValueError("zero weights must be omitted")

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.n == other.n and set(self.weights) == set(other.weights)

    def __hash__(self):
        return hash((self.n, frozenset(self.weights)))

    @cached_property
    def _table(self) -> dict[tuple[int, int], Fraction]:
        return {(u, v): w for u, v, w in self.weights}

    def weight(self, u: int, v: int) -> Fraction:
        key = (u, v) if u <= v else (v, u)
        return self._table.get(key, Fraction(0))

    def to_graph(self) -> Graph:
        """Boolean collapse: positive weight becomes an edge."""
        return Graph(self.n, frozenset((u, v) for u, v, w in self.weights if w > 0))


def weighted_graph(n: int, entries) -> WeightedGraph:
    """Build from a {(u, v): weight} mapping or iterable of (u, v, w)."""
    if hasattr(entries, "items"):
        entries = [(u, v, w) for (u, v), w in entries.items()]
    table: dict[tuple[int, int], Fraction] = {}
    for u, v, w in entries:
        key = (u, v) if u <= v else (v, u)
        w = Fraction(w)
        table[key] = table.get(key, Fraction(0)) + w
    items = tuple(
        sorted((u, v, w) for (u, v), w in table.items() if w != 0)
    )
    return WeightedGraph(n, items)


def unit_weights(g: Graph) -> WeightedGraph:
    return weighted_graph(g.n, {(u, v): Fraction(1) for u, v in g.edges})


def _sweep(
    adj: tuple[int, ...], alive: int, *, rcore: bool, fixpoint: bool
) -> tuple[int, list[tuple[int, tuple[int, ...], int | None]]]:
    """The neighbourhood-deletion rule behind R-cores and R-cocores.

    Visits the vertices of the mask ``alive`` in ascending order. Vertex i
    goes when its neighbourhood is the union of the neighbourhoods of other
    live vertices contained in it ("contributors") and, for R-cores, some
    other live vertex's neighbourhood contains it (the first such is its
    "container"). With ``fixpoint`` neighbourhoods are restricted to the live
    vertices and sweeps repeat until none deletes; without it one pass reads
    the original neighbourhoods, stale entries of deleted vertices included.

    Returns the surviving vertex mask and the trace of deletions, in order,
    as ``(vertex, contributors, container)``.
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
                # Most vertices have no container: look for one first.
                for j in live:
                    if j != i and not ni & ~adj[j]:
                        container = j
                        break
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


def _non_isolated(g: Graph) -> int:
    mask = 0
    for v, row in enumerate(g.adjacency):
        if row:
            mask |= 1 << v
    return mask


def _rcore_sweep(g: Graph) -> tuple[int, list[tuple[int, tuple[int, ...], int | None]]]:
    """The fixpoint R-core sweep over the non-isolated vertices of ``g``."""
    return _sweep(g.adjacency, _non_isolated(g), rcore=True, fixpoint=True)


def _rcore_maps(
    g: Graph, survivors: int, trace: list[tuple[int, tuple[int, ...], int | None]]
) -> tuple[list[int], list[int], list[int]]:
    """The R-core of ``g`` as the columns of its two witnesses, from
    ``_rcore_sweep(g)``.

    Returns ``(keep, forward, backward)``. ``keep`` lists the core's
    vertices as vertices of ``g``: the survivors of the sweep, ascending,
    then one isolated vertex standing for all of them if there is any.
    ``forward[a]`` is the mask of the vertices of ``g`` that go to core
    vertex a, and ``backward[v]`` the mask of core vertices that go to v;
    both relations have full domain and full image, and core = g * forward,
    g = core * backward.

    A deleted vertex goes forward wherever its container goes; its pre-image
    under backward is the union of its contributors' pre-images. Every
    container and contributor was live when the vertex went, so the reverse
    pass over the trace has already placed it.
    """
    keep = [v for v in range(g.n) if survivors >> v & 1]
    # Isolated vertices keep these defaults: the stand-in appended last.
    image = [len(keep)] * g.n
    pre = [1 << len(keep)] * g.n
    for a, v in enumerate(keep):
        image[v] = a
        pre[v] = 1 << a
    for v, contributors, container in reversed(trace):
        image[v] = image[container]
        mask = 0
        for c in contributors:
            mask |= pre[c]
        pre[v] = mask
    keep += g.isolated_vertices()[:1]
    forward = [0] * len(keep)
    for v, a in enumerate(image):
        forward[a] |= 1 << v
    return keep, forward, pre


def _reduced_graph(g: Graph, keep: list[int]) -> Graph:
    """The reduced form on ``keep``: ascending survivors of a sweep, then
    possibly one isolated vertex standing for all of them.

    Its vertices carry the names of the vertices of ``g`` they keep, unless
    the stand-in is there.
    """
    if keep and not g.adjacency[keep[-1]]:
        return disjoint_union(induced_subgraph(g, keep[:-1]), empty_graph(1))
    return induced_subgraph(g, keep)
