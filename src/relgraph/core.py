"""Core value types: graphs, binary relations, partitions, and the
composition of a graph with a relation.

Vertices are dense integers ``0..n-1``; external vertex names live only in
an optional label table used by the I/O layer. Graphs are undirected and
may carry loops, stored as their adjacency rows, one neighbour bitmask per
vertex; relations are stored as their columns, one pre-image bitmask per
target vertex. Every type is an immutable value and every operation is a
pure function, so everything here is safe to share across threads.

relgraph's value records, here and in the other modules, derive from
:class:`Record`, not from the standard library's record decorator:
importing that module pulls in ``inspect`` and its parsers, and each
decorated class compiles its generated methods, which together cost a CLI
process more start-up than a ``reduce`` command spends computing.
"""

from __future__ import annotations

import math
from functools import cached_property


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


def _frozen_error(message: str) -> AttributeError:
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)


class Record:
    """Base of relgraph's frozen value records.

    A subclass's fields are its annotated class attributes, in order,
    after those it inherits; a class attribute of the same name is the
    field's default. The base provides what a frozen standard-library
    record would generate from them: a constructor taking the fields by
    position or keyword that then calls ``__post_init__``, equality between
    instances of the same class and a hash, both over the tuple of fields,
    a ``Name(field=value, ...)`` repr, ``__match_args__``, and
    ``FrozenInstanceError`` on assigning or deleting any attribute. Fields
    live in the instance ``__dict__``, as do the values of
    ``cached_property``, which writes there directly.
    """

    __match_args__: tuple[str, ...] = ()
    # Set per class: each field with a default, mapped to it, and for each
    # count k of positional arguments, the fields a keyword may name.
    _defaults: dict = {}
    _tails: tuple[frozenset[str], ...] = (frozenset(),)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls.__match_args__ = cls.__match_args__ + tuple(
            cls.__dict__.get("__annotations__", ())
        )
        cls._defaults = {field: getattr(cls, field) for field in fields if hasattr(cls, field)}
        cls._tails = tuple(frozenset(fields[k:]) for k in range(len(fields) + 1))

    def __init__(self, *args, **kwargs) -> None:
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            # Valid when each keyword names a field after the positional
            # ones and every field is then given or has a default.
            given = {**self._defaults, **kwargs}
            given.update(zip(names, args))
            if (
                len(args) > len(names)
                or len(given) != len(names)
                or not kwargs.keys() <= self._tails[len(args)]
            ):
                self._raise_bad_call(args, kwargs)
            self.__dict__.update(given)
        else:
            self.__dict__.update(zip(names, args))
        self.__post_init__()

    @classmethod
    def _raise_bad_call(cls, args: tuple, kwargs: dict) -> None:
        """Raise the ``TypeError`` that names what is wrong with a call."""
        name = cls.__name__
        fields = cls.__match_args__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, {len(args)} given")
        for field in fields[len(args):]:
            if field in kwargs:
                kwargs.pop(field)
            elif field not in cls._defaults:
                raise TypeError(f"{name}() missing argument {field!r}")
        # A keyword left over names no field, or one given by position.
        raise TypeError(f"{name}() got an unexpected or repeated argument {min(kwargs)!r}")

    def __post_init__(self) -> None:
        """Checks of the fields, run by the constructor; none by default."""

    def _fields(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__match_args__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = zip(self.__match_args__, self._fields())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __setattr__(self, name, value):
        raise _frozen_error(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen_error(f"cannot delete field {name!r}")


class Graph(Record):
    """Finite undirected graph with loops allowed, stored as its adjacency rows.

    ``adjacency[v]`` is the bitmask of v's neighbours; a loop puts v in its
    own row. ``Graph(n, edges, labels)`` takes pairs ``(u, v)`` with
    ``u <= v`` and checks each; use :func:`graph_from_edges` for arbitrary
    input. ``edges`` is derived from the rows on first use. Equality and
    hashing compare the rows and ignore ``labels`` (they are I/O metadata,
    not graph identity).
    """

    n: int
    edges: frozenset[tuple[int, int]]
    labels: tuple[str, ...] | None

    def __init__(
        self, n: int, edges: frozenset[tuple[int, int]], labels: tuple[str, ...] | None = None
    ) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range or not normalized")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        if labels is not None and len(labels) != n:
            raise ValueError("label table size must match vertex count")
        # Stored directly: the solver and the witness checks build many graphs.
        self.__dict__.update(n=n, adjacency=tuple(rows), labels=labels)

    @classmethod
    def _of_rows(cls, rows, labels: tuple[str, ...] | None = None) -> Graph:
        """The graph whose vertex v has the neighbour mask ``rows[v]``.

        The internal constructor: it checks, in O(n), only that every row
        is a mask over the n vertices; the rows must be symmetric.
        """
        rows = tuple(rows)
        full = 1 << len(rows)
        for row in rows:
            if not 0 <= row < full:
                raise ValueError(f"row {row:#x} outside a {len(rows)}-vertex graph")
        g = cls.__new__(cls)
        g.__dict__.update(n=len(rows), adjacency=rows, labels=labels)
        return g

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.adjacency == other.adjacency

    def __hash__(self):
        return hash(self.adjacency)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The ``(u, v)`` pairs with ``u <= v``, from the rows."""
        return frozenset(
            (u, v) for u, row in enumerate(self.adjacency) for v in _bits(row >> u << u)
        )

    # Invariants the no-instance rules read, computed once and cached as ``edges`` is.
    @cached_property
    def _components(self) -> tuple[int, ...]:
        """The components' vertex masks, by smallest member: each the union
        of one frontier sweep from the lowest vertex no earlier one reached."""
        out, left = [], (1 << self.n) - 1
        while left:
            out.append(sum(_layers(self.adjacency, left & -left)))
            left ^= out[-1]
        return tuple(out)

    @cached_property
    def _eccentricities(self) -> tuple[float, ...]:
        """Each vertex's number of frontier layers, less one; all ``math.inf``
        once a sweep misses a vertex, which shows the graph disconnected."""
        full = (1 << self.n) - 1
        out = []
        for s in range(self.n):
            layers = _layers(self.adjacency, 1 << s)
            if sum(layers) != full:
                return (math.inf,) * self.n
            out.append(len(layers) - 1)
        return tuple(out)

    def neighbors(self, v: int) -> frozenset[int]:
        """Open neighborhood N(v); contains v itself exactly when v has a loop."""
        return frozenset(_bits(self.adjacency[v]))

    def closed_neighbors(self, v: int) -> frozenset[int]:
        """Closed neighborhood N[v] = N(v) plus v."""
        return self.neighbors(v) | {v}

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    @property
    def is_simple(self) -> bool:
        return not self.loop_vertices()

    def loop_vertices(self) -> list[int]:
        return [v for v, row in enumerate(self.adjacency) if row >> v & 1]

    def isolated_vertices(self) -> list[int]:
        """Vertices with no incident edge at all. A loop vertex is not isolated."""
        return [v for v in range(self.n) if self.adjacency[v] == 0]

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)


def graph_from_edges(n: int, edges, labels=None) -> Graph:
    """Build a graph from an arbitrary iterable of (u, v) pairs."""
    edges = ((u, v) if u <= v else (v, u) for u, v in edges)
    return Graph(n, edges, tuple(labels) if labels else None)


def empty_graph(n: int) -> Graph:
    return Graph(n, ())


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph._of_rows(full ^ 1 << v for v in range(n))


def path_graph(n: int) -> Graph:
    """Path on n vertices 0-1-...-(n-1)."""
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return graph_from_edges(n, edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph._of_rows(g.adjacency + tuple(row << g.n for row in h.adjacency))


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Induced subgraph on ``vertices``, densely renumbered.

    The result's labels record the original vertex names so callers can
    trace dense indices back to the input graph.
    """
    kept = sorted(set(vertices))
    if any(v < 0 or v >= g.n for v in kept):
        raise ValueError("subgraph vertices out of range")
    return _reduced_graph(g, kept)


def _layers(adjacency, start: int) -> list[int]:
    """The frontier sweep from the vertex mask ``start``: the disjoint masks
    of the vertices at distance 0, 1, 2, ... from it, each the OR of the
    rows of the layer before less every vertex reached, until none is left."""
    full = (1 << len(adjacency)) - 1
    out, seen, frontier = [], start, start
    while frontier:
        out.append(frontier)
        if seen == full:
            break
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adjacency[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
    return out


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components as vertex sets, ordered by smallest member."""
    return [frozenset(_bits(comp)) for comp in g._components]


def distance_matrix(g: Graph) -> list[list[float]]:
    """All-pairs shortest path lengths, ``math.inf`` for disconnected pairs:
    row s numbers the layers of the frontier sweep from s."""
    dist = []
    for s in range(g.n):
        row = [math.inf] * g.n
        for d, layer in enumerate(_layers(g.adjacency, 1 << s)):
            for v in _bits(layer):
                row[v] = d
        dist.append(row)
    return dist


def eccentricities(g: Graph) -> list[float]:
    """Each vertex's greatest distance to another, all ``math.inf`` if ``g`` is disconnected."""
    return list(g._eccentricities)


def radius(g: Graph) -> float:
    return min(g._eccentricities, default=0)


def diameter(g: Graph) -> float:
    return max(g._eccentricities, default=0)


def is_connected(g: Graph) -> bool:
    """Whether one frontier sweep reaches every vertex; it caches nothing."""
    return g.n < 2 or sum(_layers(g.adjacency, 1)) == (1 << g.n) - 1


def complement(g: Graph) -> Graph:
    """Complement of a simple graph (swap adjacency on distinct pairs)."""
    if not g.is_simple:
        raise LoopsNotAllowedError("complement is defined for simple graphs only")
    full = (1 << g.n) - 1
    return Graph._of_rows(full ^ 1 << v ^ row for v, row in enumerate(g.adjacency))


def path_length_of(g: Graph) -> int | None:
    """Length (edge count) if g is a path graph, else None. K1 counts as length 0.

    The O(n) degree test runs first; connectivity is checked only on a
    path's degree sequence, which a path plus disjoint cycles also has.
    """
    if not g.is_simple or g.n == 0:
        return None
    if g.n == 1:
        return 0
    if sorted(map(int.bit_count, g.adjacency)) != [1, 1] + [2] * (g.n - 2):
        return None
    return g.n - 1 if is_connected(g) else None


def is_complete(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return all(row == full ^ 1 << v for v, row in enumerate(g.adjacency))


def _degeneracy_order(g: Graph) -> list[int]:
    adj = g.adjacency
    live = list(range(g.n))
    left = (1 << g.n) - 1
    order = []
    while live:
        degs = [(adj[u] & left).bit_count() for u in live]
        v = live.pop(degs.index(min(degs)))
        order.append(v)
        left ^= 1 << v
    return order


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by branch and bound over a degeneracy order,
    each colour class a vertex mask that a vertex's row must miss to join.
    A clique grown greedily along the order bounds the answer from below,
    and the search ends at the first colouring that meets it."""
    if not g.is_simple:
        raise LoopsNotAllowedError("chromatic number is defined for simple graphs")
    if g.n == 0:
        return 0
    if not any(g.adjacency):
        return 1
    # Color in reverse degeneracy order: most constrained vertices first.
    order = _degeneracy_order(g)[::-1]
    adj = g.adjacency
    n = g.n
    clique = 0
    for v in order:
        if adj[v] & clique == clique:
            clique |= 1 << v
    low = clique.bit_count()
    classes = [0] * n
    best = n  # trivial upper bound

    def extend(i: int, used: int) -> None:
        nonlocal best
        if used >= best or best == low:
            return
        if i == n:
            best = used
            return
        v = order[i]
        row = adj[v]
        for c in range(used):
            if not classes[c] & row:
                classes[c] ^= 1 << v
                extend(i + 1, used)
                classes[c] ^= 1 << v
        if used + 1 < best:
            classes[used] = 1 << v
            extend(i + 1, used + 1)
            classes[used] = 0

    extend(0, 0)
    return best


# The exhaustive solver's cap on vertices per side.
SOLVER_VERTEX_CAP = 16
# The cap of the exhaustive oracles ``rcore_oracle`` and ``cocore_oracle``.
ORACLE_VERTEX_CAP = 7


def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


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


def _transpose_columns(n: int, columns) -> list[int]:
    """Rows of the relation with ``columns`` over an ``n``-vertex domain:
    row x is the mask of the columns holding x."""
    rows = [0] * n
    for b, col in enumerate(columns):
        for x in _bits(col):
            rows[x] |= 1 << b
    return rows


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
    kernel, ``_compose_columns``: row b is the mask of the columns
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


class Relation(Record):
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
        # The record is frozen: its fields are set once, here.
        fields = self.__dict__
        fields["domain_size"] = domain_size
        fields["image_size"] = image_size
        fields["columns"] = columns

    def __repr__(self):
        return f"Relation({self.domain_size}x{self.image_size}, {sorted(self.pairs)})"

    @cached_property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The ``(x, b)`` pairs, from the columns."""
        return frozenset((x, b) for b, col in enumerate(self.columns) for x in _bits(col))

    def image_of(self, x: int) -> frozenset[int]:
        if x < 0:
            return frozenset()
        return frozenset(b for b, col in enumerate(self.columns) if col >> x & 1)

    def preimage_of(self, b: int) -> frozenset[int]:
        if not 0 <= b < self.image_size:
            return frozenset()
        return frozenset(_bits(self.columns[b]))

    @cached_property
    def domain_set(self) -> frozenset[int]:
        mask = 0
        for col in self.columns:
            mask |= col
        return frozenset(_bits(mask))

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
        return _transpose_columns(self.domain_size, self.columns)

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


class Partition(Record):
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


def _deletions(g: Graph, *, rcore: bool):
    """The neighbourhood-deletion rule behind R-cores and R-cocores.

    One pass visits the vertices of ``g`` with an edge in ascending order,
    with neighbourhoods read on the live set L (those not yet deleted;
    isolated vertices are never in it). Vertex i goes when N(i) is the
    union of the neighbourhoods of other live vertices contained in it
    ("contributors") and, for R-cores, some other live vertex's
    neighbourhood contains it (the first such is its "container").

    One pass is the fixpoint. Let (P) say that every vertex v has
    N(v) = U{N(c) : c in L, N(c) <= N(v)}. (P) holds at the start, where
    isolated rows are empty, and survives deleting i, since N(i) is the
    union of its live contributors' rows, none of them i. Under (P), for
    live j and k, N(j) & L <= N(k) & L iff N(j) <= N(k): for y in
    N(j) - L, (P) gives a live c in N(j) with N(c) <= N(y); then c is in
    N(k), so k is in N(c) <= N(y) and y is in N(k). The same argument
    makes the union test on rows restricted to L equivalent to the one on
    full rows, over the same contributors and container, so both readings
    decide identically. Under full rows a vertex's contributors and
    containers only shrink as L shrinks, so a vertex kept when visited
    stays kept, and a second pass would delete nothing.

    Yields each deletion as it is made, as ``(vertex, contributors,
    container)``, so a caller may stop at the first.
    """
    adj = g.adjacency
    live = [v for v, row in enumerate(adj) if row]
    alive = sum(1 << v for v in live)
    for i in tuple(live):
        ni = adj[i] & alive
        container = None
        if rcore:
            # Most vertices have no container: look for one first. Tested
            # without ``~adj[j]``, a negative int slow to build and to AND.
            for j in live:
                if j != i and adj[j] & ni == ni:
                    container = j
                    break
            if container is None:
                continue
        outside = alive ^ ni
        union = 0
        contributors = []
        for j in live:
            if j != i and not adj[j] & outside:
                union |= adj[j]
                contributors.append(j)
        if union & alive == ni:
            live.remove(i)
            alive ^= 1 << i
            yield i, tuple(contributors), container


def _sweep(
    g: Graph, *, rcore: bool
) -> tuple[int, list[tuple[int, tuple[int, ...], int | None]]]:
    """The surviving vertex mask after every ``_deletions`` of ``g``, and
    the trace of those deletions, in order."""
    trace = list(_deletions(g, rcore=rcore))
    alive = sum(1 << v for v, row in enumerate(g.adjacency) if row)
    return alive ^ sum(1 << i for i, _, _ in trace), trace


def _rcore_maps(
    g: Graph, survivors: int, trace: list[tuple[int, tuple[int, ...], int | None]]
) -> tuple[list[int], list[int], list[int]]:
    """The R-core of ``g`` as the columns of its two witnesses, from
    ``_sweep(g, rcore=True)``.

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
    """The subgraph of ``g`` induced on the distinct vertices ``keep``, in
    that order: vertex i is ``keep[i]`` and carries its name.

    A reduced form keeps the ascending survivors of a sweep, then possibly
    one isolated vertex standing for all of them.
    """
    return Graph._of_rows(_reduced_rows(g.adjacency, keep), tuple(map(g.label_of, keep)))


def _reduced_rows(adjacency, keep: list[int]) -> tuple[int, ...]:
    """The rows of ``_reduced_graph``: row i is ``adjacency[keep[i]]`` read on ``keep``."""
    bit = [0] * len(adjacency)
    for i, v in enumerate(keep):
        bit[v] = 1 << i
    return _compose_columns(bit, [adjacency[v] for v in keep])
