"""Weighted graphs and their composition with relations, over exact rationals.

Kept apart from ``core`` and ``algebra`` so that only callers of weighted
composition import ``fractions``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .core import Graph, Record, Relation, UniverseMismatchError, _bits_for


class WeightedGraph(Record):
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


def apply_weighted(wg: WeightedGraph, rel: Relation) -> WeightedGraph:
    """Weighted composition: each target weight sums its pre-image weights.

    Equals the matrix product transpose(R) . W . R over exact rationals.
    """
    if rel.domain_size != wg.n:
        raise UniverseMismatchError(
            f"relation domain {rel.domain_size} != weighted graph order {wg.n}"
        )
    m = rel.image_size
    bits = _bits_for(wg.n)
    pre = [bits(col) for col in rel.columns]
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
