"""Exhaustive solver for graph-relation equations, with no-instance certificates.

The search assigns one pre-image set per target vertex (a "column"),
pruning as soon as a pair of assigned columns generates an edge pattern
that disagrees with the target. One search covers the whole target: a
column must avoid the neighbourhood of every assigned column it is not
adjacent to, which also keeps the source domains of different target
components apart. Solutions stay column masks until ``solve`` returns
them as relations; the CLI writes them straight from the masks.
Structural invariants (component counts, chromatic numbers, distances,
path and complete-graph characterizations) serve both as no-instance
certificates and as search accelerators; they are only ever applied under
the hypotheses that make them sound, so a certificate is always confirmed
by exhaustive search.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations

from .algebra import apply_strong
from .core import (
    CapExceededError,
    Graph,
    LoopsNotAllowedError,
    Relation,
    SOLVER_VERTEX_CAP,
    _bits_for,
    _compose_columns,
    _rcore_maps,
    _rcore_sweep,
    _reduced_graph,
    check_witness,
    chromatic_number,
    complement,
    components,
    diameter,
    disjoint_union,
    graph_from_edges,
    induced_subgraph,
    is_complete,
    path_length_of,
    radius,
)

# Masks that one column search may store in its candidate-list memos: the
# size of the subset table the search already holds.
_MEMO_LIMIT = 1 << SOLVER_VERTEX_CAP

# certify() is called once per candidate inside the oracle scans, so the
# underlying invariants are memoized on the (hashable) graph values.
_chromatic = lru_cache(maxsize=65536)(chromatic_number)
_component_count = lru_cache(maxsize=65536)(lambda g: len(components(g)))
_diameter = lru_cache(maxsize=65536)(diameter)
_radius = lru_cache(maxsize=65536)(radius)
# Shared by certify's complete rule and the exists fast path.
_complete_source = lru_cache(maxsize=65536)(
    lambda k, h, weak: complete_source_solution(k, h, weak=weak)
)


class BudgetExhaustedError(RuntimeError):
    """Raised when a search exceeds its node or time budget.

    ``solve`` catches it and reports ``complete=False``; ``iter_solutions``
    lets it reach its caller.
    """


class PreconditionViolatedError(ValueError):
    """A reduction was invoked outside its stated hypotheses."""


class _Budget:
    """Node/time budget of one query, counted in candidate masks considered.

    A weak exists-query's strong attempt and weak search draw on one budget.

    ``spend(count)`` charges ``count`` units at once: the node budget runs
    out as soon as fewer than zero units are left, and the deadline is
    checked whenever the running count crosses a multiple of 256.
    """

    __slots__ = ("nodes_left", "deadline", "_ticks", "unlimited")

    def __init__(self, node_budget: int | None, time_budget: float | None):
        self.nodes_left = node_budget
        self.deadline = (
            time.monotonic() + time_budget if time_budget is not None else None
        )
        self._ticks = 0
        self.unlimited = node_budget is None and time_budget is None

    def spend(self, count: int) -> None:
        if self.nodes_left is not None:
            self.nodes_left -= count
            if self.nodes_left < 0:
                raise BudgetExhaustedError("node budget exhausted")
        before = self._ticks
        self._ticks = before + count
        if self.deadline is not None and before >> 8 != self._ticks >> 8:
            if time.monotonic() > self.deadline:
                raise BudgetExhaustedError("time budget exhausted")


_NO_BUDGET = _Budget(None, None)


def _check_cap(g: Graph, h: Graph) -> None:
    if max(g.n, h.n) > SOLVER_VERTEX_CAP:
        raise CapExceededError(f"solver instances are capped at {SOLVER_VERTEX_CAP} vertices")


def _subset_neighbors(g: Graph) -> list[int]:
    """For every vertex-subset mask of ``g``, the union of its members' rows.

    The table has 2^n entries, at most 65,536 under SOLVER_VERTEX_CAP. Each
    solver entry point builds it once, after the certificates have had
    their chance to decide the query, passes it down, and drops it on
    return.
    """
    table = [0]
    for row in g.adjacency:
        table += [t | row for t in table]
    return table


def _search_columns(
    src: Graph,
    tgt: Graph,
    nbr: list[int],
    *,
    weak: bool = False,
    full_domain: bool = False,
    required: list[int] | None = None,
    universe: list[int] | None = None,
    budget: _Budget = _NO_BUDGET,
):
    """Yield solutions as tuples of pre-image masks indexed by target vertex.

    ``nbr`` is ``_subset_neighbors(src)``. ``required``/``universe`` give
    per-target-vertex masks that each column must contain / stay inside.
    The target may be disconnected: columns of different components are
    non-adjacent, so the ``forbidden`` mask keeps their domains apart.

    A node scans only its column's candidates disjoint from ``forbidden``,
    the union of the neighbourhoods the column must avoid. The same
    ``forbidden`` recurs at most nodes, so each candidate list keeps a memo
    from ``forbidden`` to that sub-list, for this call only. The memos
    store at most ``_MEMO_LIMIT`` masks in all; past that, a sub-list is
    built and dropped. Budget units are still charged by position in the
    whole list, so the memo changes no solution, order or unit.
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
    order = sorted(range(m), key=lambda b: (-tgt.degree(b), b))

    # Columns with the same pins (and, in strong mode, the same loop
    # requirement) share one read-only candidate list, ascending, and one
    # memo: ``forbidden`` -> the list's masks disjoint from it, in order.
    # The whole list stands for ``forbidden = 0``.
    lists: dict[tuple[int, int, bool | None], tuple[list[int], dict[int, list[int]]]] = {}
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
            entry = lists[req, uni, loop] = (opts, {0: opts})
        if not entry[0]:
            return
        cand.append(entry)
    # Masks the memos may still store. An entry costs its masks plus one,
    # so empty sub-lists count too.
    room = _MEMO_LIMIT

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

    def dfs(i: int, covered: int):
        nonlocal room
        if i == m:
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
            allowed = [mask for mask in opts if not mask & forbidden]
            if len(allowed) < room:
                memo[forbidden] = allowed
                room -= len(allowed) + 1
        # Every mask of ``opts`` costs one budget unit, whether or not it is
        # in ``allowed``. A rejected mask has no effect, so the units are
        # charged in bulk: up to each accepted mask before the search goes
        # on from it, and the rest when the loop ends.
        charged = 0
        for mask in allowed:
            ok = True
            for h in need_hit:
                if not mask & h:
                    ok = False
                    break
            if not ok:
                continue
            if limited:
                upto = bisect_right(opts, mask)
                spend(upto - charged)
                charged = upto
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
            spend(len(opts) - charged)

    yield from dfs(0, 0)


def _canonical_key(n: int, m: int):
    """Sort key putting column-mask solutions in the canonical order.

    The canonical order compares solutions by their sorted pair lists.
    Pair (x, b) is numbered x*m + b, which orders pairs as tuples do, so
    the sorted numbers compare as the sorted pair lists.
    """
    bits = _bits_for(n)

    def key(cols: tuple[int, ...]) -> list[int]:
        return sorted(x * m + b for b, mask in enumerate(cols) for x in bits(mask))

    return key


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable reason a no-instance answer is correct."""

    # components | chromatic | distance | radius | pathChar | completeChar
    # | rcore | exhausted
    kind: str
    detail: str
    values: tuple[tuple[str, object], ...] = ()

    def values_dict(self) -> dict:
        return {k: v for k, v in self.values}


def _complement_clique_parts(h: Graph) -> list[frozenset[int]] | None:
    """Components of the complement if each is a clique there, else None."""
    comp = complement(h)
    parts = components(comp)
    for part in parts:
        for u, v in combinations(sorted(part), 2):
            if not comp.has_edge(u, v):
                return None
    return parts


def complete_source_decision(k: int, h: Graph, *, weak: bool = False) -> bool:
    """Decide solvability of a complete k-vertex source onto simple ``h``.

    The rule is stated once, in ``complete_source_solution``.
    """
    return complete_source_solution(k, h, weak=weak) is not None


def complete_source_solution(
    k: int, h: Graph, *, weak: bool = False
) -> Relation | None:
    """A witness relation for a complete k-vertex source onto simple ``h``, else None.

    Strong form (unconstrained domain): the complement of the target must
    split into at most k disjoint complete graphs, one per source vertex.
    Weak form: every complement component must be complete and at most k
    of them may have two or more vertices; the single vertices go to every
    source vertex. A single-vertex source additionally forces an edgeless
    target since it cannot generate any edge.
    """
    if not h.is_simple:
        raise LoopsNotAllowedError("complete-source characterization needs simple target")
    if k < 1:
        raise ValueError("source must have at least one vertex")
    if weak and k == 1 and h.edges:
        return None
    parts = _complement_clique_parts(h)
    if parts is None:
        return None
    parts = sorted(parts, key=min)
    big = [p for p in parts if len(p) >= 2] if weak else parts
    if len(big) > k:
        return None
    pairs = {(i, v) for i, p in enumerate(big) for v in p}
    if weak:
        pairs |= {(j, v) for p in parts if len(p) == 1 for v in p for j in range(k)}
    return Relation(k, h.n, pairs)


# Each no-instance rule takes (g, h, weak, domain) and returns its Certificate
# when its hypotheses hold and the invariant it cites fails, else None.


def _components_rule(g: Graph, h: Graph, weak: bool, domain: str) -> Certificate | None:
    if domain != "full" or g.isolated_vertices() or h.isolated_vertices():
        return None
    b0g, b0h = _component_count(g), _component_count(h)
    if b0g >= b0h:
        return None
    return Certificate(
        "components",
        f"source has {b0g} connected components but target has {b0h}; "
        "a full-domain composition cannot increase the count",
        (("source_components", b0g), ("target_components", b0h)),
    )


def _chromatic_rule(g: Graph, h: Graph, weak: bool, domain: str) -> Certificate | None:
    if weak or domain != "full" or not (g.is_simple and h.is_simple):
        return None
    cg, ch = _chromatic(g), _chromatic(h)
    if cg <= ch:
        return None
    return Certificate(
        "chromatic",
        f"chromatic number {cg} of the source exceeds {ch} of the target; "
        "a full-domain composition cannot lower it",
        (("source_chromatic", cg), ("target_chromatic", ch)),
    )


def _distance_rule(g: Graph, h: Graph, weak: bool, domain: str) -> Certificate | None:
    if domain != "full" or _component_count(g) != 1:
        return None
    dg = _diameter(g)
    if dg < 2:
        return None
    dh = _diameter(h)
    if dh <= dg:
        return None
    return Certificate(
        "distance",
        f"target diameter {dh} exceeds source diameter {dg}",
        (("source_diameter", dg), ("target_diameter", str(dh))),
    )


def _radius_rule(g: Graph, h: Graph, weak: bool, domain: str) -> Certificate | None:
    if domain != "full" or g.n < 2 or _component_count(g) != 1:
        return None
    bound = max(_radius(g), 2)
    rh = _radius(h)
    if rh <= bound:
        return None
    return Certificate(
        "radius",
        f"target radius {rh} exceeds max(source radius, 2) = {bound}",
        (("target_radius", str(rh)), ("bound", str(bound))),
    )


def _path_rule(g: Graph, h: Graph, weak: bool, domain: str) -> Certificate | None:
    if weak or domain != "full":
        return None
    k, l = path_length_of(g), path_length_of(h)
    if k is None or l is None or min(k, l) < 1 or k >= l or (k == 1 and l == 2):
        return None
    return Certificate(
        "pathChar",
        f"no relation takes a path of length {k} onto a path of length {l}",
        (("source_length", k), ("target_length", l)),
    )


def _complete_rule(g: Graph, h: Graph, weak: bool, domain: str) -> Certificate | None:
    if g.n < 1 or not is_complete(g) or not h.is_simple:
        return None
    if domain == "any":
        if _complete_source(g.n, h, weak) is not None:
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
        f"{'at most' if domain == 'any' else 'exactly'} {g.n} "
        "disjoint complete graphs"
        + (" (counting only components with two or more vertices)" if weak else ""),
        (("source_order", g.n),),
    )


# In the order certify tries them, keyed by Certificate.kind.
_RULES = {
    "components": _components_rule,
    "chromatic": _chromatic_rule,
    "distance": _distance_rule,
    "radius": _radius_rule,
    "pathChar": _path_rule,
    "completeChar": _complete_rule,
}


def certify(
    g: Graph, h: Graph, mode: str = "strong", domain: str = "any"
) -> Certificate | None:
    """First structural invariant proving the equation unsolvable, if any.

    Each rule is applied only under hypotheses making it sound, so a
    certificate is never returned for a solvable instance. Returns None
    when no rule applies (which does not mean a solution exists).
    """
    weak = mode == "weak"
    for rule in _RULES.values():
        cert = rule(g, h, weak, domain)
        if cert is not None:
            return cert
    return None


def certificate_holds(
    cert: Certificate, g: Graph, h: Graph, mode: str = "strong", domain: str = "any"
) -> bool:
    """Re-check that the cited invariant genuinely fails on (g, h).

    An ``rcore`` certificate cites its rule on the R-cores, which are
    recomputed here: the source's, and the target's in strong mode.
    """
    if cert.kind == "exhausted":
        return True
    weak = mode == "weak"
    if cert.kind == "rcore":
        rule = _RULES.get(cert.values_dict().get("rule"))
        g = _reduce(g)[0]
        if not weak:
            h = _reduce(h)[0]
    else:
        rule = _RULES.get(cert.kind)
    return rule is not None and rule(g, h, weak, domain) is not None


@dataclass(frozen=True)
class SolveQuery:
    """One equation ``source * R = target`` and how to answer it.

    ``enumeration="exists"`` stops at the first solution. ``"all"``,
    ``"minimal"`` and ``"maximal"`` answer alike: every solution plus both
    antichains; the CLI picks what to print.
    """

    source: Graph
    target: Graph
    mode: str = "strong"  # strong | weak
    domain: str = "any"  # any | full
    enumeration: str = "all"  # exists | all | minimal | maximal
    node_budget: int | None = None
    time_budget: float | None = None

    def __post_init__(self):
        if self.mode not in ("strong", "weak"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.domain not in ("any", "full"):
            raise ValueError(f"unknown domain constraint {self.domain!r}")
        if self.enumeration not in ("exists", "all", "minimal", "maximal"):
            raise ValueError(f"unknown enumeration {self.enumeration!r}")
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError("node budget must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time budget must be positive")
        if self.mode == "weak" and not self.source.is_simple:
            raise LoopsNotAllowedError("weak mode requires a simple source graph")
        # An exists-query is capped on the pair its search runs on (see solve).
        if self.enumeration != "exists":
            _check_cap(self.source, self.target)


@dataclass(frozen=True)
class SolutionSet:
    """Solutions in canonical order plus inclusion-order structure.

    ``complete`` is False exactly when a budget cut the enumeration short;
    minimal/maximal index lists are only authoritative on complete full
    enumerations and are left empty for exists-queries.
    """

    solutions: tuple[Relation, ...]
    minimal_elements: tuple[int, ...]
    maximal_elements: tuple[int, ...]
    complete: bool


_Masks = tuple[list[tuple[int, ...]], tuple[int, ...], tuple[int, ...], bool, Certificate | None]


def _check_solutions(
    g: Graph,
    h: Graph,
    found: list[tuple[int, ...]],
    weak: bool,
    fulldom: bool,
    what: str = "solve",
) -> None:
    """Re-check column-mask solutions against ``h``'s adjacency rows.

    Each column's neighbourhood is the OR of its members' adjacency rows in
    ``g``, a route independent of the search's subset table and pruning.
    ``what`` names the relations in the error.
    """
    sadj, tadj = g.adjacency, h.adjacency
    full = (1 << g.n) - 1
    bits = _bits_for(g.n)
    for cols in found:
        check_witness(all(cols), f"{what}: a target vertex has no pre-image")
        covered = 0
        for b, mask in enumerate(cols):
            covered |= mask
            nb = 0
            for x in bits(mask):
                nb |= sadj[x]
            row = 0
            for c, col in enumerate(cols):
                if nb & col:
                    row |= 1 << c
            if weak:
                row &= ~(1 << b)
            check_witness(row == tadj[b], f"{what}: not a solution")
        check_witness(
            not fulldom or covered == full,
            f"{what}: full-domain solution misses a source vertex",
        )


def _antichains(
    n: int, m: int, col_list: list[tuple[int, ...]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimal/maximal solution indices of a complete enumeration.

    Sandwich closure makes the one-pair perturbation exact: a solution
    strictly contains another iff it minus some single pair is a solution
    too, and dually for maximality. Each solution is packed into one int,
    pair (x, b) at bit b*n + x. One pass looks up each solution minus each
    of its own pairs: a hit has a solution below it, and that solution has
    one above it.
    """
    keys = [sum(mask << b * n for b, mask in enumerate(cols)) for cols in col_list]
    index = {key: idx for idx, key in enumerate(keys)}
    has_below = [False] * len(keys)
    has_above = [False] * len(keys)
    for idx, key in enumerate(keys):
        rest = key
        while rest:
            bit = rest & -rest
            rest ^= bit
            lower = index.get(key ^ bit)
            if lower is not None:
                has_below[idx] = True
                has_above[lower] = True
    minimal = tuple(i for i, hit in enumerate(has_below) if not hit)
    maximal = tuple(i for i, hit in enumerate(has_above) if not hit)
    return minimal, maximal


def iter_solutions(query: SolveQuery, *, use_fast_paths: bool = True):
    """Lazily yield solutions of the query in search order (not sorted).

    Each solution is re-checked before it is yielded. Under a node or time
    budget, ``BudgetExhaustedError`` reaches the caller when the budget
    runs out, after the solutions found so far.
    """
    g, h = query.source, query.target
    for cols in _solutions(
        g, h, query.mode == "weak", query.domain == "full",
        certified=use_fast_paths, budget=_Budget(query.node_budget, query.time_budget),
    ):
        yield Relation._of_columns(g.n, h.n, cols)


def _solutions(
    g: Graph,
    h: Graph,
    weak: bool,
    fulldom: bool,
    *,
    certified: bool,
    required: list[int] | None = None,
    universe: list[int] | None = None,
    budget: _Budget = _NO_BUDGET,
):
    """The checked search route of ``iter_solutions``, ``relation_exists``
    and ``search_with_pinned_columns``: column masks in search order.

    Caps the inputs before any certificate runs, yields nothing for a
    weak-mode target with loops or, when ``certified``, for a certified
    no-instance, and re-checks every solution before it is yielded.
    ``required``/``universe`` pin the columns as in ``_search_columns``.
    """
    _check_cap(g, h)
    if weak and not h.is_simple:
        return
    mode = "weak" if weak else "strong"
    if certified and certify(g, h, mode, "full" if fulldom else "any") is not None:
        return
    nbr = _subset_neighbors(g)
    for cols in _search_columns(
        g, h, nbr, weak=weak, full_domain=fulldom,
        required=required, universe=universe, budget=budget,
    ):
        _check_solutions(g, h, [cols], weak, fulldom)
        yield cols


def solve(
    query: SolveQuery, *, use_fast_paths: bool = True
) -> tuple[SolutionSet, Certificate | None]:
    """Enumerate or decide the query; attach a certificate to no-instances.

    The search is skipped only when a (sound) certificate or complete-graph
    characterization already decides the instance. A search that exhausts
    its budget reports ``complete=False`` and no certificate.

    With the fast paths, an exists-query is decided on R-cores: the
    source's, and the target's in strong mode. ``G * R = H`` is solvable
    exactly when the cores' equation is, for either domain, because both
    witnesses of a core have full domain and full image and composition is
    associative. Weak mode keeps the target: a loop that weak composition
    drops on a reduced target would come back as edges among the target
    vertices it stands for. The cores are capped at SOLVER_VERTEX_CAP
    vertices instead of the inputs, a node budget counts the search on
    the cores, and a certificate found there comes back as kind ``rcore``.

    A weak exists-query that no certificate decides first tries the strong
    equation from the source's R-core onto the target's: weak composition
    only drops loops and the target has none, so a strong solution, lifted
    and re-checked as a weak one, answers it. That attempt may spend at
    most a tenth of the node budget; the weak search gets what it left,
    and one deadline covers both. A negative answer, and its certificate,
    come only from the weak search.
    """
    found, minimal, maximal, complete, cert = _solve_masks(query, use_fast_paths)
    n, m = query.source.n, query.target.n
    rels = tuple(Relation._of_columns(n, m, cols) for cols in found)
    return SolutionSet(rels, minimal, maximal, complete), cert


def _solve_masks(query: SolveQuery, use_fast_paths: bool = True) -> _Masks:
    """``solve`` with the solutions left as column masks.

    Returns ``(columns, minimal, maximal, complete, certificate)``: the
    re-checked solutions in canonical order, each a tuple of pre-image
    masks indexed by target vertex, and the rest as in ``solve``.
    """
    g, h = query.source, query.target
    weak = query.mode == "weak"
    fulldom = query.domain == "full"

    if weak and not h.is_simple:
        cert = Certificate(
            "exhausted",
            "weak composition always yields a loop-free graph; the target has loops",
        )
        return [], (), (), True, cert

    if use_fast_paths and query.enumeration == "exists":
        gc, src_maps = _reduce(g)
        hc, tgt_maps = (h, None) if weak else _reduce(h)
        if src_maps is not None or tgt_maps is not None:
            return _solve_on_cores(query, gc, src_maps, hc, tgt_maps)

    _check_cap(g, h)
    found, complete, cert = _search(query, g, h, use_fast_paths)
    found.sort(key=_canonical_key(g.n, h.n))
    _check_solutions(g, h, found, weak, fulldom)
    minimal: tuple[int, ...] = ()
    maximal: tuple[int, ...] = ()
    if complete and found and query.enumeration != "exists":
        minimal, maximal = _antichains(g.n, h.n, found)
    return found, minimal, maximal, complete, cert


def _search(
    query: SolveQuery,
    g: Graph,
    h: Graph,
    use_fast_paths: bool,
    budget: _Budget | None = None,
    nbr: list[int] | None = None,
) -> tuple[list[tuple[int, ...]], bool, Certificate | None]:
    """Certify, the fast paths, then the column search.

    Runs on ``g`` and ``h`` in place of the query's graphs and returns the
    solutions as unchecked column masks, whether the search completed, and
    the certificate of a no-instance. ``budget`` defaults to the query's,
    and ``nbr``, ``_subset_neighbors(g)``, is built here when not given.
    A weak exists-query that no certificate or complete-source witness
    decides tries ``_strong_first`` before its own column search.
    """
    weak = query.mode == "weak"
    exists = query.enumeration == "exists"
    if use_fast_paths:
        cert = certify(g, h, query.mode, query.domain)
        if cert is not None:
            return [], True, cert
        if (
            exists
            and query.domain == "any"
            and g.n >= 1
            and is_complete(g)
            and h.is_simple
        ):
            witness = _complete_source(g.n, h, weak)
            if witness is not None:
                return [witness.columns], True, None

    if budget is None:
        budget = _Budget(query.node_budget, query.time_budget)
    if nbr is None:
        nbr = _subset_neighbors(g)
    found: list[tuple[int, ...]] = []
    complete = True
    try:
        if use_fast_paths and weak and exists:
            found = _strong_first(query, g, h, budget, nbr)
        if not found:
            for colmasks in _search_columns(
                g, h, nbr, weak=weak, full_domain=query.domain == "full", budget=budget
            ):
                found.append(colmasks)
                if exists:
                    break
    except BudgetExhaustedError:
        complete = False

    cert = None
    if complete and not found:
        cert = certify(g, h, query.mode, query.domain) if not use_fast_paths else None
        if cert is None:
            cert = Certificate(
                "exhausted",
                "exhaustive search found no solution and no structural "
                "invariant explains the failure",
            )
    return found, complete, cert


def _strong_first(
    query: SolveQuery, g: Graph, h: Graph, budget: _Budget, nbr: list[int]
) -> list[tuple[int, ...]]:
    """A solution of the strong equation ``g * R = h``, searched on the
    R-core of the simple ``h`` and lifted to ``h``, as unchecked columns;
    an empty list when the attempt finds none.

    Weak composition is strong composition minus its loops, and ``h`` has
    none, so the strong solution is a weak one. The attempt may spend at
    most a tenth of the node units ``budget`` has left; what it does not
    spend stays there for the weak search. It runs under ``budget``'s
    deadline and raises ``BudgetExhaustedError`` when that passes.
    """
    hc, maps = _reduce(h)
    total = budget.nodes_left
    if total is not None:
        budget.nodes_left = total // 10
    found, complete, _ = _search(replace(query, mode="strong"), g, hc, True, budget, nbr)
    timed_out = not complete and (total is None or budget.nodes_left >= 0)
    if total is not None:
        budget.nodes_left = total - total // 10 + max(budget.nodes_left, 0)
    if timed_out:
        raise BudgetExhaustedError("time budget exhausted")
    if found and maps is not None:
        return [_compose_columns(found[0], maps[2])]
    return found


def _reduce(g: Graph):
    """The graph to search in place of ``g``, with its ``_rcore_maps``.

    ``g`` itself and None when its R-core keeps every vertex: then the
    sweep deleted nothing and there is at most one isolated vertex, and no
    map or graph is built.
    """
    survivors, trace = _rcore_sweep(g)
    if not trace and g.n - survivors.bit_count() <= 1:
        return g, None
    maps = _rcore_maps(g, survivors, trace)
    return _reduced_graph(g, maps[0]), maps


def _solve_on_cores(
    query: SolveQuery, gc: Graph, src_maps, hc: Graph, tgt_maps
) -> _Masks:
    """Decide an exists-query on R-cores and lift the answer to the inputs.

    ``gc``/``src_maps`` and ``hc``/``tgt_maps`` come from ``_reduce`` of
    the source and target; a side that was not reduced has None for maps.
    A core solution R' lifts to forward ; R' ; backward, which is
    re-checked on the inputs. A negative answer rests on the reductions:
    a solution R of the inputs gives the solution backward ; R ; forward
    of the cores. So the source's backward map and the target's forward
    map are re-checked before a negative answer is returned.
    """
    g, h = query.source, query.target
    weak = query.mode == "weak"
    fulldom = query.domain == "full"
    _check_cap(gc, hc)
    found, complete, cert = _search(query, gc, hc, True)
    if found:
        # Lift R' to forward ; R' ; backward, a side at a time.
        cols = found[0]
        if src_maps is not None:
            cols = _compose_columns(src_maps[1], cols)
        if tgt_maps is not None:
            cols = _compose_columns(cols, tgt_maps[2])
        _check_solutions(g, h, [cols], weak, fulldom)
        return [cols], (), (), True, None
    if not complete:
        return [], (), (), False, None
    if src_maps is not None:
        _check_solutions(gc, g, [src_maps[2]], False, True, "solve: R-core backward map")
    if tgt_maps is not None:
        _check_solutions(h, hc, [tgt_maps[1]], False, True, "solve: R-core forward map")
    if cert.kind != "exhausted":
        cert = Certificate(
            "rcore",
            f"on the R-cores, of {gc.n} and {hc.n} vertices: {cert.detail}",
            (
                ("rule", cert.kind),
                ("source_vertices", g.n),
                ("target_vertices", h.n),
                ("source_core_vertices", gc.n),
                ("target_core_vertices", hc.n),
            )
            + cert.values,
        )
    return [], (), (), True, cert


def relation_exists(
    g: Graph, h: Graph, *, weak: bool = False, full_domain: bool = False
) -> bool:
    """Decision form used by the oracle searches: certify, then search, no budget.

    Capped at SOLVER_VERTEX_CAP vertices per side, on the inputs, and a
    True answer rests on a re-checked solution. Unlike ``solve`` it
    deliberately does not reduce to R-cores: ``rcore_oracle`` and the
    tests use it as an oracle independent of the deletion algorithm.
    """
    return next(_solutions(g, h, weak, full_domain, certified=True), None) is not None


def search_with_pinned_columns(
    src: Graph,
    tgt: Graph,
    required: list[int],
    *,
    weak: bool = False,
    full_domain: bool = False,
    universe: list[int] | None = None,
):
    """The first solution whose column b contains the mask ``required[b]``
    and stays inside ``universe[b]``, as a re-checked Relation, or None.

    Exposed for the coretraction oracle; it runs no certificate.
    """
    cols = next(
        _solutions(
            src, tgt, weak, full_domain,
            certified=False, required=required, universe=universe,
        ),
        None,
    )
    return None if cols is None else Relation._of_columns(src.n, tgt.n, cols)


def subgraph_reduce(
    g: Graph,
    h: Graph,
    source_pins: frozenset[int] | set[int],
    target_pins: frozenset[int] | set[int],
    partial: Relation,
) -> tuple[Graph, Graph]:
    """Strip pinned vertices and their closed neighborhoods from both sides.

    ``partial`` must relate the pinned source set onto the pinned target
    set with full domain there, and must already solve the pinned
    subinstance exactly. Any solution of the returned residual instance,
    extended by ``partial``, solves the original (the residual graphs carry
    original vertex ids in their labels). The target residual must not
    contain isolated vertices.
    """
    s = sorted(set(source_pins))
    d = sorted(set(target_pins))
    if any(v < 0 or v >= g.n for v in s) or any(v < 0 or v >= h.n for v in d):
        raise PreconditionViolatedError("pinned vertices out of range")
    if partial.domain_size != g.n or partial.image_size != h.n:
        raise PreconditionViolatedError("partial relation universes must match the instance")
    s_mask = sum(1 << x for x in s)
    d_mask = sum(1 << b for b in d)
    covered = hit = 0
    for b, col in enumerate(partial.columns):
        covered |= col
        hit |= bool(col) << b
    if covered & ~s_mask or hit & ~d_mask:
        raise PreconditionViolatedError("partial relation must stay within the pinned sets")
    if s_mask & ~covered:
        raise PreconditionViolatedError("partial relation needs full domain on the pinned set")
    if d_mask & ~hit:
        raise PreconditionViolatedError("partial relation must cover the pinned target set")
    s_index = {v: i for i, v in enumerate(s)}
    d_index = {v: i for i, v in enumerate(d)}
    dense = Relation(len(s), len(d), [(s_index[x], d_index[b]) for x, b in partial.pairs])
    if apply_strong(induced_subgraph(g, s), dense) != induced_subgraph(h, d):
        raise PreconditionViolatedError("partial relation does not solve the pinned subinstance")

    removed_g: set[int] = set()
    for x in s:
        removed_g |= set(g.closed_neighbors(x))
    removed_h: set[int] = set()
    for b in d:
        removed_h |= set(h.closed_neighbors(b))
    g_res = induced_subgraph(g, set(range(g.n)) - removed_g)
    h_res = induced_subgraph(h, set(range(h.n)) - removed_h)
    if h_res.isolated_vertices():
        raise PreconditionViolatedError("target residual contains an isolated vertex")
    return g_res, h_res


def reduce_hom_to_fulrel(g: Graph, h: Graph) -> Graph:
    """Disjoint union instance: a homomorphism from g to h exists iff the
    union has a full-domain relation onto h."""
    return disjoint_union(g, h)


def reduce_fulrel_to_shom(g: Graph, h: Graph) -> Graph:
    """Blow up every source vertex into |V_target| mutually twin copies.

    A full-domain relation from g onto h exists iff the blow-up admits a
    surjective homomorphism onto h.
    """
    copies = h.n
    edges = []
    for u, v in g.edges:
        for c in range(copies):
            for e in range(copies):
                edges.append((u * copies + c, v * copies + e))
    return graph_from_edges(g.n * copies, edges)
