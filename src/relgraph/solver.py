"""Exhaustive solver for graph-relation equations, with no-instance certificates.

The search assigns one pre-image set per target vertex (a "column"),
pruning as soon as a pair of assigned columns generates an edge pattern
that disagrees with the target. One search covers the whole target: a
column must avoid the neighbourhood of every assigned column it is not
adjacent to, which also keeps the source domains of different target
components apart. Solutions stay column masks until ``solve`` returns
them as relations. Structural invariants (component counts, chromatic numbers,
distances, path and complete-graph characterizations) serve both as
no-instance certificates and as search accelerators; they are only ever
applied under the hypotheses that make them sound, so a certificate is
always confirmed by exhaustive search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .algebra import apply_strong, apply_weak
from .core import (
    CapExceededError,
    Graph,
    LoopsNotAllowedError,
    Relation,
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

SOLVER_VERTEX_CAP = 16

# certify() is called once per candidate inside the oracle scans, so the
# underlying invariants are memoized on the (hashable) graph values.
_chromatic = lru_cache(maxsize=65536)(chromatic_number)
_component_count = lru_cache(maxsize=65536)(lambda g: len(components(g)))
_diameter = lru_cache(maxsize=65536)(diameter)
_radius = lru_cache(maxsize=65536)(radius)


class BudgetExhaustedError(RuntimeError):
    """Raised internally when a search exceeds its node or time budget."""


class PreconditionViolatedError(ValueError):
    """A reduction was invoked outside its stated hypotheses."""


class _Budget:
    """Node/time budget of one search; ``spend`` is called once per candidate."""

    __slots__ = ("nodes_left", "deadline", "_ticks", "unlimited")

    def __init__(self, node_budget: int | None, time_budget: float | None):
        self.nodes_left = node_budget
        self.deadline = (
            time.monotonic() + time_budget if time_budget is not None else None
        )
        self._ticks = 0
        self.unlimited = node_budget is None and time_budget is None

    def spend(self) -> None:
        if self.nodes_left is not None:
            self.nodes_left -= 1
            if self.nodes_left < 0:
                raise BudgetExhaustedError("node budget exhausted")
        self._ticks += 1
        if self.deadline is not None and self._ticks % 256 == 0:
            if time.monotonic() > self.deadline:
                raise BudgetExhaustedError("time budget exhausted")


_NO_BUDGET = _Budget(None, None)


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
    """
    n, m = src.n, tgt.n
    full = (1 << n) - 1
    if m == 0:
        if not (full_domain and n > 0):
            yield ()
        return
    if n == 0:
        return
    sadj = src.adjacency
    tadj = tgt.adjacency
    order = sorted(range(m), key=lambda b: (-tgt.degree(b), b))
    pos_of = {b: i for i, b in enumerate(order)}

    cand: list[list[int]] = []
    for b in order:
        req = required[b] if required is not None else 0
        uni = universe[b] if universe is not None else full
        want_loop = bool(tadj[b] >> b & 1)
        opts = []
        for mask in range(1, full + 1):
            if mask & ~uni or (mask & req) != req:
                continue
            if not weak and bool(nbr[mask] & mask) != want_loop:
                continue
            opts.append(mask)
        if not opts:
            return
        cand.append(opts)

    # Position mask of target vertices adjacent to b: when a source vertex
    # becomes adjacent to column b's contents, it may only appear in those.
    tpos_adj = [0] * m
    for b in range(m):
        acc = 0
        for c in range(m):
            if tadj[b] >> c & 1:
                acc |= 1 << pos_of[c]
        tpos_adj[b] = acc

    colopts = [0] * n
    if full_domain:
        for x in range(n):
            acc = 0
            loopy = bool(sadj[x] >> x & 1)
            for i, b in enumerate(order):
                if universe is not None and not (universe[b] >> x & 1):
                    continue
                if not weak and loopy and not (tadj[b] >> b & 1):
                    continue
                acc |= 1 << i
            colopts[x] = acc

    chosen = [0] * m
    all_pos = (1 << m) - 1
    limited = not budget.unlimited
    spend = budget.spend

    def dfs(i: int, covered: int):
        if i == m:
            if full_domain and covered != full:
                return
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
        remaining = all_pos >> (i + 1) << (i + 1)
        for mask in cand[i]:
            if limited:
                spend()
            if mask & forbidden:
                continue
            ok = True
            for h in need_hit:
                if not mask & h:
                    ok = False
                    break
            if not ok:
                continue
            chosen[i] = mask
            if full_domain:
                undo = []
                tmask = tpos_adj[b]
                dead = False
                for x in range(n):
                    if sadj[x] & mask and colopts[x] & ~tmask:
                        undo.append((x, colopts[x]))
                        colopts[x] &= tmask
                new_cov = covered | mask
                if new_cov != full:
                    for x in range(n):
                        if not (new_cov >> x & 1) and not (colopts[x] & remaining):
                            dead = True
                            break
                if not dead:
                    yield from dfs(i + 1, new_cov)
                for x, old in undo:
                    colopts[x] = old
            else:
                yield from dfs(i + 1, covered | mask)

    yield from dfs(0, 0)


@lru_cache(maxsize=1 << SOLVER_VERTEX_CAP)
def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _relation_of(colmasks: tuple[int, ...], n: int, m: int) -> Relation:
    return Relation(
        n, m, frozenset((x, b) for b, mask in enumerate(colmasks) for x in _bits(mask))
    )


def _canonical_key(m: int):
    """Sort key putting column-mask solutions in the canonical order.

    The canonical order compares solutions by their sorted pair lists.
    Pair (x, b) is numbered x*m + b, which orders pairs as tuples do, so
    the sorted numbers compare as the sorted pair lists.
    """

    def key(cols: tuple[int, ...]) -> list[int]:
        return sorted(x * m + b for b, mask in enumerate(cols) for x in _bits(mask))

    return key


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable reason a no-instance answer is correct."""

    kind: str  # components | chromatic | distance | radius | pathChar | completeChar | exhausted
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

    Strong form (unconstrained domain): the complement of the target must
    split into at most k disjoint complete graphs. Weak form: every
    complement component must be complete and at most k of them may have
    two or more vertices; a single-vertex source additionally forces an
    edgeless target since it cannot generate any edge.
    """
    if not h.is_simple:
        raise LoopsNotAllowedError("complete-source characterization needs simple target")
    if k < 1:
        raise ValueError("source must have at least one vertex")
    parts = _complement_clique_parts(h)
    if parts is None:
        return False
    if weak:
        if k == 1:
            return len(h.edges) == 0
        return sum(1 for p in parts if len(p) >= 2) <= k
    return len(parts) <= k


def complete_source_solution(
    k: int, h: Graph, *, weak: bool = False
) -> Relation | None:
    """A witness relation for a solvable complete-source instance, else None."""
    if not complete_source_decision(k, h, weak=weak):
        return None
    parts = sorted(_complement_clique_parts(h), key=lambda p: min(p) if p else -1)
    pairs: set[tuple[int, int]] = set()
    if weak:
        if k == 1:
            pairs = {(0, v) for v in range(h.n)}
        else:
            big = [p for p in parts if len(p) >= 2]
            for i, p in enumerate(big):
                pairs |= {(i, v) for v in p}
            singles = [v for p in parts if len(p) == 1 for v in p]
            pairs |= {(j, v) for j in range(k) for v in singles}
    else:
        for i, p in enumerate(parts):
            pairs |= {(i, v) for v in p}
    return Relation(k, h.n, frozenset(pairs))


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
        if complete_source_decision(g.n, h, weak=weak):
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
    """Re-check that the cited invariant genuinely fails on (g, h)."""
    if cert.kind == "exhausted":
        return True
    rule = _RULES.get(cert.kind)
    return rule is not None and rule(g, h, mode == "weak", domain) is not None


@dataclass(frozen=True)
class SolveQuery:
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
        if max(self.source.n, self.target.n) > SOLVER_VERTEX_CAP:
            raise CapExceededError(
                f"solver instances are capped at {SOLVER_VERTEX_CAP} vertices"
            )


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


def _check_solutions(
    g: Graph, h: Graph, found: list[tuple[int, ...]], weak: bool, fulldom: bool
) -> None:
    """Re-check column-mask solutions against ``h``'s adjacency rows.

    Each column's neighbourhood is the OR of its members' adjacency rows in
    ``g``, a route independent of the search's subset table and pruning.
    """
    sadj, tadj = g.adjacency, h.adjacency
    full = (1 << g.n) - 1
    for cols in found:
        check_witness(all(cols), "solve: a target vertex has no pre-image")
        covered = 0
        for b, mask in enumerate(cols):
            covered |= mask
            nb = 0
            for x in _bits(mask):
                nb |= sadj[x]
            row = 0
            for c, col in enumerate(cols):
                if nb & col:
                    row |= 1 << c
            if weak:
                row &= ~(1 << b)
            check_witness(row == tadj[b], "solve: solver produced a non-solution")
        check_witness(
            not fulldom or covered == full,
            "solve: full-domain solution misses a source vertex",
        )


def _antichains(
    g: Graph,
    h: Graph,
    nbr: list[int],
    weak: bool,
    fulldom: bool,
    col_list: list[tuple[int, ...]],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimal/maximal solution indices via one-step perturbation.

    Sandwich closure makes this exact: a solution strictly contains another
    iff dropping some single pair still solves, and dually for maximality.
    Changing one pair of column b changes only the edges at b, so only the
    m column pairs that involve b are re-checked.
    """
    tadj = h.adjacency
    full = (1 << g.n) - 1
    every = [1 << x for x in range(g.n)]

    def fits(cols: tuple[int, ...], b: int, mask: int) -> bool:
        """Whether ``cols`` still solves with column b replaced by ``mask``."""
        nb = nbr[mask]
        row = tadj[b]
        for c, col in enumerate(cols):
            if c == b:
                if weak:
                    continue
                col = mask
            if bool(nb & col) != bool(row >> c & 1):
                return False
        return True

    minimal, maximal = [], []
    for idx, cols in enumerate(col_list):
        is_min = True
        for b, mask in enumerate(cols):
            others = 0
            if fulldom:
                for c, col in enumerate(cols):
                    if c != b:
                        others |= col
            for x in _bits(mask):
                smaller = mask & ~(1 << x)
                if smaller and (not fulldom or others | smaller == full) and fits(
                    cols, b, smaller
                ):
                    is_min = False
                    break
            if not is_min:
                break
        if is_min:
            minimal.append(idx)
        is_max = True
        for b, mask in enumerate(cols):
            for bit in every:
                if not mask & bit and fits(cols, b, mask | bit):
                    is_max = False
                    break
            if not is_max:
                break
        if is_max:
            maximal.append(idx)
    return tuple(minimal), tuple(maximal)


def iter_solutions(query: SolveQuery, *, use_fast_paths: bool = True):
    """Lazily yield solutions of the query in search order (not sorted)."""
    g, h = query.source, query.target
    weak = query.mode == "weak"
    if weak and not h.is_simple:
        return
    if use_fast_paths and certify(g, h, query.mode, query.domain) is not None:
        return
    nbr = _subset_neighbors(g)
    budget = _Budget(query.node_budget, query.time_budget)
    for colmasks in _search_columns(
        g, h, nbr, weak=weak, full_domain=query.domain == "full", budget=budget
    ):
        yield _relation_of(colmasks, g.n, h.n)


def solve(
    query: SolveQuery, *, use_fast_paths: bool = True
) -> tuple[SolutionSet, Certificate | None]:
    """Enumerate or decide the query; attach a certificate to no-instances.

    The search is skipped only when a (sound) certificate or complete-graph
    characterization already decides the instance. A search that exhausts
    its budget reports ``complete=False`` and no certificate.
    """
    g, h = query.source, query.target
    weak = query.mode == "weak"
    fulldom = query.domain == "full"

    if weak and not h.is_simple:
        cert = Certificate(
            "exhausted",
            "weak composition always yields a loop-free graph; the target has loops",
        )
        return SolutionSet((), (), (), True), cert

    if use_fast_paths:
        cert = certify(g, h, query.mode, query.domain)
        if cert is not None:
            return SolutionSet((), (), (), True), cert
        if (
            query.enumeration == "exists"
            and query.domain == "any"
            and g.n >= 1
            and is_complete(g)
            and h.is_simple
        ):
            witness = complete_source_solution(g.n, h, weak=weak)
            if witness is not None:
                produced = apply_weak(g, witness) if weak else apply_strong(g, witness)
                check_witness(produced == h, "solve: complete-source witness")
                return SolutionSet((witness,), (), (), True), None

    nbr = _subset_neighbors(g)
    budget = _Budget(query.node_budget, query.time_budget)
    found: list[tuple[int, ...]] = []
    complete = True
    try:
        for colmasks in _search_columns(
            g, h, nbr, weak=weak, full_domain=fulldom, budget=budget
        ):
            found.append(colmasks)
            if query.enumeration == "exists":
                break
    except BudgetExhaustedError:
        complete = False

    found.sort(key=_canonical_key(h.n))
    _check_solutions(g, h, found, weak, fulldom)

    minimal: tuple[int, ...] = ()
    maximal: tuple[int, ...] = ()
    if complete and query.enumeration in ("all", "minimal", "maximal"):
        minimal, maximal = _antichains(g, h, nbr, weak, fulldom, found)

    cert_out = None
    if complete and not found:
        cert_out = certify(g, h, query.mode, query.domain) if not use_fast_paths else None
        if cert_out is None:
            cert_out = Certificate(
                "exhausted",
                "exhaustive search found no solution and no structural "
                "invariant explains the failure",
            )
    rels = tuple(_relation_of(cols, g.n, h.n) for cols in found)
    return SolutionSet(rels, minimal, maximal, complete), cert_out


@lru_cache(maxsize=65536)
def _hom_exists(g: Graph, h: Graph) -> bool:
    """Plain homomorphism existence by backtracking (desk scale)."""
    if g.n == 0:
        return True
    if h.n == 0:
        return False
    ga, ha = g.adjacency, h.adjacency
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    image = [-1] * g.n

    def place(i: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        for w in range(h.n):
            if ga[v] >> v & 1 and not ha[w] >> w & 1:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if ga[v] >> u & 1 and not ha[w] >> image[j] & 1:
                    ok = False
                    break
            if ok:
                image[i] = w
                if place(i + 1):
                    return True
        return False

    return place(0)


def relation_exists(
    g: Graph, h: Graph, *, weak: bool = False, full_domain: bool = False
) -> bool:
    """Decision form used by the oracle searches; no budget, fast rejects."""
    if weak and not h.is_simple:
        return False
    mode = "weak" if weak else "strong"
    domain = "full" if full_domain else "any"
    if certify(g, h, mode, domain) is not None:
        return False
    if full_domain and not weak and not _hom_exists(g, h):
        # a full-domain solution always contains a functional subrelation,
        # which is a homomorphism
        return False
    for _ in _search_columns(
        g, h, _subset_neighbors(g), weak=weak, full_domain=full_domain, budget=_NO_BUDGET
    ):
        return True
    return False


def search_with_pinned_columns(
    src: Graph,
    tgt: Graph,
    required: list[int],
    *,
    weak: bool = False,
    full_domain: bool = False,
    universe: list[int] | None = None,
    find_all: bool = False,
):
    """Solutions whose column b contains at least the mask ``required[b]``.

    Exposed for the retraction/coretraction searches; returns the first
    solution as a Relation (or None), or all of them when ``find_all``.
    """
    found = []
    for colmasks in _search_columns(
        src,
        tgt,
        _subset_neighbors(src),
        weak=weak,
        full_domain=full_domain,
        required=required,
        universe=universe,
        budget=_NO_BUDGET,
    ):
        if not find_all:
            return _relation_of(colmasks, src.n, tgt.n)
        found.append(colmasks)
    if not find_all:
        return None
    found.sort(key=_canonical_key(tgt.n))
    return [_relation_of(cols, src.n, tgt.n) for cols in found]


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
    if any(x not in set(s) or b not in set(d) for x, b in partial.pairs):
        raise PreconditionViolatedError("partial relation must stay within the pinned sets")
    if set(s) - partial.domain_set:
        raise PreconditionViolatedError("partial relation needs full domain on the pinned set")
    if set(d) - partial.image_set:
        raise PreconditionViolatedError("partial relation must cover the pinned target set")
    s_index = {v: i for i, v in enumerate(s)}
    d_index = {v: i for i, v in enumerate(d)}
    dense = Relation(
        len(s), len(d), frozenset((s_index[x], d_index[b]) for x, b in partial.pairs)
    )
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
