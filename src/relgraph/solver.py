"""Exhaustive solver for graph-relation equations, with no-instance certificates.

The search assigns one pre-image set per target vertex (a "column"),
pruning as soon as a pair of assigned columns generates an edge pattern
that disagrees with the target. One search covers the whole target: a
column must avoid the neighbourhood of every assigned column it is not
adjacent to, which also keeps the source domains of different target
components apart. Solutions stay column masks until ``solve`` returns
them as relations; the CLI writes them from their canonical sort keys.
Structural invariants (component counts, chromatic numbers, distances,
path and complete-graph characterizations) serve both as no-instance
certificates and as search accelerators; they are only ever applied under
the hypotheses that make them sound, so a certificate is always confirmed
by exhaustive search.
"""

from __future__ import annotations

import time
from functools import lru_cache, reduce
from itertools import chain, compress
from operator import and_, or_

from .core import (
    CapExceededError,
    Graph,
    LoopsNotAllowedError,
    Record,
    Relation,
    SOLVER_VERTEX_CAP,
    WitnessCheckError,
    _bits,
    _compose_columns,
    _rcore_maps,
    _reduced_rows,
    _sweep,
    chromatic_number,
    complement,
    components,
    diameter,
    disjoint_union,
    induced_subgraph,
    is_complete,
    path_length_of,
    radius,
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

    A child that the column search's forward check cuts costs its column's
    whole base set, which is what visiting it would cost at least.

    ``spend(count)`` charges ``count`` units at once: the node budget runs
    out as soon as fewer than zero units are left, and the deadline is
    checked whenever the running count crosses a multiple of 256. It
    returns the fewest units whose charge could raise or read the clock:
    ``nodes_left + 1`` under a node budget, the units left to the next
    multiple of 256 under a deadline, the smaller of the two under both;
    an unlimited budget is never charged. Charges held back below that
    number and then passed in one call run out the budget and read the
    clock where one call per charge would. Only ``_ticks`` after the node
    budget ran out can differ, because ``spend`` raises before it counts
    the units of the call that overdrew.
    """

    __slots__ = ("nodes_left", "deadline", "_ticks", "unlimited")

    def __init__(self, node_budget: int | None, time_budget: float | None):
        self.nodes_left = node_budget
        self.deadline = (
            time.monotonic() + time_budget if time_budget is not None else None
        )
        self._ticks = 0
        self.unlimited = node_budget is None and time_budget is None

    def spend(self, count: int) -> int:
        left = self.nodes_left
        if left is not None:
            left = self.nodes_left = left - count
            if left < 0:
                raise BudgetExhaustedError("node budget exhausted")
        before = self._ticks
        ticks = self._ticks = before + count
        if self.deadline is None:
            return left + 1
        if before >> 8 != ticks >> 8 and time.monotonic() > self.deadline:
            raise BudgetExhaustedError("time budget exhausted")
        step = 256 - (ticks & 255)
        return step if left is None or left >= step else left + 1


_NO_BUDGET = _Budget(None, None)


def _check_cap(g: Graph, h: Graph) -> None:
    if max(g.n, h.n) > SOLVER_VERTEX_CAP:
        raise CapExceededError(f"solver instances are capped at {SOLVER_VERTEX_CAP} vertices")


def _unions(rows: list[int]) -> list[int]:
    """For every subset mask of ``rows``' indices, the union of its rows."""
    table = [0]
    for row in rows:
        table += [t | row for t in table]
    return table


@lru_cache(maxsize=SOLVER_VERTEX_CAP + 1)
def _containing(n: int) -> tuple[int, ...]:
    """For each source vertex x < n, the set of the masks below 2^n that
    contain x, as the integer with bit ``mask`` set for each. Each doubles
    the one for n - 1; vertex n - 1 is in the upper half of the masks."""
    if n == 0:
        return ()
    half = 1 << n - 1
    return tuple(has | has << half for has in _containing(n - 1)) + ((1 << half) - 1 << half,)


def _column_order(tgt: Graph) -> list[int]:
    """The target vertices in the order ``_search_columns`` fills their
    columns: first those whose adjacency row no other vertex shares, fewest
    neighbours first, then the false twins, most neighbours first, then
    the isolated vertices."""
    rows = tgt.adjacency
    twins = [rows.count(row) > 1 for row in rows]
    keys = [(not row, t, -row.bit_count() if t else row.bit_count()) for row, t in zip(rows, twins)]
    return sorted(range(tgt.n), key=keys.__getitem__)


def _search_columns(
    src: Graph,
    tgt: Graph,
    *,
    weak: bool = False,
    full_domain: bool = False,
    required: list[int] | None = None,
    universe: list[int] | None = None,
    budget: _Budget = _NO_BUDGET,
):
    """Yield solutions as tuples of pre-image masks indexed by target vertex.

    ``required``/``universe`` give per-target-vertex masks that each column
    must contain / stay inside. The target may be disconnected: columns of
    different components are non-adjacent, so each avoids the others'
    neighbourhoods.

    Candidate sets are bit-parallel, as in San Segundo, Rodriguez-Losada
    and Jimenez, "An exact bit-parallel algorithm for the maximum clique
    problem" (2011): one integer with bit ``mask`` set for each member. A
    column's base set holds the nonempty masks that keep its pins and, in
    strong mode, its loop requirement. A node receives ``sets``, the
    candidate sets of its own column and of every later one, and, in
    full-domain mode, ANDs its own with the masks that leave every source
    vertex coverable; it walks the rest ascending. The choice of a mask is
    forward-checked, as in Haralick and Elliott, "Increasing tree search
    efficiency for constraint satisfaction problems" (1980): each later set
    keeps the masks that meet the chosen mask's neighbourhood if its column
    is adjacent to this one, and those that avoid it otherwise. A child
    with an empty later set has no solution below it and is cut.

    The columns are filled in ``_column_order``, fewest target neighbours
    first: the forward check's "avoid" filter removes far more masks than
    its "meet" filter, so a column with many non-neighbours prunes the
    most later sets. Target vertices that share an adjacency row (false
    twins) go last: they are interchangeable, and filled first they
    multiply every later column's work by their choices (the leaves of
    K1,4 first made K1,4 -> K1,4 in full domain 2.5 times slower). Among
    them the most neighbours go first (ascending, a weak full-domain query
    onto K2,3, all twins, took 577,092 budget units in place of 65,804).
    Isolated target vertices go after them: their columns only have to
    avoid the others' neighbourhoods, which the forward check of each
    other column's choice applies to them too (the isolated vertices of
    K2 + 3K1 first made E5 -> K2 + 3K1 in full domain take 0.8 s in place
    of 0.1 ms). The order decides only the order of the solutions, never
    their set.

    Each mask of the base set costs one budget unit, kept or not: a kept
    mask is charged up to its position in the base set before the search
    goes on from it, the rest when the node ends. A cut child is charged
    its column's whole base set, which is what visiting it would cost at
    least. The units are passed to ``budget.spend`` only when they reach
    the number it last returned, and before every yield and when the
    search ends. So the budget runs out, and reads the clock, before the
    same yield as with one call per charge, and ``nodes_left`` is exact
    whenever the search is suspended or done.
    """
    n, m = src.n, tgt.n
    full = (1 << n) - 1
    if m == 0:
        if not (full_domain and n > 0):
            yield ()
        return
    if n == 0:
        return
    tadj, sadj = tgt.adjacency, src.adjacency
    order = _column_order(tgt)
    slot = sorted(range(m), key=order.__getitem__)
    has = _containing(n)

    # The masks meeting a source-vertex set, per set, for this call. It
    # stores at most 2^22 >> n sets of 2^n bits, 512 KiB in all: every set
    # it sees for n <= 11.
    memo: dict[int, int] = {}
    room = 1 << 22 >> n

    def meeting(vertices: int) -> int:
        met = memo.get(vertices)
        if met is None:
            met, rest = 0, vertices
            while rest:
                low = rest & -rest
                met |= has[low.bit_length() - 1]
                rest ^= low
            if len(memo) < room:
                memo[vertices] = met
        return met

    # A mask's neighbourhood is the union of two table rows, one per half of
    # its bits: 2^(n // 2) + 2^(n - n // 2) rows instead of 2^n.
    half = n // 2
    low_half = (1 << half) - 1
    low_nbr, high_nbr = _unions(sadj[:half]), _unions(sadj[half:])
    # A strong column is loopless iff its mask holds no edge (x, y), y >= x,
    # of src; ``dep`` holds the masks that do.
    dep = 0
    for x, row in enumerate(() if weak else sadj):
        row >>= x
        while row:
            low = row & -row
            dep |= has[x] & has[x + low.bit_length() - 1]
            row ^= low
    # The nonempty masks, per loop kind: looped, then loopless.
    kinds = (2 << full) - 2
    kinds = (kinds, kinds) if weak else (kinds & dep, kinds & ~dep)
    bases = [kinds[not tadj[b] >> b & 1] for b in order]
    for i, b in enumerate(order if required or universe else ()):
        for x in range(n):
            if required and required[b] >> x & 1:
                bases[i] &= has[x]
            if universe and not universe[b] >> x & 1:
                bases[i] &= ~has[x]
    if not all(bases):
        return
    # A node's units: its base set. A cut child costs the same.
    size = [base.bit_count() for base in bases]
    # For each position, whether each later column is adjacent to its own.
    ahead = [[tadj[order[i]] >> c & 1 for c in order[i + 1:]] for i in range(m)]

    # Full-domain pruning rests on one rule: a vertex next to column j's
    # contents may only sit in columns adjacent to j. ``avail[p]`` holds the
    # source vertices that may still join the column at position p; in
    # strong mode a looped vertex never joins a loopless column.
    # ``spare[v]``: the masks that hold v or avoid N(v).
    avail = []
    if full_domain:
        looped = 0 if weak else sum(1 << x for x in src.loop_vertices())
        for b in order:
            uni = universe[b] if universe is not None else full
            avail.append(uni if tadj[b] >> b & 1 else uni & ~looped)
        spare = [has[v] | ~meeting(sadj[v]) for v in range(n)]

    chosen = [0] * m
    last = m - 1
    limited = not budget.unlimited
    spend = budget.spend
    # Units charged but not yet spent, and the count at which they must be.
    held = 0
    limit = spend(0) if limited else None

    def dfs(i: int, covered: int, sets: list[int]):
        nonlocal held, limit
        base = bases[i]
        keep = sets[0]
        later = sets[1:]
        flags = ahead[i]
        if full_domain:
            # What the later columns may take: those adjacent to this one
            # (``near``) keep it, the rest (``far``) lose a mask's neighbours.
            near = far = 0
            far_pos = []
            for p, adjacent in enumerate(flags, i + 1):
                if adjacent:
                    near |= avail[p]
                else:
                    far |= avail[p]
                    far_pos.append(p)
            rest = full & ~(covered | near)
            while rest and keep:
                low = rest & -rest
                rest ^= low
                keep &= spare[low.bit_length() - 1] if far & low else has[low.bit_length() - 1]
        charged = 0
        while keep:
            low = keep & -keep
            keep ^= low
            mask = low.bit_length() - 1
            if limited:
                k = (base & ((low << 1) - 1)).bit_count()
                held += k - charged
                charged = k
                # A solution is yielded with every unit spent.
                if held >= limit or i == last:
                    limit = spend(held)
                    held = 0
            chosen[i] = mask
            if i == last:
                yield tuple(map(chosen.__getitem__, slot))
                continue
            nb = low_nbr[mask & low_half] | high_nbr[mask >> half]
            met = memo.get(nb) or meeting(nb)
            # Forward check: narrow every later set, and stop at an empty one.
            narrowed = []
            for s, adjacent in zip(later, flags):
                s = s & met if adjacent else s & ~met
                if not s:
                    break
                narrowed.append(s)
            else:
                if full_domain:
                    saved = avail[i + 1:]
                    for p in far_pos:
                        avail[p] &= ~nb
                    yield from dfs(i + 1, covered | mask, narrowed)
                    avail[i + 1:] = saved
                else:
                    yield from dfs(i + 1, covered | mask, narrowed)
                continue
            if limited:
                held += size[i + 1]
                if held >= limit:
                    limit = spend(held)
                    held = 0
        if limited:
            held += size[i] - charged
            if held >= limit:
                limit = spend(held)
                held = 0

    yield from dfs(0, 0, bases)
    if held:
        spend(held)


def _canonical_keys(n: int, m: int, found: list[tuple[int, ...]]) -> list:
    """Each column-mask solution's key in the canonical order.

    The canonical order compares solutions by their sorted pair lists.
    Pair (x, b) is numbered x*m + b, which orders pairs as tuples do, so
    the sorted numbers compare as the sorted pair lists. Under the vertex
    cap every number is below 256 and the key is the ``bytes`` of the
    sorted numbers, which compare as the lists do, a prefix first. A
    solution lifted from R-cores can have ``n*m > 256``; its key is the
    list. Each column's numbers are listed once per distinct mask.
    """
    wide = n * m > 256
    memos: list[dict[int, list[int]]] = [{} for _ in range(m)]
    keys = []
    for cols in found:
        nums: list[int] = []
        for b, mask in enumerate(cols):
            memo = memos[b]
            numbered = memo.get(mask)
            if numbered is None:
                numbered = memo[mask] = [x * m + b for x in _bits(mask)]
            nums += numbered
        nums.sort()
        keys.append(nums if wide else bytes(nums))
    return keys


def _canonical_order(
    n: int, m: int, found: list[tuple[int, ...]]
) -> tuple[list[tuple[int, ...]], list]:
    """``found`` in the canonical order, with the keys of ``_canonical_keys``
    in the same order. Each key is computed once."""
    keys = _canonical_keys(n, m, found)
    if len(found) < 2:
        return found, keys
    order = sorted(range(len(found)), key=keys.__getitem__)
    return list(map(found.__getitem__, order)), list(map(keys.__getitem__, order))


class Certificate(Record):
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
    for mask in comp._components:
        if any(comp.adjacency[v] | 1 << v != mask for v in _bits(mask)):
            return None
    return components(comp)


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
    if weak and k == 1 and any(h.adjacency):
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


# Each no-instance rule takes (g, h, weak, full), ``full`` for a full-domain
# query, and returns its Certificate when its hypotheses hold and the
# invariant it cites fails, else None.


def _components_rule(g: Graph, h: Graph, weak: bool, full: bool) -> Certificate | None:
    if not full or 0 in g.adjacency or 0 in h.adjacency:
        return None
    # A source with a vertex has a component: as many as a connected target.
    b0h = len(h._components)
    b0g = len(g._components) if b0h > 1 or not g.n else 1
    if b0g >= b0h:
        return None
    return Certificate(
        "components",
        f"source has {b0g} connected components but target has {b0h}; "
        "a full-domain composition cannot increase the count",
        (("source_components", b0g), ("target_components", b0h)),
    )


def _chromatic_rule(g: Graph, h: Graph, weak: bool, full: bool) -> Certificate | None:
    if weak or not full or not (g.is_simple and h.is_simple):
        return None
    cg, ch = chromatic_number(g), chromatic_number(h)
    if cg <= ch:
        return None
    return Certificate(
        "chromatic",
        f"chromatic number {cg} of the source exceeds {ch} of the target; "
        "a full-domain composition cannot lower it",
        (("source_chromatic", cg), ("target_chromatic", ch)),
    )


def _distance_rule(g: Graph, h: Graph, weak: bool, full: bool) -> Certificate | None:
    # A disconnected source has diameter inf, which no target exceeds. No
    # target of diameter 2 or less exceeds a source's of 2 or more, so the
    # source's sweeps run only for a target of diameter over 2.
    if not full:
        return None
    dh = diameter(h)
    dg = diameter(g) if dh > 2 else 2
    if dg < 2 or dh <= dg:
        return None
    return Certificate(
        "distance",
        f"target diameter {dh} exceeds source diameter {dg}",
        (("source_diameter", dg), ("target_diameter", str(dh))),
    )


def _radius_rule(g: Graph, h: Graph, weak: bool, full: bool) -> Certificate | None:
    # A disconnected source has radius inf, which no target exceeds; nor
    # does a target's radius of 2 or less, whatever the source's.
    if not full or g.n < 2:
        return None
    rh = radius(h)
    bound = max(radius(g), 2) if rh > 2 else 2
    if rh <= bound:
        return None
    return Certificate(
        "radius",
        f"target radius {rh} exceeds max(source radius, 2) = {bound}",
        (("target_radius", str(rh)), ("bound", str(bound))),
    )


def _path_rule(g: Graph, h: Graph, weak: bool, full: bool) -> Certificate | None:
    if weak or not full:
        return None
    # Only a target path of length 3 or more certifies (length 1 takes onto 2).
    l = path_length_of(h)
    k = path_length_of(g) if l is not None and l >= 3 else None
    if k is None or k < 1 or k >= l:
        return None
    return Certificate(
        "pathChar",
        f"no relation takes a path of length {k} onto a path of length {l}",
        (("source_length", k), ("target_length", l)),
    )


def _complete_rule(g: Graph, h: Graph, weak: bool, full: bool) -> Certificate | None:
    if g.n < 1 or not is_complete(g) or not h.is_simple:
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

    Unlike the solver, ``certify`` applies no vertex cap. Its chromatic
    rule computes both graphs' exact chromatic numbers by branch and
    bound, which is exponential in the worst case: on seeded random
    G(n, 0.5) sources onto K3, full domain, it took about 1.5 s at n = 50
    and 6.6 s at n = 60 (one pinned CPU of a 2-core VM, Python 3.11.7).
    """
    return _certify(g, h, mode == "weak", domain == "full")


def _certify(g: Graph, h: Graph, weak: bool, full: bool) -> Certificate | None:
    for rule in _RULES.values():
        cert = rule(g, h, weak, full)
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
    return rule is not None and rule(g, h, weak, domain == "full") is not None


class SolveQuery(Record):
    """One equation ``source * R = target`` and how to answer it.

    ``enumeration="exists"`` stops at the first solution. ``"all"``,
    ``"minimal"`` and ``"maximal"`` answer alike: every solution plus both
    antichains; the CLI picks what to print. ``query.__replace__(**changes)``
    (``copy.replace`` on Python 3.13+) copies a query with some fields
    changed and checks the copy again.
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
        # Written so that NaN, which compares false with everything, fails.
        if self.time_budget is not None and not self.time_budget > 0:
            raise ValueError("time budget must be positive")
        if self.mode == "weak" and not self.source.is_simple:
            raise LoopsNotAllowedError("weak mode requires a simple source graph")
        # An exists-query is capped on the pair its search runs on (see solve).
        if self.enumeration != "exists":
            _check_cap(self.source, self.target)

    def __replace__(self, **changes) -> SolveQuery:
        return SolveQuery(**dict(zip(self.__match_args__, self._fields()), **changes))


class SolutionSet(Record):
    """Solutions in canonical order plus inclusion-order structure.

    ``complete`` is False exactly when a budget cut the enumeration short;
    minimal/maximal index lists are only authoritative on complete full
    enumerations and are left empty for exists-queries.
    """

    solutions: tuple[Relation, ...]
    minimal_elements: tuple[int, ...]
    maximal_elements: tuple[int, ...]
    complete: bool


# (columns, keys, minimal, maximal, complete, certificate); see _solve_masks.
_Masks = tuple[
    list[tuple[int, ...]], list | None, tuple[int, ...], tuple[int, ...], bool, Certificate | None
]
# (count, ones, z, nz); see _solution_planes.
_Planes = tuple[int, int, list[list[int]], list[list[int]]]


def _solution_planes(g: Graph, m: int, found: list[tuple[int, ...]]) -> _Planes:
    """Bit-sliced planes of ``found``, solutions of ``g * R = h`` with m columns.

    ``z[b][x]`` has byte i equal to 1 when solution i's column b holds
    source vertex x, and 0 otherwise; ``nz[b][x]`` has it when x has a
    ``g``-neighbour in that column. ``ones`` has every byte below
    ``count = len(found)`` equal to 1. AND, OR and ``ones & ~p`` keep
    every byte 0 or 1, so one operation on planes tests all solutions at
    once. All masks are packed in one ``struct.pack`` as little-endian
    16-bit words, which hold the masks of the solver's vertex cap; each
    plane is then one ``bytes.translate`` of the bytes that hold its bit.
    The planes cost 2*n*m bytes per solution.
    """
    from struct import pack

    n, count = g.n, len(found)
    raw = pack(f"<{count * m}H", *chain.from_iterable(found))
    # Table x maps a byte to its bit x.
    tables = [(b"\0" * (1 << x) + b"\1" * (1 << x)) * (128 >> x) for x in range(min(n, 8))]
    z = []
    for b in range(m):
        halves = (raw[2 * b :: 2 * m], raw[2 * b + 1 :: 2 * m] if n > 8 else b"")
        z.append([
            int.from_bytes(halves[x >> 3].translate(tables[x & 7]), "little") for x in range(n)
        ])
    nz = [
        [reduce(or_, map(zb.__getitem__, _bits(row)), 0) for row in g.adjacency] for zb in z
    ]
    return count, int.from_bytes(b"\1" * count, "little"), z, nz


def _others(planes: list[int]) -> list[int]:
    """For each i, the OR of every plane but ``planes[i]``, from prefix and
    suffix ORs."""
    out, acc = [], 0
    for p in planes:
        out.append(acc)
        acc |= p
    acc = 0
    for i in range(len(planes) - 1, -1, -1):
        out[i] |= acc
        acc |= planes[i]
    return out


def _check_solutions(
    g: Graph,
    h: Graph,
    found: list[tuple[int, ...]],
    weak: bool,
    full: bool,
    what: str = "solve",
    planes: _Planes | None = None,
) -> None:
    """Re-check column-mask solutions against ``h``'s adjacency rows.

    Column b's neighbourhood in ``g`` must meet column c exactly when ``h``
    has the edge (b, c), loops aside in weak mode; every column must be
    non-empty, and under ``full`` every source vertex in some column. The
    route reads only the adjacency rows of ``g`` and ``h``, nothing of the
    search's tables or pruning. Both graphs are symmetric, so it tests the
    column pairs (b, c), c >= b (c > b in weak mode): for one solution, on
    its columns' neighbourhoods; for a batch, on its ``_solution_planes``
    (built here unless ``planes`` are given), all solutions at once, where
    the pair meets in the solutions ``OR_y z[b][y] & nz[c][y]``, which must
    be all of them or none. ``what`` names the relations in the
    ``WitnessCheckError``, which is raised, not asserted, so the check also
    runs under ``python -O``; its message is built only on failure.
    """
    tadj = h.adjacency
    if len(found) == 1:
        cols = found[0]
        if not all(cols):
            raise WitnessCheckError(f"{what}: a target vertex has no pre-image")
        for b, nb in enumerate(_compose_columns(g.adjacency, cols)):
            for c in range(b + weak, h.n):
                if (not nb & cols[c]) == tadj[b] >> c & 1:
                    raise WitnessCheckError(f"{what}: not a solution")
        if full and reduce(or_, cols, 0) != (1 << g.n) - 1:
            raise WitnessCheckError(f"{what}: full-domain solution misses a source vertex")
        return
    if not found:
        return
    _, ones, z, nz = planes or _solution_planes(g, h.n, found)
    for b, zb in enumerate(z):
        if reduce(or_, zb) != ones:
            raise WitnessCheckError(f"{what}: a target vertex has no pre-image")
        for c in range(b + weak, h.n):
            meet = reduce(or_, map(and_, zb, nz[c]))
            if meet != (ones if tadj[b] >> c & 1 else 0):
                raise WitnessCheckError(f"{what}: not a solution")
    if full and any(reduce(or_, zx) != ones for zx in zip(*z)):
        raise WitnessCheckError(f"{what}: full-domain solution misses a source vertex")


def _antichains(
    g: Graph, h: Graph, planes: _Planes, weak: bool, full: bool
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Minimal/maximal indices among the solutions of ``planes``.

    Sandwich closure makes the one-pair perturbation exact: a solution S
    strictly contains another iff S - (x, b) is a solution for some pair
    (x, b) of S, and dually S + (x, b) for maximality. Both tests are read
    off the equation, on the ``_solution_planes`` of all solutions at once:

    - S - (x, b) solves when column b keeps another member, every column
      c != b adjacent to b in ``h`` still meets its neighbourhood, a looped
      column b still meets its own (strong mode), and x stays in another
      column (full domain). "Another" is an OR over all but x (or all but
      b), from prefix and suffix ORs.
    - S + (x, b) solves when x has no neighbour in any column c != b that
      is not adjacent to b; in strong mode, when b has no loop, x also has
      none and no neighbour in column b.

    The answer equals "no solution strictly below/above" only when the
    planes hold every solution: ``_solve_masks`` calls this on complete
    enumerations alone.
    """
    count, ones, z, nz = planes
    n, m = g.n, h.n
    sadj, tadj = g.adjacency, h.adjacency
    elsewhere = [_others(zx) for zx in zip(*z)] if full else None
    below = above = 0
    for b, zb in enumerate(z):
        keep = _others(zb)
        for c in _bits(tadj[b] & ~(1 << b)):
            keep = list(map(and_, keep, _others(list(map(and_, zb, nz[c])))))
        looped = tadj[b] >> b & 1
        if looped and not weak:
            # y in column b with a neighbour there; with two of them.
            met = list(map(and_, zb, nz[b]))
            twice = []
            for y, row in enumerate(sadj):
                once = more = 0
                for p in map(zb.__getitem__, _bits(row)):
                    more |= once & p
                    once |= p
                twice.append(zb[y] & more)
            # A neighbour y of x must keep a neighbour other than x.
            keep = [
                k & reduce(or_, [(twice if sadj[x] >> y & 1 else met)[y]
                                 for y in range(n) if y != x], 0)
                for x, k in enumerate(keep)
            ]
        if full:
            keep = [k & other[b] for k, other in zip(keep, elsewhere)]
        below |= reduce(or_, map(and_, zb, keep), 0)

        strict = not (looped or weak)  # column b must stay loop-free
        apart = [nz[c] for c in _bits(~tadj[b] & ((1 << m) - 1) & ~(1 << b))]
        if strict:
            apart.append(nz[b])
        for x in range(n):
            if not (strict and sadj[x] >> x & 1):
                above |= ones & ~reduce(or_, [col[x] for col in apart], zb[x])
    minimal = tuple(compress(range(count), (ones & ~below).to_bytes(count, "little")))
    maximal = tuple(compress(range(count), (ones & ~above).to_bytes(count, "little")))
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


def _settled(
    g: Graph, h: Graph, weak: bool, full: bool, certified: bool
) -> Certificate | None:
    """The certificate that settles ``g * R = h`` without a search, else None.

    The one gate in front of every column search. A weak-mode target with
    loops has no solution at any size, since weak composition never yields
    a loop: its certificate is kind ``exhausted``. Any other pair is capped
    at SOLVER_VERTEX_CAP vertices a side, and then, when ``certified``,
    the no-instance rules run on it.
    """
    if weak and not h.is_simple:
        return Certificate(
            "exhausted",
            "weak composition always yields a loop-free graph; the target has loops",
        )
    _check_cap(g, h)
    return _certify(g, h, weak, full) if certified else None


def _solutions(
    g: Graph,
    h: Graph,
    weak: bool,
    full: bool,
    *,
    certified: bool,
    required: list[int] | None = None,
    universe: list[int] | None = None,
    budget: _Budget = _NO_BUDGET,
):
    """The lazy route of ``iter_solutions``, ``relation_exists`` and
    ``search_with_pinned_columns``: column masks in search order.

    Yields nothing for a query that ``_settled`` settles, and re-checks
    every solution before it is yielded. ``required``/``universe`` pin the
    columns as in ``_search_columns``.
    """
    if _settled(g, h, weak, full, certified) is not None:
        return
    for cols in _search_columns(
        g, h, weak=weak, full_domain=full,
        required=required, universe=universe, budget=budget,
    ):
        _check_solutions(g, h, [cols], weak, full)
        yield cols


def solve(
    query: SolveQuery, *, use_fast_paths: bool = True
) -> tuple[SolutionSet, Certificate | None]:
    """Enumerate or decide the query; attach a certificate to no-instances.

    The search is skipped only when a (sound) certificate already decides
    the instance. A search that exhausts its budget reports
    ``complete=False`` and no certificate.

    With the fast paths, an exists-query is decided on R-cores: the
    source's, and the target's in strong mode. ``G * R = H`` is solvable
    exactly when the cores' equation is, for either domain, because both
    witnesses of a core have full domain and full image and composition is
    associative. Weak mode keeps the target: a loop that weak composition
    drops on a reduced target would come back as edges among the target
    vertices it stands for. The cores are capped at SOLVER_VERTEX_CAP
    vertices instead of the inputs, a node budget counts the search on
    the cores, and a certificate found there comes back as kind ``rcore``
    when a core is smaller than its input. Every exists-query takes this
    one route, certify and then one column search with the whole budget:
    a graph that is its own R-core is searched as it is.
    """
    found, keys, minimal, maximal, complete, cert = _solve_masks(query, use_fast_paths)
    del keys  # not part of the result: freed before the Relations are built
    n, m = query.source.n, query.target.n
    rels = tuple(Relation._of_columns(n, m, cols) for cols in found)
    return SolutionSet(rels, minimal, maximal, complete), cert


def _solve_masks(query: SolveQuery, use_fast_paths: bool = True) -> _Masks:
    """``solve`` with the solutions left as column masks.

    Returns ``(columns, keys, minimal, maximal, complete, certificate)``:
    the re-checked solutions in canonical order, each a tuple of pre-image
    masks indexed by target vertex; each one's ``_canonical_keys`` entry,
    its sorted pair numbers ``x*m + b``, when there are at least two
    solutions to sort, else None; and the rest as in ``solve``. Two or
    more solutions are keyed once, sorted by their keys, and laid out once
    as ``_solution_planes``, which both the re-check and, on a complete
    enumeration, the antichains read; one solution is re-checked alone.
    """
    g, h = query.source, query.target
    weak, full = query.mode == "weak", query.domain == "full"
    budget = _Budget(query.node_budget, query.time_budget)
    exists = query.enumeration == "exists"
    if use_fast_paths and exists:
        found, complete, cert = _solve_on_cores(g, h, weak, full, budget)
    else:
        found, complete, cert = _search(g, h, weak, full, exists, use_fast_paths, budget)
    keys = planes = None
    if len(found) > 1:
        found, keys = _canonical_order(g.n, h.n, found)
        planes = _solution_planes(g, h.n, found)
    _check_solutions(g, h, found, weak, full, planes=planes)
    minimal = maximal = ()
    if complete and found and not exists:
        minimal, maximal = _antichains(g, h, planes, weak, full) if planes else ((0,), (0,))
    return found, keys, minimal, maximal, complete, cert


def _search(
    g: Graph,
    h: Graph,
    weak: bool,
    full: bool,
    exists: bool,
    certified: bool,
    budget: _Budget,
) -> tuple[list[tuple[int, ...]], bool, Certificate | None]:
    """``_settled``, then the column search of ``g * R = h``.

    Returns the solutions as unchecked column masks, only the first when
    ``exists``, whether the search completed within ``budget``, and the
    certificate of a no-instance.
    """
    cert = _settled(g, h, weak, full, certified)
    if cert is not None:
        return [], True, cert

    found: list[tuple[int, ...]] = []
    complete = True
    try:
        for colmasks in _search_columns(g, h, weak=weak, full_domain=full, budget=budget):
            found.append(colmasks)
            if exists:
                break
    except BudgetExhaustedError:
        complete = False

    cert = None
    if complete and not found:
        # Where the rules did not run first, they name what the search proved.
        cert = _settled(g, h, weak, full, not certified) or Certificate(
            "exhausted",
            "exhaustive search found no solution and no structural "
            "invariant explains the failure",
        )
    return found, complete, cert


def _reduce(g: Graph):
    """The graph to search in place of ``g``, with its ``_rcore_maps``.

    ``g`` itself and None when its R-core keeps every vertex: then the
    sweep deleted nothing and there is at most one isolated vertex, and no
    map or graph is built.
    """
    survivors, trace = _sweep(g, rcore=True)
    if not trace and g.n - survivors.bit_count() <= 1:
        return g, None
    maps = _rcore_maps(g, survivors, trace)
    return Graph._of_rows(_reduced_rows(g.adjacency, maps[0])), maps


def _solve_on_cores(
    g: Graph, h: Graph, weak: bool, full: bool, budget: _Budget
) -> tuple[list[tuple[int, ...]], bool, Certificate | None]:
    """Decide the exists-query ``g * R = h`` on R-cores and lift the answer.

    The route of every exists-query on the fast paths. The source is
    reduced by ``_reduce``, and so is the target in strong mode; a side
    whose R-core is itself has None for maps and is searched as it is.
    Returns what ``_search`` returns, for the inputs. A core solution R'
    lifts to forward ; R' ; backward, which ``_solve_masks`` re-checks on
    the inputs. A negative answer rests on the reductions: a solution R of
    the inputs gives the solution backward ; R ; forward of the cores. So
    the source's backward map and the target's forward map are re-checked
    here before a negative answer is returned, and its certificate comes
    back as kind ``rcore`` when a side shrank.
    """
    gc, src_maps = _reduce(g)
    hc, tgt_maps = (h, None) if weak else _reduce(h)
    found, complete, cert = _search(gc, hc, weak, full, True, True, budget)
    if found:
        # Lift R' to forward ; R' ; backward, a side at a time.
        cols = found[0]
        if src_maps is not None:
            cols = _compose_columns(src_maps[1], cols)
        if tgt_maps is not None:
            cols = _compose_columns(cols, tgt_maps[2])
        return [cols], True, None
    if not complete:
        return [], False, None
    if src_maps is not None:
        _check_solutions(gc, g, [src_maps[2]], False, True, "solve: R-core backward map")
    if tgt_maps is not None:
        _check_solutions(h, hc, [tgt_maps[1]], False, True, "solve: R-core forward map")
    if cert.kind != "exhausted" and (src_maps is not None or tgt_maps is not None):
        sizes = (("source_vertices", g.n), ("target_vertices", h.n),
                 ("source_core_vertices", gc.n), ("target_core_vertices", hc.n))
        cert = Certificate("rcore", f"on the R-cores, of {gc.n} and {hc.n} vertices: {cert.detail}",
                           (("rule", cert.kind),) + sizes + cert.values)
    return [], True, cert


def relation_exists(
    g: Graph, h: Graph, *, weak: bool = False, full_domain: bool = False
) -> bool:
    """Decision form used by the oracle searches: certify, then search, no budget.

    Settled first as every query is (``_settled``): False for a weak-mode
    target with loops, else capped at SOLVER_VERTEX_CAP vertices per side,
    on the inputs. A True answer rests on a re-checked solution. Unlike
    ``solve`` it deliberately does not reduce to R-cores: ``rcore_oracle``
    and the tests use it as an oracle independent of the deletion
    algorithm.
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

    Exposed for the coretraction oracle; it runs no certificate, but is
    settled and capped as ``relation_exists`` is.
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
    from .algebra import apply_strong

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
    block = (1 << copies) - 1
    rows = [sum(block << v * copies for v in _bits(row)) for row in g.adjacency]
    return Graph._of_rows([row for row in rows for _ in range(copies)])
