import collections
import gc
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import relgraph as rg
from relgraph import solver
from helpers import (
    blow_up,
    brute_hom_exists,
    brute_surjective_hom_exists,
    frozen_search_columns,
    matrix_composition,
    min_completing_budget,
    naive_solution_masks,
    random_graph,
    random_image_full_relation,
    reference_antichains,
    reference_certify,
    reference_search_columns,
    relation_to_mask,
)


def test_triangle_onto_edge_has_six_solutions():
    ss, cert = rg.solve(rg.SolveQuery(rg.cycle_graph(3), rg.complete_graph(2)))
    assert cert is None and ss.complete
    assert len(ss.solutions) == 6
    assert rg.relation_from_pairs(3, 2, [(0, 0), (1, 1)]) in ss.solutions
    # canonical ordering: sorted by pair set
    keys = [tuple(sorted(r.pairs)) for r in ss.solutions]
    assert keys == sorted(keys)


def test_canonical_keys_order_as_sorted_pair_lists():
    """On random column-mask families, the keys list each solution's pair
    numbers and order the family exactly as its sorted pair lists do:
    prefixes, pair 255 at n*m = 256, and list keys past it."""
    rng = random.Random(61)
    for trial in range(300):
        if trial % 10 == 0:
            n, m = 16, 16
        elif trial % 10 == 1:
            n, m = rng.randint(17, 40), rng.randint(7, 16)
        else:
            n, m = rng.randint(1, 16), rng.randint(0, 8)
        family = [
            tuple(rng.getrandbits(n) & rng.getrandbits(n) for _ in range(m))
            for _ in range(rng.randint(1, 30))
        ]
        # One pair list a prefix of another: add a pair above all of a member's.
        for cols in list(family):
            pairs = [(x, b) for b, mask in enumerate(cols) for x in range(n) if mask >> x & 1]
            top = max(pairs, default=(-1, m - 1))
            above = [(x, b) for x in range(n) for b in range(m) if (x, b) > top]
            if above:
                x, b = rng.choice(above)
                family.append(tuple(mask | (1 << x if c == b else 0) for c, mask in enumerate(cols)))
        if n * m == 256:
            family.append(tuple([0] * (m - 1) + [1 << 15]))  # pair number 255
        keys = solver._canonical_keys(n, m, family)
        pair_lists = [
            sorted((x, b) for b, mask in enumerate(cols) for x in range(n) if mask >> x & 1)
            for cols in family
        ]
        assert [list(k) for k in keys] == [[x * m + b for x, b in p] for p in pair_lists]
        assert all(isinstance(k, bytes if n * m <= 256 else list) for k in keys)
        for i in range(len(family)):
            for j in range(len(family)):
                assert (keys[i] < keys[j]) == (pair_lists[i] < pair_lists[j])
        ordered, ordered_keys = solver._canonical_order(n, m, family)
        assert ordered == sorted(family, key=lambda cols: pair_lists[family.index(cols)])
        assert ordered_keys == solver._canonical_keys(n, m, ordered)
    # A solution past 256 pair numbers prints through the CLI: see
    # test_cli_decides_exists_past_the_cap_on_rcores.


def _defects(g, h, cols, full) -> set[str]:
    """What is wrong with column masks ``cols`` as a solution of ``g * R = h``,
    by the matrix product."""
    found = set()
    if not all(cols):
        found.add("empty column")
    if full and len({x for mask in cols for x in range(g.n) if mask >> x & 1}) < g.n:
        found.add("domain missed")
    got = matrix_composition(g, rg.Relation._of_columns(g.n, h.n, cols))
    for b, c in got.edges ^ h.edges:
        found.add(("loop " if b == c else "edge ") + ("lost" if (b, c) in h.edges else "gained"))
    return found


def _reassembled_non_solution(g, h, good):
    """A non-solution of C6 -> P3 assembled from the solutions' own column
    masks: each of its columns also occurs, in the same place, in a
    solution that comes before it in the canonical order, so a memo of
    anything seen earlier cannot vouch for it."""
    key = dict(zip(good, solver._canonical_keys(g.n, h.n, good)))
    per_column = [sorted({cols[b] for cols in good}) for b in range(h.n)]
    return next(
        cand for cand in itertools.product(*per_column)
        if cand not in key and all(
            any(cols[b] == mask and key[cols] < solver._canonical_keys(g.n, h.n, [cand])[0]
                for cols in good)
            for b, mask in enumerate(cand)
        )
    )


@pytest.mark.parametrize("position", ("first", "middle", "last"))
@pytest.mark.parametrize(
    "kind",
    ("empty column", "edge lost", "edge gained", "loop lost", "loop gained", "domain missed",
     "reassembled"),
)
def test_complete_enumeration_rechecks_every_solution(monkeypatch, kind, position):
    """A batch of solutions with one bad member at ``position`` fails its
    re-check, both called directly and inside ``solve``. Each bad member has
    the one defect ``kind``, a single pair away from a full-domain solution
    of P5 + K1 onto P3 with a loop on its middle vertex plus an isolated
    vertex; "reassembled" is a C6 -> P3 non-solution made of the
    solutions' own column masks."""
    if kind == "reassembled":
        g, h, full = rg.cycle_graph(6), rg.path_graph(3), False
    else:
        g = rg.disjoint_union(rg.path_graph(5), rg.empty_graph(1))
        h, full = rg.graph_from_edges(4, [(0, 1), (1, 1), (1, 2)]), True
    good, complete, _ = solver._search(g, h, False, full, False, True, solver._NO_BUDGET)
    assert complete and len(good) > 2
    if kind == "reassembled":
        bad = _reassembled_non_solution(g, h, good)
        assert _defects(g, h, bad, full)
    else:
        solutions = set(good)
        bad = next(
            cand
            for cols in good
            for b, x in itertools.product(range(h.n), range(g.n))
            for cand in [tuple(mask ^ (1 << x if c == b else 0) for c, mask in enumerate(cols))]
            if cand not in solutions and _defects(g, h, cand, full) == {kind}
        )
    at = {"first": 0, "middle": len(good) // 2, "last": len(good)}[position]
    batch = good[:at] + [bad] + good[at:]
    with pytest.raises(rg.WitnessCheckError):
        solver._check_solutions(g, h, batch, False, full)
    monkeypatch.setattr(solver, "_search", lambda *args: (batch, True, None))
    query = rg.SolveQuery(g, h, domain="full" if full else "any")
    for enumeration in ("all", "minimal", "maximal"):
        with pytest.raises(rg.WitnessCheckError):
            rg.solve(query.__replace__(enumeration=enumeration))


def test_c8_onto_p4_enumeration_is_pinned():
    """The sort and the antichains on 12,448 solutions, at Tier-1 speed."""
    ss, cert = rg.solve(rg.SolveQuery(rg.cycle_graph(8), rg.path_graph(4)))
    assert cert is None and ss.complete
    counts = (len(ss.solutions), len(ss.minimal_elements), len(ss.maximal_elements))
    assert counts == (12448, 336, 160)
    assert sorted(ss.solutions[0].pairs) == [
        (0, 0), (0, 1), (0, 2), (0, 3), (2, 0), (2, 2), (3, 1), (4, 2), (5, 1), (5, 3)
    ]
    assert sorted(ss.solutions[-1].pairs) == [(4, 3), (5, 2), (6, 1), (7, 0), (7, 2)]
    assert ss.minimal_elements[:5] == (755, 786, 839, 843, 851)
    assert ss.maximal_elements[:5] == (1, 5, 16, 21, 22)
    assert (ss.minimal_elements[-1], ss.maximal_elements[-1]) == (12446, 11068)


def _antichains_match_reference(g, h, mode, domain, node_budget=None) -> bool:
    """Whether a complete enumeration's antichains are the reference's:
    False when there was nothing to compare."""
    query = rg.SolveQuery(g, h, mode=mode, domain=domain, node_budget=node_budget)
    found, keys, minimal, maximal, complete, _ = solver._solve_masks(query)
    if not (complete and found):
        return False
    if keys is None:
        keys = solver._canonical_keys(g.n, h.n, found)
    assert (minimal, maximal) == reference_antichains(g.n, h.n, found, keys), (g, h, mode, domain)
    return True


def test_antichains_match_the_reference_on_small_graphs():
    """The plane antichains against the dict-lookup reference on every pair
    of graphs up to 4 vertices, and of looped graphs up to 3, under every
    mode and domain. The few enumerations past 20,000 search units (up to
    50,625 solutions) are skipped: they would take most of the time."""
    graphs = rg.all_graphs_up_to(4) + [g for g in rg.all_graphs_up_to(3, loops=True) if not g.is_simple]
    compared = 0
    for g, h in itertools.product(graphs, repeat=2):
        for mode, domain in itertools.product(("strong", "weak"), ("any", "full")):
            if mode == "strong" or g.is_simple:
                compared += _antichains_match_reference(g, h, mode, domain, 20_000)
    assert compared == 1212


def test_antichains_match_the_reference_randomized():
    """The same comparison on the benchmark's five complete enumerations,
    and on seeded random ones with up to 10 source and 6 target vertices:
    each target is the source composed with a random relation, so that
    most have solutions, and loops occur in strong mode. Enumerations the
    node budget cuts short are skipped."""
    P, C = rg.path_graph, rg.cycle_graph
    named = [
        (P(7), P(4), "strong", "any"),
        (C(6), P(4), "weak", "any"),
        (C(10), C(5), "strong", "full"),
        (C(8), P(4), "strong", "any"),
        (C(6), rg.disjoint_union(P(3), P(3)), "strong", "any"),
    ]
    assert all(_antichains_match_reference(*case) for case in named)
    rng = random.Random(67)
    compared = 0
    for trial in range(800):
        strong = trial % 2 == 0
        g = random_graph(rng, rng.randint(1, 10), p=rng.uniform(0.2, 0.7), loops=strong and trial % 4 == 0)
        rel = random_image_full_relation(rng, g.n, rng.randint(1, min(6, g.n)), rng.uniform(0, 0.3))
        h = rg.apply_strong(g, rel) if strong else rg.apply_weak(g, rel)
        mode = "strong" if strong else "weak"
        domain = "full" if trial % 5 < 2 else "any"
        compared += _antichains_match_reference(g, h, mode, domain, node_budget=3_000)
    assert compared == 396


def test_edge_onto_triangle_is_certified_unsolvable():
    ss, cert = rg.solve(
        rg.SolveQuery(rg.complete_graph(2), rg.cycle_graph(3), enumeration="exists")
    )
    assert ss.complete and not ss.solutions
    assert cert is not None and cert.kind == "completeChar"
    assert rg.certificate_holds(cert, rg.complete_graph(2), rg.cycle_graph(3))


def test_path_onto_edge_minimal_and_maximal():
    p3, p1 = rg.path_graph(4), rg.path_graph(2)
    ss, _ = rg.solve(rg.SolveQuery(p3, p1, enumeration="all"))
    minimal = {ss.solutions[i] for i in ss.minimal_elements}
    maximal = {ss.solutions[i] for i in ss.maximal_elements}
    assert rg.relation_from_pairs(4, 2, [(0, 0), (1, 1)]) in minimal
    assert rg.relation_from_pairs(4, 2, [(0, 0), (2, 0), (1, 1), (3, 1)]) in maximal
    # sandwich: anything between a comparable min/max pair solves too
    for lo in minimal:
        for hi in maximal:
            if lo.pairs <= hi.pairs:
                mid_pairs = set(lo.pairs)
                for p in sorted(hi.pairs - lo.pairs)[::2]:
                    mid_pairs.add(p)
                mid = rg.relation_from_pairs(4, 2, mid_pairs)
                assert rg.apply_strong(p3, mid) == p1


def test_weak_mode_on_loopy_target_is_vacuous():
    loopy = rg.graph_from_edges(2, [(0, 0), (0, 1)])
    ss, cert = rg.solve(rg.SolveQuery(rg.complete_graph(2), loopy, mode="weak"))
    assert ss.complete and not ss.solutions
    assert cert is not None and cert.kind == "exhausted"


def test_certify_examples():
    k2, c3 = rg.complete_graph(2), rg.cycle_graph(3)
    cert = rg.certify(k2, c3, "strong", "full")
    assert cert is not None and cert.kind == "completeChar"
    cert = rg.certify(rg.complete_graph(5), rg.complete_graph(3), "strong", "full")
    assert cert is not None and cert.kind == "chromatic"
    cert = rg.certify(rg.path_graph(3), rg.path_graph(6), "strong", "full")
    assert cert is not None and cert.kind == "distance"
    # solvable complete-source instance: no certificate
    h = rg.complement(
        rg.disjoint_union(
            rg.disjoint_union(rg.complete_graph(2), rg.complete_graph(2)),
            rg.complete_graph(2),
        )
    )
    assert rg.certify(rg.complete_graph(4), h, "strong", "any") is None
    ss, _ = rg.solve(rg.SolveQuery(rg.complete_graph(4), h, enumeration="exists"))
    assert len(ss.solutions) == 1


def test_certificates_never_fire_on_solvable_instances():
    rng = random.Random(29)
    for _ in range(250):
        g = random_graph(rng, rng.randint(1, 5), p=0.5)
        m = rng.randint(1, 5)
        pairs = {(rng.randrange(g.n), b) for b in range(m)}
        for x in range(g.n):
            pairs.add((x, rng.randrange(m)))
        rel = rg.relation_from_pairs(g.n, m, pairs)
        for weak in (False, True):
            h = rg.apply_weak(g, rel) if weak else rg.apply_strong(g, rel)
            mode = "weak" if weak else "strong"
            assert rg.certify(g, h, mode, "full") is None
            assert rg.certify(g, h, mode, "any") is None


def test_certify_rule_counts_are_pinned():
    # Which rule fires, over every pair of graphs up to 4 vertices with
    # loops: a rewrite of an invariant must not move an instance between
    # rules, nor out of them.
    suite = rg.all_graphs_up_to(4, loops=True)
    kinds = collections.Counter()
    for g in suite:
        for h in suite:
            for mode in ("strong", "weak") if g.is_simple else ("strong",):
                for domain in ("any", "full"):
                    cert = rg.certify(g, h, mode, domain)
                    kinds[cert.kind if cert is not None else None] += 1
    assert kinds == {
        "components": 1934, "distance": 2030, "radius": 404, "chromatic": 101,
        "completeChar": 94, "pathChar": 1, None: 27532,
    }


def test_certify_matches_the_reference_rules():
    """``certify``, whose rules read each graph's cached invariants and the
    target's first, returns the certificate of the rules that compute them
    per call, with the same kind, detail and values: on every pair of graphs
    up to 4 vertices with loops, and on pairs of the empty graph, paths and
    cycles up to 8 vertices and seeded random graphs of 5 to 8 vertices
    (radii and diameters of 3 and more), in both modes and both domains."""
    small = rg.all_graphs_up_to(4, loops=True)
    rng = random.Random(31)
    larger = [rg.empty_graph(0)] + [rg.path_graph(n) for n in range(1, 9)]
    larger += [rg.cycle_graph(n) for n in range(3, 9)]
    larger += [random_graph(rng, rng.randint(5, 8), p=rng.uniform(0.2, 0.6)) for _ in range(12)]
    pairs = [(g, h) for g in small for h in small] + [(g, h) for g in larger for h in larger]
    for g, h in pairs:
        for mode in ("strong", "weak"):
            for domain in ("any", "full"):
                expected = reference_certify(g, h, mode, domain)
                assert rg.certify(g, h, mode, domain) == expected, (g, h, mode, domain)


def test_solver_matches_naive_enumeration_spot():
    rng = random.Random(31)
    suite = rg.all_graphs_up_to(3)
    for g in suite:
        for h in suite:
            for weak in (False, True):
                if weak and not g.is_simple:
                    continue
                any_masks, full_masks = naive_solution_masks(g, h, weak)
                for domain, masks in (("any", any_masks), ("full", full_masks)):
                    ss, cert = rg.solve(
                        rg.SolveQuery(
                            g, h, mode="weak" if weak else "strong", domain=domain
                        )
                    )
                    got = sorted(relation_to_mask(r) for r in ss.solutions)
                    assert got == sorted(int(x) for x in masks)
                    if cert is not None and cert.kind != "exhausted":
                        assert not ss.solutions


def test_budget_exhaustion_reports_incomplete():
    g, h = rg.empty_graph(4), rg.empty_graph(4)
    ss, cert = rg.solve(rg.SolveQuery(g, h, node_budget=10))
    assert not ss.complete and cert is None
    ss2, _ = rg.solve(rg.SolveQuery(g, h, enumeration="exists", node_budget=10**6))
    assert ss2.complete and ss2.solutions


_GRAPHS = {
    "C5": rg.cycle_graph(5),
    "C6": rg.cycle_graph(6),
    "C8": rg.cycle_graph(8),
    "C10": rg.cycle_graph(10),
    "P4": rg.path_graph(4),
    "P5": rg.path_graph(5),
    "P7": rg.path_graph(7),
    "2P3": rg.disjoint_union(rg.path_graph(3), rg.path_graph(3)),
    "E4": rg.empty_graph(4),
    "E5": rg.empty_graph(5),
    "K2+3K1": rg.disjoint_union(rg.complete_graph(2), rg.empty_graph(3)),
    "K1,4": rg.graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
    "C14": rg.cycle_graph(14),
    "P6": rg.path_graph(6),
    "P16": rg.path_graph(16),
}


@pytest.mark.parametrize(
    "source, target, mode, domain, enumeration, threshold",
    [
        ("C6", "2P3", "strong", "any", "exists", 16),
        ("C6", "2P3", "strong", "any", "all", 5_389),
        ("P7", "P4", "strong", "full", "exists", 119),
        ("P7", "P4", "strong", "any", "all", 37_785),
        ("C8", "P4", "weak", "any", "exists", 397),
        ("C6", "P4", "weak", "any", "all", 40_257),
        ("C10", "C5", "strong", "full", "exists", 60_985),
        ("E4", "E4", "strong", "any", "all", 54_240),
        ("P5", "C5", "weak", "full", "exists", 15_934),
        ("C8", "P4", "strong", "full", "all", 9_890),
        ("C6", "P4", "weak", "full", "all", 5_922),
        # The cases that chose `solver._column_order`.
        ("E5", "K2+3K1", "strong", "full", "all", 992),
        ("K1,4", "K1,4", "strong", "full", "all", 58_160),
        ("P16", "P6", "strong", "any", "exists", 18_132),
        ("C14", "P4", "weak", "any", "exists", 24_589),
    ],
)
def test_pinned_node_budget_thresholds(source, target, mode, domain, enumeration, threshold):
    """A node-budget unit is one candidate mask considered, rejected or not,
    and a child cut by the forward check costs its column's whole candidate
    set; the smallest completing budget of each query is pinned exactly.
    Regenerate the thresholds with ``helpers.min_completing_budget``."""
    g, h = _GRAPHS[source], _GRAPHS[target]
    query = rg.SolveQuery(g, h, mode=mode, domain=domain, enumeration=enumeration)
    assert min_completing_budget(query, guess=threshold) == threshold
    ss, cert = rg.solve(query.__replace__(node_budget=threshold - 1))
    assert not ss.complete and cert is None


def test_time_budget_exhaustion_reports_incomplete():
    # The search needs 40,257 units, so the deadline is checked many times.
    ss, cert = rg.solve(
        rg.SolveQuery(rg.cycle_graph(6), rg.path_graph(4), mode="weak", time_budget=1e-9)
    )
    assert not ss.complete and cert is None


def test_iter_solutions_raises_budget_exhaustion_to_its_caller():
    # solve turns an exhausted budget into complete=False; the lazy
    # iterator has no result to mark, so the error reaches the caller.
    query = rg.SolveQuery(rg.cycle_graph(6), rg.path_graph(4), mode="weak", node_budget=5)
    with pytest.raises(rg.BudgetExhaustedError):
        for _ in rg.iter_solutions(query):
            pass
    ss, cert = rg.solve(query)
    assert not ss.complete and cert is None


def _column_run(search, g, h, weak, full_domain, required, universe, node_budget, limit=2_000):
    """Up to ``limit`` yields of one column search by ``search``, each with
    the budget's ``nodes_left`` when it came, a marker if the budget ran
    out, and the budget's ``_ticks`` afterwards."""
    budget = solver._Budget(node_budget, None)
    out = []
    try:
        for cols in search(
            g, h, weak=weak, full_domain=full_domain,
            required=required, universe=universe, budget=budget,
        ):
            out.append((cols, budget.nodes_left))
            if len(out) == limit:
                break
    except rg.BudgetExhaustedError:
        out.append("exhausted")
    return out, budget._ticks


def _random_column_search(rng, trial, max_n=8):
    """Arguments of a random ``_search_columns`` call with n <= ``max_n``,
    m <= 5: strong or weak, any or full domain, with or without pins."""
    n, m = rng.randint(1, max_n), rng.randint(1, 5)
    weak = trial % 2 == 1
    g = random_graph(rng, n, p=rng.random(), loops=not weak and trial % 3 == 0)
    if trial % 5 < 2:
        h = random_graph(rng, m, p=rng.random(), loops=not weak)
    else:
        pairs = [(rng.randrange(n), b) for b in range(m) for _ in range(rng.randint(1, 2))]
        rel = rg.relation_from_pairs(n, m, pairs)
        h = rg.apply_weak(g, rel) if weak else rg.apply_strong(g, rel)
    full = (1 << n) - 1
    required = universe = None
    if rng.random() < 0.3:
        required = [rng.randrange(full + 1) & rng.randrange(full + 1) for _ in range(m)]
    if rng.random() < 0.3:
        universe = [rng.randrange(full + 1) | (required[b] if required else 0) for b in range(m)]
    return g, h, weak, trial % 4 >= 2, required, universe


def test_column_search_matches_the_list_reference():
    """The forward-checked bit-parallel search against
    ``reference_search_columns``, which walks candidate lists a mask at a
    time and visits every child it accepts, on 2,400 random searches with
    n <= 8 and m <= 5. Without a budget both yield the same solutions in
    the same order. Under a node budget the reference's yields before it
    runs out are a prefix of the search's, the search has spent no more
    units than the reference at each of them, and it completes, with no
    more units, wherever the reference does. A search drawn without a
    budget runs without one when the reference needs at most 50,000
    units, and under 50,000 units otherwise."""
    rng = random.Random(29)
    unlimited = fewer = 0
    for trial in range(2_400):
        args = _random_column_search(rng, trial)
        node_budget = rng.choice([None, rng.randint(1, 20_000), int(20_000 ** rng.random())])
        if node_budget is None:
            if "exhausted" in _column_run(reference_search_columns, *args, 50_000)[0]:
                node_budget = 50_000
            else:
                unlimited += 1
        got, ticks = _column_run(solver._search_columns, *args, node_budget)
        want, want_ticks = _column_run(reference_search_columns, *args, node_budget)
        if node_budget is None:
            assert got == want and ticks == want_ticks == 0, args
            continue
        yields = [y for y in want if y != "exhausted"]
        assert len(got) >= len(yields), args
        for (cols, left), (want_cols, want_left) in zip(got, yields):
            assert cols == want_cols and left >= want_left, args
        if yields == want:
            assert [cols for cols, _ in got] == [cols for cols, _ in want], args
            assert ticks <= want_ticks, args
            fewer += ticks < want_ticks
    assert unlimited >= 400
    # The forward check cut children, and so saved units, on 73 of the
    # budgeted searches that complete.
    assert fewer >= 50


def test_solutions_do_not_depend_on_the_column_order(monkeypatch):
    """The column order only steers the search: on 500 random searches with
    n <= 7 and m <= 5, two random orders yield the same set of solutions
    as the default order, which is the naive filter's set, within the pins
    and the domain, wherever n * m <= 16. Searches that need more than
    20,000 units in the default order are skipped."""
    rng = random.Random(31)
    checked = naive = 0
    for trial in range(500):
        g, h, weak, full_domain, required, universe = _random_column_search(rng, trial, max_n=7)

        def solutions(node_budget):
            search = solver._search_columns(
                g, h, weak=weak, full_domain=full_domain, required=required,
                universe=universe, budget=solver._Budget(node_budget, None),
            )
            return set(search)

        try:
            want = solutions(20_000)
        except rg.BudgetExhaustedError:
            continue
        checked += 1
        for _ in range(2):
            order = list(range(h.n))
            rng.shuffle(order)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_column_order", lambda tgt: order)
                assert solutions(None) == want, (g, h, weak, full_domain, required, universe, order)
        if g.n * h.n <= 16:
            naive += 1
            n, full = g.n, (1 << g.n) - 1
            masks = naive_solution_masks(g, h, weak)[full_domain]
            cols = {tuple(int(mask) >> b * n & full for b in range(h.n)) for mask in masks}
            if required is not None:
                cols = {c for c in cols if all(col & req == req for col, req in zip(c, required))}
            if universe is not None:
                cols = {c for c in cols if all(not col & ~uni for col, uni in zip(c, universe))}
            assert want == cols, (g, h, weak, full_domain, required, universe)
    assert checked >= 400 and naive >= 200


def test_budget_units_are_exact_on_random_searches(monkeypatch):
    """A search that uses U units completes under a node budget of U with
    nothing left and runs out under U - 1 after a prefix of its yields.
    ``nodes_left`` is exact at the first yield. Under a time budget the
    clock is read once per multiple of 256 units, at the charge that
    reaches it: where a node budget of one unit less runs out (checked
    for the first three reads)."""
    rng = random.Random(23)
    # Searches that need more units are skipped, to keep the test short.
    cap = 20_000
    sizes = []
    for trial in range(400):
        g, h, weak, full_domain, required, universe = _random_column_search(rng, trial)
        args = (g, h, weak, full_domain, required, universe)

        def run(budget, stop=None):
            """The yields up to ``stop``, the units spent at each, and
            whether the budget ran out."""
            got, spent = [], []
            start = budget.nodes_left
            search = solver._search_columns(
                g, h, weak=weak, full_domain=full_domain,
                required=required, universe=universe, budget=budget,
            )
            try:
                for cols in search:
                    got.append(cols)
                    if start is not None:
                        spent.append(start - budget.nodes_left)
                    if len(got) == stop:
                        break
            except rg.BudgetExhaustedError:
                return got, spent, True
            return got, spent, False

        budget = solver._Budget(cap, None)
        want, spent, exhausted = run(budget)
        if exhausted:
            continue
        units = cap - budget.nodes_left
        sizes.append(units)
        budget = solver._Budget(units, None)
        assert run(budget)[::2] == (want, False) and budget.nodes_left == 0, args
        if units:
            got, _, exhausted = run(solver._Budget(units - 1, None))
            assert exhausted and got == want[:len(got)], args
        if want:
            assert run(solver._Budget(spent[0], None), stop=1)[::2] == (want[:1], False), args
            if spent[0] > 1:
                assert run(solver._Budget(spent[0] - 1, None))[::2] == ([], True), args
        # n <= 8, so every charge is below 256 and crosses one multiple at most.
        budget = solver._Budget(None, 3600.0)
        reads = []
        with monkeypatch.context() as patch:
            patch.setattr(solver.time, "monotonic", lambda: reads.append(budget._ticks) or 0.0)
            assert run(budget)[::2] == (want, False), args
        assert len(reads) == units // 256 and budget._ticks == units, args
        for k, ticks in enumerate(reads[:3], 1):
            budget = solver._Budget(256 * k - 1, None)
            assert run(budget)[2] and budget.nodes_left == 256 * k - 1 - ticks, args
    assert len(sizes) >= 300 and sum(units >= 512 for units in sizes) >= 40


def _budgeted_run(monkeypatch, search, args, node_budget, reads_left=None):
    """Every yield of one column search with the budget's ``nodes_left`` at
    it, then "exhausted" if the budget ran out, with the budget and the
    number of clock reads. Under ``reads_left`` the search also has a time
    budget, on a clock that passes the deadline after that many reads."""
    g, h, weak, full_domain, required, universe = args
    budget = solver._Budget(node_budget, None if reads_left is None else 3600.0)
    reads = []
    out = []
    with monkeypatch.context() as patch:
        if reads_left is not None:
            budget.deadline = 1.0
            patch.setattr(
                solver.time, "monotonic",
                lambda: reads.append(0) or (2.0 if len(reads) > reads_left else 0.0),
            )
        try:
            for cols in search(
                g, h, weak=weak, full_domain=full_domain,
                required=required, universe=universe, budget=budget,
            ):
                out.append((cols, budget.nodes_left))
        except rg.BudgetExhaustedError:
            out.append("exhausted")
    return out, budget, len(reads)


def test_column_search_matches_the_frozen_recursive_search(monkeypatch):
    """The one-frame search, which skips the states it found dead and
    replays their units, against ``helpers.frozen_search_columns``, the
    recursive search it replaced, on 2,000 random searches with n <= 8 and
    m <= 5. Each runs without a budget (under 2,500 units if it needs
    more), under node budgets of its exact units, one less and random ones
    that run out, under a time budget whose clock passes the deadline at a
    random read, and under both. Both yield the same solutions in the same
    order with the same ``nodes_left`` at each, run out before the same
    yield, read the clock as often (under both budgets, at most once more)
    and spend the same units when they complete; where a node budget runs
    out, ``nodes_left`` reads no lower than the frozen search's."""
    rng = random.Random(37)
    cap = 2_500
    skipped = exhausted = 0
    for trial in range(2_000):
        args = _random_column_search(rng, trial)
        runs = [(cap, None), (rng.randint(1, cap), None), (None, rng.randrange(cap // 256))]
        runs.append((rng.randint(1, cap), rng.randrange(cap // 256)))
        units = None
        while runs:
            node_budget, reads_left = runs.pop(0)
            want, want_budget, want_reads = _budgeted_run(
                monkeypatch, frozen_search_columns, args, node_budget, reads_left)
            got, got_budget, got_reads = _budgeted_run(
                monkeypatch, solver._search_columns, args, node_budget, reads_left)
            assert got == want, (args, node_budget, reads_left)
            if node_budget is None or reads_left is None:
                assert got_reads == want_reads, (args, node_budget, reads_left)
            else:
                # A replay reads the clock at each multiple of 256 it
                # crosses, where one charge may have crossed one and
                # overdrawn the node budget at once.
                assert got_reads - want_reads in (0, 1), (args, node_budget, reads_left)
            if want[-1:] == ["exhausted"]:
                exhausted += 1
                if node_budget is not None and got_budget.nodes_left < 0:
                    assert got_budget.nodes_left >= want_budget.nodes_left, args
                continue
            assert got_budget._ticks == want_budget._ticks, args
            if node_budget == cap:
                units = cap - want_budget.nodes_left
                runs += [(None, None), (units, None), (max(units - 1, 0), None)]
                runs += [(rng.randint(0, units), None), (None, rng.randrange(units // 256 + 1))]
        skipped += units is None
    # The random budgets run out on most draws, and 406 draws need more
    # than the cap.
    assert exhausted >= 4_000 and skipped <= 450


def _first_or_frame(search, g, h, weak, node_budget):
    """The first yield of a full-domain column search under ``node_budget``
    with the budget's counters, and the search's frame if it ran out."""
    budget = solver._Budget(node_budget, None)
    try:
        cols = next(search(g, h, weak=weak, full_domain=True, budget=budget))
    except rg.BudgetExhaustedError as exc:
        tb = exc.__traceback__
        while tb.tb_frame.f_code is not search.__code__:
            tb = tb.tb_next
        return ("exhausted", budget._ticks), tb.tb_frame
    return (cols, budget.nodes_left, budget._ticks), None


def test_near_cap_searches_match_the_reference_within_the_memo_bound():
    """At n = 16, C16 -> C5 full-domain runs out of 200,000 units and a
    planted weak full-domain query finds a solution after 139,264, as the
    reference does. The memo of the masks meeting each neighbourhood keeps
    within the 2^22 bits its comment states, and fills it on C16 -> C5."""
    rng = random.Random(0)
    g = random_graph(rng, 16, p=0.25)
    pairs = [(x, rng.randrange(4)) for x in range(16)] + [(rng.randrange(16), b) for b in range(4)]
    planted = rg.apply_weak(g, rg.relation_from_pairs(16, 4, pairs))
    for g, h, weak in [(rg.cycle_graph(16), rg.cycle_graph(5), False), (g, planted, True)]:
        want, _ = _first_or_frame(reference_search_columns, g, h, weak, 200_000)
        got, frame = _first_or_frame(solver._search_columns, g, h, weak, 200_000)
        assert got == want
        if weak:
            assert frame is None and got[1] == 200_000 - 139_264
        else:
            memo = frame.f_locals["memo"]
            assert len(memo) == 64
            assert sum(met.bit_length() for met in memo.values()) <= 1 << 22


def test_meeting_tables_hold_every_set_within_the_memo_bound():
    """``_meetings(n)[S]`` is the set of the masks below 2^n that meet S:
    for every S at n <= 8 and for random S at n = 9-11. Every search at n
    reads the one table, and each table holds at most 2^22 bits."""
    rng = random.Random(4)
    for n in range(solver._MEETINGS_MAX + 1):
        table = solver._meetings(n)
        assert len(table) == 1 << n
        assert sum(met.bit_length() for met in table) <= 1 << 22
        sets = range(1 << n) if n <= 8 else [rng.randrange(1 << n) for _ in range(40)]
        for s in sets:
            assert table[s] == sum(1 << mask for mask in range(1 << n) if mask & s), (n, s)
    for n in (5, 11):
        targets = (rg.path_graph(3), rg.cycle_graph(4))
        searches = [solver._search_columns(rg.cycle_graph(n), h) for h in targets]
        for search in searches:
            next(search)
        assert searches[0].gi_frame.f_locals["memo"] is searches[1].gi_frame.f_locals["memo"]
        assert searches[0].gi_frame.f_locals["memo"] is solver._meetings(n)


def test_dead_state_memo_keeps_within_its_bound():
    """The search stores at most 2^22 >> n later candidate sets as dead
    states, as its memo of meeting masks does. A strong search of a seeded
    12-vertex graph onto C7 meets more dead states than that (1,106 sets
    before its 2,000th yield, with no bound): read from the suspended
    search's frame at each of its first 2,000 yields, the stored sets
    never exceed 1,024, and they fill the bound to within one state. The yields are the frozen recursive search's. A full-domain
    search stores no state."""
    g, h = random_graph(random.Random(3), 12, p=0.3), rg.cycle_graph(7)
    bound = 1 << 22 >> g.n
    search = solver._search_columns(g, h)
    got, stored = [], []
    for cols in itertools.islice(search, 2_000):
        got.append(cols)
        stored.append(sum(map(len, search.gi_frame.f_locals["dead"])))
    assert got == list(itertools.islice(frozen_search_columns(g, h), 2_000))
    assert max(stored) <= bound and max(stored) > bound - (h.n - 2)
    search = solver._search_columns(rg.cycle_graph(8), rg.path_graph(4), full_domain=True)
    assert sum(not search.gi_frame.f_locals["dead"] for _ in search) == 192


def test_side_doors_enforce_the_vertex_cap():
    # Both would otherwise build candidate sets of 2^17 bits each.
    big, edge = rg.path_graph(17), rg.complete_graph(2)
    with pytest.raises(rg.CapExceededError):
        rg.relation_exists(big, edge)
    with pytest.raises(rg.CapExceededError):
        rg.relation_exists(edge, big)
    with pytest.raises(rg.CapExceededError):
        solver.search_with_pinned_columns(big, edge, [0, 0])


def test_side_doors_recheck_every_solution(monkeypatch):
    # Columns ({0}, {0}) give an edgeless image of K2, so they do not solve
    # K2 * R = K2; a search that yields them must be caught.
    edge = rg.complete_graph(2)
    monkeypatch.setattr(solver, "_search_columns", lambda *args, **kwargs: iter([(1, 1)]))
    with pytest.raises(rg.WitnessCheckError):
        next(rg.iter_solutions(rg.SolveQuery(edge, edge), use_fast_paths=False))
    with pytest.raises(rg.WitnessCheckError):
        rg.relation_exists(edge, edge)
    with pytest.raises(rg.WitnessCheckError):
        solver.search_with_pinned_columns(edge, edge, [0, 0])


def test_rechecks_test_every_loop(monkeypatch):
    # K2 onto an edge with a loop at its end. Columns ({0}, {1}) give the
    # edge but not the loop: only the last entry of the last row is wrong.
    g, h = rg.complete_graph(2), rg.graph_from_edges(2, [(0, 1), (1, 1)])
    bad = (0b01, 0b10)
    monkeypatch.setattr(solver, "_search_columns", lambda *args, **kwargs: iter([bad]))
    with pytest.raises(rg.WitnessCheckError):
        next(rg.iter_solutions(rg.SolveQuery(g, h), use_fast_paths=False))
    # The same in a batch, between the two real solutions.
    monkeypatch.setattr(solver, "_search", lambda *args: ([(1, 3), bad, (2, 3)], True, None))
    with pytest.raises(rg.WitnessCheckError):
        rg.solve(rg.SolveQuery(g, h))


def test_weak_pinned_search_onto_a_looped_target_finds_nothing():
    # Weak composition never makes a loop, so no relation reaches the target.
    looped = rg.graph_from_edges(1, [(0, 0)])
    assert solver.search_with_pinned_columns(rg.complete_graph(2), looped, [0], weak=True) is None


def test_component_recombination_matches_direct_search():
    rng = random.Random(37)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 4), p=0.6)
        h = rg.disjoint_union(
            random_graph(rng, rng.randint(1, 2), p=0.7),
            random_graph(rng, rng.randint(1, 2), p=0.7),
        )
        for weak in (False, True):
            any_masks, full_masks = naive_solution_masks(g, h, weak)
            ss, _ = rg.solve(
                rg.SolveQuery(g, h, mode="weak" if weak else "strong")
            )
            assert sorted(relation_to_mask(r) for r in ss.solutions) == sorted(
                int(x) for x in any_masks
            )


def test_solve_matches_naive_oracle_randomized():
    """Every flag combination against the naive oracle: the solution set, the
    canonical order, the exists answer, and the inclusion antichains."""
    rng = random.Random(53)
    for trial in range(150):
        g = random_graph(rng, rng.randint(1, 4), p=0.5, loops=trial % 3 == 0)
        if trial % 2:
            h = rg.disjoint_union(
                random_graph(rng, rng.randint(1, 2), p=0.7, loops=trial % 5 == 0),
                random_graph(rng, rng.randint(1, 2), p=0.7, loops=trial % 7 == 0),
            )
        else:
            h = random_graph(rng, rng.randint(1, 3), p=0.6, loops=trial % 4 == 0)
        for weak in (False, True):
            if weak and not g.is_simple:
                continue
            mode = "weak" if weak else "strong"
            for domain, masks in zip(("any", "full"), naive_solution_masks(g, h, weak)):
                want = sorted(int(x) for x in masks)
                ss, cert = rg.solve(rg.SolveQuery(g, h, mode=mode, domain=domain))
                assert ss.complete and (cert is None) == bool(want)
                got = [relation_to_mask(r) for r in ss.solutions]
                assert sorted(got) == want, (g, h, mode, domain)
                keys = [tuple(sorted(r.pairs)) for r in ss.solutions]
                assert keys == sorted(set(keys))
                below = {s for s in want if not any(o != s and o & s == o for o in want)}
                above = {s for s in want if not any(o != s and o & s == s for o in want)}
                assert {got[i] for i in ss.minimal_elements} == below
                assert {got[i] for i in ss.maximal_elements} == above
                ex, _ = rg.solve(
                    rg.SolveQuery(g, h, mode=mode, domain=domain, enumeration="exists")
                )
                assert ex.complete and len(ex.solutions) == min(len(want), 1)
                assert set(ex.solutions) <= set(ss.solutions)


def test_exists_on_disconnected_target_stops_at_first_solution():
    g = rg.cycle_graph(6)
    h = rg.disjoint_union(rg.path_graph(3), rg.path_graph(3))
    ss, cert = rg.solve(rg.SolveQuery(g, h, enumeration="exists", node_budget=100))
    assert ss.complete and cert is None and len(ss.solutions) == 1
    assert rg.apply_strong(g, ss.solutions[0]) == h


def test_complete_source_decisions_match_search_spot():
    for k in (1, 2, 3):
        src = rg.complete_graph(k)
        for h in rg.all_graphs_up_to(4):
            for weak in (False, True):
                want = bool(
                    rg.solve(
                        rg.SolveQuery(src, h, mode="weak" if weak else "strong",
                                      enumeration="exists"),
                        use_fast_paths=False,
                    )[0].solutions
                )
                assert rg.complete_source_decision(k, h, weak=weak) == want
    # Large complete sources through the default route, which certify's
    # complete rule and the column search answer. The unreduced search is
    # left out: it takes seconds on one K16 negative.
    for k in (8, 16):
        src = rg.complete_graph(k)
        for h in rg.all_graphs_up_to(5):
            for mode in ("strong", "weak"):
                ss, cert = rg.solve(rg.SolveQuery(src, h, mode=mode, enumeration="exists"))
                want = rg.complete_source_decision(k, h, weak=mode == "weak")
                assert ss.complete and bool(ss.solutions) == want, (k, h, mode)
                assert want or rg.certificate_holds(cert, src, h, mode)


def test_exists_query_computes_the_complete_source_rule_once(monkeypatch):
    # certify's complete rule is the only place that splits the complement.
    calls = []
    real = solver._complement_clique_parts
    monkeypatch.setattr(
        solver, "_complement_clique_parts", lambda h: calls.append(h) or real(h)
    )
    k3 = rg.complete_graph(3)
    ss, cert = rg.solve(rg.SolveQuery(k3, rg.path_graph(3), enumeration="exists"))
    assert cert is None and len(ss.solutions) == 1 and len(calls) == 1
    calls.clear()
    ss, cert = rg.solve(rg.SolveQuery(k3, rg.path_graph(4), enumeration="exists"))
    assert not ss.solutions and cert.kind == "completeChar" and len(calls) == 1


def test_full_domain_pinned_search_matches_naive_enumeration():
    rng = random.Random(37)
    for trial in range(120):
        n, m = rng.randint(1, 4), rng.randint(1, 3)
        weak = trial % 2 == 1
        g = random_graph(rng, n, p=0.4, loops=True)
        h = random_graph(rng, m, p=0.5, loops=not weak)
        required = [rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for _ in range(m)]
        universe = [rng.getrandbits(n) | rng.getrandbits(n) | required[b] for b in range(m)]
        colmask = (1 << n) - 1
        want = sorted(
            r for r in map(int, naive_solution_masks(g, h, weak)[1])
            if all(
                (r >> (b * n)) & colmask & required[b] == required[b]
                and not (r >> (b * n)) & colmask & ~universe[b]
                for b in range(m)
            )
        )
        rel = solver.search_with_pinned_columns(
            g, h, required, weak=weak, full_domain=True, universe=universe
        )
        assert (rel is None) == (not want)
        assert rel is None or relation_to_mask(rel) in want
        got = solver._solutions(
            g, h, weak, True, certified=False, required=required, universe=universe
        )
        assert sorted(
            sum(mask << (b * n) for b, mask in enumerate(cols)) for cols in got
        ) == want


def test_subgraph_reduce_identity_and_pins():
    g = rg.cycle_graph(4)
    empty_rel = rg.relation_from_pairs(4, 4, [])
    g2, h2 = rg.subgraph_reduce(g, g, set(), set(), empty_rel)
    assert g2 == g and h2 == g
    # pin a dominating vertex of a star onto another star's center
    star = rg.graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    pin = rg.relation_from_pairs(4, 4, [(0, 0)])
    g_res, h_res = rg.subgraph_reduce(star, star, {0}, {0}, pin)
    assert g_res.n == 0 and h_res.n == 0


def test_subgraph_reduce_rejects_bad_pins():
    g = rg.cycle_graph(4)
    with pytest.raises(rg.PreconditionViolatedError):
        rg.subgraph_reduce(g, g, {0}, {0}, rg.relation_from_pairs(4, 4, [(1, 0)]))
    # Each of the three pinned-set checks, in order.
    for pins, pairs, what in [
        (({0}, {0}), [(0, 0), (0, 1)], "stay within"),
        (({0, 2}, {0}), [(0, 0)], "full domain"),
        (({0}, {0, 2}), [(0, 0)], "cover"),
    ]:
        with pytest.raises(rg.PreconditionViolatedError, match=what):
            rg.subgraph_reduce(g, g, *pins, rg.relation_from_pairs(4, 4, pairs))
    with pytest.raises(rg.PreconditionViolatedError):
        # valid pin but the residual keeps an isolated vertex
        path = rg.path_graph(4)
        rg.subgraph_reduce(path, path, {1}, {1}, rg.relation_from_pairs(4, 4, [(1, 1)]))


def test_subgraph_reduce_restrictions_solve_residual():
    """Restricting a full solution past the pinned closed neighborhoods
    always solves the residual instance."""
    rng = random.Random(41)
    done = 0
    while done < 40:
        g = random_graph(rng, rng.randint(2, 6), p=0.5)
        m = rng.randint(1, 6)
        pairs = {(rng.randrange(g.n), b) for b in range(m)}
        for x in range(g.n):
            if rng.random() < 0.3:
                pairs.add((x, rng.randrange(m)))
        rel = rg.relation_from_pairs(g.n, m, pairs)
        h = rg.apply_strong(g, rel)
        x = rng.randrange(g.n)
        d_set = rel.image_of(x)
        if not d_set:
            continue
        pin = rg.relation_from_pairs(g.n, m, [(x, d) for d in d_set])
        try:
            g_res, h_res = rg.subgraph_reduce(g, h, {x}, d_set, pin)
        except rg.PreconditionViolatedError:
            continue
        done += 1
        g_keep = [int(lbl) for lbl in (g_res.labels or [])]
        h_keep = [int(lbl) for lbl in (h_res.labels or [])]
        g_idx = {v: i for i, v in enumerate(g_keep)}
        h_idx = {v: i for i, v in enumerate(h_keep)}
        restricted = rg.relation_from_pairs(
            g_res.n,
            h_res.n,
            [
                (g_idx[a], h_idx[b])
                for a, b in rel.pairs
                if a in g_idx and b in h_idx
            ],
        )
        assert rg.apply_strong(g_res, restricted) == h_res


def test_reduce_hom_to_fulrel_contract():
    for g in rg.all_graphs_up_to(3):
        for h in rg.all_graphs_up_to(3):
            built = rg.reduce_hom_to_fulrel(g, h)
            assert built.n == g.n + h.n
            want = brute_hom_exists(g, h)
            got = rg.relation_exists(built, h, full_domain=True)
            assert got == want
    # empty source degenerates to the target itself
    assert rg.reduce_hom_to_fulrel(rg.empty_graph(0), rg.cycle_graph(3)) == rg.cycle_graph(3)


def test_reduce_fulrel_to_shom_contract():
    for g in rg.all_graphs_up_to(3):
        for h in rg.all_graphs_up_to(3):
            blown = rg.reduce_fulrel_to_shom(g, h)
            assert blown.n == g.n * h.n
            want = rg.relation_exists(g, h, full_domain=True)
            got = brute_surjective_hom_exists(blown, h)
            assert got == want


def test_reduce_fulrel_blowup_preserves_quotient():
    rng = random.Random(43)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 5), p=0.5)
        h = random_graph(rng, rng.randint(1, 4), p=0.5)
        blown = rg.reduce_fulrel_to_shom(g, h)
        t1 = rg.thin_quotient(blown).thin_graph
        t2 = rg.thin_quotient(g).thin_graph
        assert rg.find_isomorphism(t1, t2) is not None


def test_query_validation():
    with pytest.raises(rg.LoopsNotAllowedError):
        rg.SolveQuery(rg.graph_from_edges(1, [(0, 0)]), rg.complete_graph(2), mode="weak")
    with pytest.raises(ValueError):
        rg.SolveQuery(rg.complete_graph(2), rg.complete_graph(2), mode="odd")
    with pytest.raises(ValueError):
        rg.SolveQuery(rg.complete_graph(2), rg.complete_graph(2), node_budget=0)
    with pytest.raises(ValueError):
        rg.SolveQuery(rg.complete_graph(2), rg.complete_graph(2), time_budget=0)
    # NaN passes ``<= 0`` and never passes a deadline: it would mean no limit.
    with pytest.raises(ValueError, match="time budget must be positive"):
        rg.SolveQuery(rg.complete_graph(2), rg.complete_graph(2), time_budget=float("nan"))
    with pytest.raises(rg.CapExceededError):
        rg.SolveQuery(rg.empty_graph(40), rg.empty_graph(2))


def test_exists_on_rcores_matches_the_unreduced_search():
    """Every pair up to 4 vertices, loops included: an exists-query decided
    on R-cores agrees with the search on the inputs, every lifted witness
    solves the inputs, and every ``rcore`` certificate re-checks."""
    graphs = rg.all_graphs_up_to(4, loops=True)
    shrinks = {g: rg.rcore(g).n < g.n for g in graphs}
    lifted = rcore_certs = 0
    for g in graphs:
        for h in graphs:
            for mode in ("strong", "weak"):
                if mode == "weak" and not g.is_simple:
                    continue
                for domain in ("any", "full"):
                    query = rg.SolveQuery(g, h, mode=mode, domain=domain, enumeration="exists")
                    fast, cert = rg.solve(query)
                    slow, _ = rg.solve(query, use_fast_paths=False)
                    assert fast.complete and slow.complete
                    assert bool(fast.solutions) == bool(slow.solutions), (g, h, mode, domain)
                    if fast.solutions:
                        r = fast.solutions[0]
                        assert matrix_composition(g, r, weak=mode == "weak") == h
                        assert domain == "any" or r.has_full_domain
                        lifted += shrinks[g] or (mode == "strong" and shrinks[h])
                    elif cert.kind == "rcore":
                        rcore_certs += 1
                        assert rg.certificate_holds(cert, g, h, mode, domain)
    assert lifted and rcore_certs


def test_unlabelled_rcores_have_the_reduced_rows():
    """The core an exists-query searches is built without labels, and it has
    the rows of the labelled ``_reduced_graph`` on the same vertices, on
    every graph up to 6 vertices."""
    for g in rg.all_graphs_up_to(6):
        core, maps = solver._reduce(g)
        keep = list(range(g.n)) if maps is None else maps[0]
        assert core.adjacency == rg.core._reduced_graph(g, keep).adjacency, g
        assert maps is None or core.labels is None


def test_exists_at_decide_sizes_matches_the_unreduced_search():
    """Seeded exists-queries at the benchmark's sizes, sources of 5 to 8
    vertices onto targets of up to 5, in both modes and both domains: the
    R-core route agrees with the search on the inputs, every witness solves
    the inputs, and every certificate re-checks."""
    rng = random.Random(31)
    targets = rg.all_graphs_up_to(5)
    found = certified = 0
    for _ in range(100):
        mode, domain = rng.choice(("strong", "weak")), rng.choice(("any", "full"))
        g = random_graph(rng, rng.randint(5, 8), p=rng.uniform(0.3, 0.7),
                         loops=mode == "strong" and rng.random() < 0.5)
        h = rng.choice(targets)
        query = rg.SolveQuery(g, h, mode=mode, domain=domain, enumeration="exists")
        fast, cert = rg.solve(query)
        slow, _ = rg.solve(query, use_fast_paths=False)
        assert fast.complete and slow.complete
        assert bool(fast.solutions) == bool(slow.solutions), (g, h, mode, domain)
        if fast.solutions:
            found += 1
            r = fast.solutions[0]
            assert matrix_composition(g, r, weak=mode == "weak") == h
            assert domain == "any" or r.has_full_domain
        else:
            certified += cert.kind != "exhausted"
            assert rg.certificate_holds(cert, g, h, mode, domain)
    assert found and certified


def test_weak_exists_matches_the_unreduced_search():
    """All 324 pairs of loopless graphs up to 4 vertices, both domains: weak
    exists-queries give the answers of the plain weak search, every witness
    solves the inputs weakly, and every certificate re-checks."""
    graphs = rg.all_graphs_up_to(4)
    assert len(graphs) ** 2 == 324
    for g in graphs:
        for h in graphs:
            for domain in ("any", "full"):
                query = rg.SolveQuery(g, h, mode="weak", domain=domain, enumeration="exists")
                fast, cert = rg.solve(query)
                slow, _ = rg.solve(query, use_fast_paths=False)
                assert fast.complete and slow.complete
                assert bool(fast.solutions) == bool(slow.solutions), (g, h, domain)
                if fast.solutions:
                    r = fast.solutions[0]
                    assert rg.apply_weak(g, r) == h
                    assert domain == "any" or r.has_full_domain
                else:
                    assert rg.certificate_holds(cert, g, h, "weak", domain)


@pytest.mark.parametrize("source", [rg.cycle_graph(8), blow_up(rg.cycle_graph(8), 2, seed=3)])
def test_weak_exists_rechecks_the_strong_solution(monkeypatch, source):
    # Every column {0} gives an edgeless image, which is not P4; the weak
    # search's solution is re-checked on the inputs whether or not the
    # source was reduced (C8 is its own R-core).
    monkeypatch.setattr(solver, "_search", lambda g, h, weak, *args: ([(1,) * h.n], True, None))
    query = rg.SolveQuery(source, rg.path_graph(4), mode="weak", enumeration="exists")
    with pytest.raises(rg.WitnessCheckError):
        rg.solve(query)


def test_weak_full_domain_exists_reports_an_exhausted_time_budget():
    # The search needs more than 256 units, so the deadline is checked
    # before it can finish.
    query = rg.SolveQuery(
        rg.path_graph(5), rg.cycle_graph(5), mode="weak", domain="full",
        enumeration="exists", time_budget=1e-9,
    )
    ss, cert = rg.solve(query)
    assert not ss.complete and cert is None


def test_exists_past_the_cap_searches_the_cores():
    # Twin blow-ups of 360 and 40 vertices, whose R-cores are C6 and P4.
    cycles = blow_up(rg.cycle_graph(6), 60, seed=11)
    paths = blow_up(rg.path_graph(4), 10, seed=12)
    ss, cert = rg.solve(rg.SolveQuery(cycles, paths, domain="full", enumeration="exists"))
    assert ss.complete and cert is None
    r = ss.solutions[0]
    assert r.has_full_domain and matrix_composition(cycles, r) == paths

    # K3 has chromatic number 3 and P4 has 2: a negative answer found on
    # the cores, whose certificate names them.
    k3 = blow_up(rg.complete_graph(3), 40, seed=13)
    ss, cert = rg.solve(rg.SolveQuery(k3, paths, domain="full", enumeration="exists"))
    assert ss.complete and not ss.solutions
    assert cert.kind == "rcore"
    values = cert.values_dict()
    assert values["rule"] == "chromatic"
    assert (values["source_vertices"], values["source_core_vertices"]) == (120, 3)
    assert (values["target_vertices"], values["target_core_vertices"]) == (40, 4)
    assert rg.certificate_holds(cert, k3, paths, "strong", "full")
    assert not rg.certificate_holds(cert, cycles, paths, "strong", "full")

    # Only exists-queries on the fast path are capped on their cores.
    for enumeration in ("all", "minimal", "maximal"):
        with pytest.raises(rg.CapExceededError):
            rg.SolveQuery(cycles, paths, domain="full", enumeration=enumeration)
    query = rg.SolveQuery(cycles, paths, domain="full", enumeration="exists")
    with pytest.raises(rg.CapExceededError):
        rg.solve(query, use_fast_paths=False)
    with pytest.raises(rg.CapExceededError):
        next(rg.iter_solutions(query))
    # The cores of two large cycles stay large.
    big = rg.SolveQuery(rg.cycle_graph(20), rg.cycle_graph(17), enumeration="exists")
    with pytest.raises(rg.CapExceededError):
        rg.solve(big)


def test_weak_query_onto_a_looped_target_has_no_solution_at_any_size():
    # Weak composition never yields a loop, so every entry point answers a
    # looped target with no solution before it applies the vertex cap.
    looped = rg.graph_from_edges(2, [(0, 1), (1, 1)])
    for n in (4, solver.SOLVER_VERTEX_CAP + 1):
        g = rg.cycle_graph(n)
        for domain in ("any", "full"):
            full = domain == "full"
            query = rg.SolveQuery(g, looped, mode="weak", domain=domain, enumeration="exists")
            for fast in (True, False):
                ss, cert = rg.solve(query, use_fast_paths=fast)
                assert ss.complete and not ss.solutions and cert.kind == "exhausted"
                assert list(rg.iter_solutions(query, use_fast_paths=fast)) == []
            assert not rg.relation_exists(g, looped, weak=True, full_domain=full)
            pinned = solver.search_with_pinned_columns(g, looped, [0, 0], weak=True, full_domain=full)
            assert pinned is None
    # A loop-free target past the cap is still refused.
    with pytest.raises(rg.CapExceededError):
        rg.relation_exists(g, rg.path_graph(2), weak=True)


CORE_ROUTE_CHECKS_UNDER_O = """
import itertools

import relgraph as rg
from relgraph import core, solver

try:
    assert False
except AssertionError:
    raise SystemExit("assert statements are still active")


def expect_check_error(query):
    try:
        rg.solve(query)
    except rg.WitnessCheckError:
        return
    raise SystemExit(f"{query} returned without a witness check firing")


c4, k2, k3 = rg.cycle_graph(4), rg.complete_graph(2), rg.complete_graph(3)
found = rg.SolveQuery(c4, k2, enumeration="exists")
none = rg.SolveQuery(c4, k3, domain="full", enumeration="exists")
if not rg.solve(found)[0].solutions or rg.solve(none)[1].kind != "rcore":
    raise SystemExit("C4 -> K2 must be solvable and C4 -> K3 full-domain certified on cores")

# A lift that puts every source vertex in every column.
lift = solver._compose_columns
solver._compose_columns = lambda first, second: tuple((1 << 4) - 1 for _ in second)
expect_check_error(found)
solver._compose_columns = lift

# A weak search that puts every column at vertex 0, on a source that is
# its own R-core (C8) and on one that reduces to it.
search = solver._search
solver._search = lambda g, h, weak, *args: ([(1,) * h.n], True, None)
for source in (rg.cycle_graph(8), rg.reduce_fulrel_to_shom(rg.cycle_graph(8), rg.empty_graph(2))):
    expect_check_error(rg.SolveQuery(source, rg.path_graph(4), mode="weak", enumeration="exists"))
solver._search = search

# A complete enumeration with one non-solution among the solutions, built
# from their own column masks.
c6, p3 = rg.cycle_graph(6), rg.path_graph(3)
all_of = rg.SolveQuery(c6, p3)
good = search(c6, p3, False, False, False, True, solver._NO_BUDGET)[0]
key = dict(zip(good, solver._canonical_keys(6, 3, good)))
per_column = [sorted({cols[b] for cols in good}) for b in range(3)]
bad = next(
    cand for cand in itertools.product(*per_column)
    if cand not in key and all(
        any(cols[b] == mask and key[cols] < solver._canonical_keys(6, 3, [cand])[0]
            for cols in good)
        for b, mask in enumerate(cand)
    )
)
solver._search = lambda *args: (good + [bad], True, None)
expect_check_error(all_of)

# A full-domain enumeration with one solution that misses a source vertex.
full = search(c6, p3, False, True, False, True, solver._NO_BUDGET)[0]
partial = next(cols for cols in good if cols[0] | cols[1] | cols[2] != 63)
solver._search = lambda *args: (full + [partial], True, None)
expect_check_error(all_of.__replace__(domain="full"))
solver._search = search

# A reduction whose backward map sends every core vertex everywhere: the
# negative answer rests on it, so its check must fire.
maps = solver._rcore_maps


def bad_maps(g, survivors, trace):
    keep, forward, backward = maps(g, survivors, trace)
    return keep, forward, [(1 << len(keep)) - 1] * len(backward)


solver._rcore_maps = bad_maps
expect_check_error(none)
print("checked")
"""


def test_core_route_checks_survive_python_O():
    src = str(Path(rg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORE_ROUTE_CHECKS_UNDER_O],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "checked"


def test_column_search_leaves_no_cyclic_garbage():
    """A column search that finishes, is closed or runs out of budget frees
    its memo, tables and candidate sets without the cyclic collector."""
    g, h = rg.cycle_graph(6), rg.path_graph(4)

    def finished():
        assert sum(1 for _ in solver._search_columns(g, h)) > 1

    def closed():
        search = solver._search_columns(g, h)
        next(search)
        search.close()

    def exhausted():
        with pytest.raises(solver.BudgetExhaustedError):
            for _ in solver._search_columns(g, h, budget=solver._Budget(50, None)):
                pass

    gc.collect()
    gc.disable()
    try:
        for search in (finished, closed, exhausted):
            search()
            assert gc.collect() == 0, search.__name__
    finally:
        gc.enable()
