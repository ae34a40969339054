"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``. The exhaustive checks
(criteria 2 and 6) take a few minutes combined; everything else is fast.
"""

import random
import time

import relgraph as rg
from relgraph.retract import is_automorphism_relation
from relgraph.solver import _Budget, _relation_of, _search_columns, _subset_neighbors
from helpers import (
    naive_solution_masks,
    random_graph,
    random_image_full_relation,
    relation_to_mask,
)


def _ok(num, name):
    print(f"ACCEPTANCE criterion {num} ({name}): PASS")


def test_criterion_1_fixed_instances():
    t0 = time.perf_counter()

    # a triangle maps onto an edge through a two-pair relation
    c3, k2 = rg.cycle_graph(3), rg.complete_graph(2)
    r1 = rg.relation_from_pairs(3, 2, [(0, 0), (1, 1)])
    assert rg.apply_strong(c3, r1) == k2

    # an edge maps onto a longer path by duplicating one endpoint
    p1, p2 = rg.path_graph(2), rg.path_graph(3)
    r = rg.relation_from_pairs(2, 3, [(0, 0), (0, 2), (1, 1)])
    assert rg.apply_strong(p1, r) == p2

    # nothing maps an edge onto a triangle
    ss, cert = rg.solve(rg.SolveQuery(k2, c3, enumeration="exists"))
    assert ss.complete and not ss.solutions
    assert cert is not None and cert.kind in ("completeChar", "exhausted")

    # inclusion-order structure of the path-onto-edge solutions
    p3 = rg.path_graph(4)
    ss, _ = rg.solve(rg.SolveQuery(p3, p1, enumeration="all"))
    minimal = {ss.solutions[i] for i in ss.minimal_elements}
    maximal = {ss.solutions[i] for i in ss.maximal_elements}
    assert rg.relation_from_pairs(4, 2, [(0, 0), (1, 1)]) in minimal
    assert rg.relation_from_pairs(4, 2, [(0, 0), (2, 0), (1, 1), (3, 1)]) in maximal

    # seven-vertex weakly-equivalent pair: both stated witnesses validate
    g7 = rg.graph_from_edges(7, [(0, 1), (1, 3), (1, 5), (3, 4), (5, 6), (2, 3), (2, 5)])
    h6 = rg.graph_from_edges(6, [(0, 1), (1, 2), (1, 4), (2, 3), (4, 5)])
    fwd = rg.relation_from_pairs(7, 6, [(0, 0), (1, 1), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5)])
    bwd = rg.relation_from_pairs(6, 7, [(0, 0), (1, 1), (2, 3), (3, 4), (4, 5), (5, 6), (3, 2), (5, 2)])
    assert rg.apply_strong(g7, fwd) == h6
    assert rg.apply_strong(h6, bwd) == g7
    assert rg.weakly_equivalent(g7, h6) is not None
    assert rg.strongly_equivalent(g7, h6) is None

    # weak composition admits no composition law
    k3 = rg.complete_graph(3)
    wr = rg.relation_from_pairs(3, 2, [(0, 0), (2, 0), (1, 1)])
    ws = rg.relation_from_pairs(2, 3, [(0, 0), (0, 2), (1, 1)])
    stepwise = rg.apply_weak(rg.apply_weak(k3, wr), ws)
    collapsed = rg.apply_weak(k3, wr.compose(ws))
    assert stepwise == rg.path_graph(3)
    assert collapsed == k3
    assert stepwise != collapsed

    # five-clique reaches a triangle weakly but not strongly with full domain
    k5 = rg.complete_graph(5)
    found, _ = rg.solve(rg.SolveQuery(k5, k3, mode="weak", enumeration="exists"))
    assert len(found.solutions) == 1
    blocked, cert = rg.solve(
        rg.SolveQuery(k5, k3, mode="strong", domain="full", enumeration="exists")
    )
    assert not blocked.solutions and cert is not None and cert.kind == "chromatic"

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"fixture suite took {elapsed:.2f}s"
    _ok(1, "fixed instances")


def test_criterion_2_reduced_form_oracle_agreement():
    t0 = time.perf_counter()
    suite6 = rg.all_graphs_up_to(6)
    for g in suite6:
        oracle = rg.rcore_oracle(g)
        assert rg.find_isomorphism(rg.rcore(g), oracle) is not None, g
        assert rg.find_isomorphism(rg.rcore(g, mode="literal"), oracle) is not None, (
            "one-pass variant diverged from the oracle on " + repr(g)
        )
        co_oracle = rg.cocore_oracle(g)
        assert rg.find_isomorphism(rg.cocore(g), co_oracle) is not None, g
        assert rg.find_isomorphism(rg.cocore(g, mode="fixpoint"), co_oracle) is not None, g
    print(f"  exhaustive <=6 oracle agreement in {time.perf_counter() - t0:.1f}s")
    _ok(2, "reduced-form oracle agreement, all graphs <= 6")


def test_criterion_2_equivalence_characterizations():
    t0 = time.perf_counter()
    suite5 = rg.all_graphs_up_to(5)

    def reversible_witness_exists(g, h):
        budget = _Budget(None, None)
        for cols in _search_columns(
            g, h, _subset_neighbors(g), weak=False, full_domain=True, budget=budget
        ):
            r = _relation_of(cols, g.n, h.n)
            if rg.apply_strong(h, r.transpose()) == g:
                return True
        return False

    def two_way_exists(g, h):
        return rg.relation_exists(g, h, full_domain=True) and rg.relation_exists(
            h, g, full_domain=True
        )

    for i, g in enumerate(suite5):
        for h in suite5[i:]:
            strong = rg.strongly_equivalent(g, h)
            weak = rg.weakly_equivalent(g, h)
            thin_iso = (
                rg.find_isomorphism(
                    rg.thin_quotient(g).thin_graph, rg.thin_quotient(h).thin_graph
                )
                is not None
            )
            core_iso = rg.find_isomorphism(rg.rcore(g), rg.rcore(h)) is not None
            assert (strong is not None) == thin_iso
            assert (weak is not None) == core_iso
            # independent routes through the solver
            assert (strong is not None) == reversible_witness_exists(g, h)
            assert (weak is not None) == two_way_exists(g, h)
            if strong is not None:
                assert rg.apply_strong(g, strong.forward) == h
                assert rg.apply_strong(h, strong.backward) == g
                assert strong.backward == strong.forward.transpose()
            if weak is not None:
                assert rg.apply_strong(g, weak.forward) == h
                assert rg.apply_strong(h, weak.backward) == g
    print(f"  pairwise <=5 equivalence checks in {time.perf_counter() - t0:.1f}s")
    _ok(2, "equivalence characterizations, all pairs <= 5")


def test_criterion_3_randomized_composition_suite():
    rng = random.Random(20240817)
    failures = 0
    for trial in range(10_000):
        n = rng.randint(1, 6)
        loops = rng.random() < 0.2
        g = random_graph(rng, n, p=rng.uniform(0.2, 0.8), loops=loops)
        m1, m2 = rng.randint(1, 6), rng.randint(1, 6)
        r = random_image_full_relation(rng, n, m1, extra=rng.uniform(0.1, 0.5))
        s = random_image_full_relation(rng, m1, m2, extra=rng.uniform(0.1, 0.5))

        stepwise = rg.apply_strong(rg.apply_strong(g, r), s)
        collapsed = rg.apply_strong(g, r.compose(s))
        if stepwise != collapsed:
            failures += 1

        if r.compose(s).transpose() != s.transpose().compose(r.transpose()):
            failures += 1

        keep = set(r.pairs)
        for pair in sorted(r.pairs):
            if rng.random() < 0.4:
                trial_pairs = keep - {pair}
                if {b for _, b in trial_pairs} == set(range(m1)):
                    keep = trial_pairs
        smaller = rg.relation_from_pairs(n, m1, keep)
        if not rg.apply_strong(g, smaller).edges <= rg.apply_strong(g, r).edges:
            failures += 1

        if not loops:
            strong = rg.apply_strong(g, r)
            weak = rg.apply_weak(g, r)
            if weak.edges != frozenset(e for e in strong.edges if e[0] != e[1]):
                failures += 1

        if rg.decompose(r).recomposed() != r:
            failures += 1
    assert failures == 0
    _ok(3, "10,000 randomized composition triples")


def test_criterion_4_self_relation_automorphism_characterization():
    disagreements = 0
    for g in rg.all_graphs_up_to(5):
        has_containment_free_neighborhoods = rg.property_n(g)
        if has_containment_free_neighborhoods:
            ss, _ = rg.solve(rg.SolveQuery(g, g, enumeration="all"))
            if not all(is_automorphism_relation(g, r) for r in ss.solutions):
                disagreements += 1
        else:
            pair = next(
                (x, y)
                for x in range(g.n)
                for y in range(g.n)
                if x != y and g.adjacency[x] & ~g.adjacency[y] == 0
            )
            rel = rg.identity_relation(g.n).union(
                rg.relation_from_pairs(g.n, g.n, [pair])
            )
            ok = rg.apply_strong(g, rel) == g and not is_automorphism_relation(g, rel)
            if not ok:
                disagreements += 1
    assert disagreements == 0
    _ok(4, "self-relations are automorphisms iff neighborhoods are containment-free")


def test_criterion_5_hall_suite():
    # every full-domain self-solution of a reduced form satisfies the
    # marriage condition and yields an embedded matching
    suite5 = rg.all_graphs_up_to(5)
    reduced = [g for g in suite5 if rg.find_isomorphism(g, rg.rcore(g)) is not None]
    assert reduced, "no reduced forms found"
    checked = 0
    for g in reduced:
        ss, _ = rg.solve(rg.SolveQuery(g, g, domain="full", enumeration="all"))
        for rel in ss.solutions:
            checked += 1
            report = rg.hall_check(rel)
            assert report.satisfied, (g, rel)
            mono = report.monomorphism_map()
            assert all((x, b) in rel.pairs for x, b in mono.items())
            assert len(set(mono.values())) == g.n
            for u, v in g.edges:
                assert g.has_edge(mono[u], mono[v])
    assert checked > 500

    # random marriage-violating relations split and recompose
    rng = random.Random(5150)
    done = 0
    while done < 1000:
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        g = random_graph(rng, n, p=0.5)
        rel = random_image_full_relation(rng, n, m, extra=0.15)
        report = rg.hall_check(rel)
        if report.satisfied:
            continue
        done += 1
        first, smaller, second = rg.nohall_split(g, rel)
        assert smaller.n < g.n
        s = report.violating_set
        image = {b for x in s for b in rel.image_of(x)}
        assert smaller.n == g.n - (len(s) - len(image))
        assert first.compose(second) == rel
        assert rg.apply_strong(g, first) == smaller
    _ok(5, "Hall condition on reduced forms; 1000 violating splits recompose")


def test_criterion_6_solver_completeness_small():
    t0 = time.perf_counter()
    suite4 = rg.all_graphs_up_to(4)
    instances = certificates = 0
    for g in suite4:
        for h in suite4:
            for weak in (False, True):
                if weak and not g.is_simple:
                    continue
                any_masks, full_masks = naive_solution_masks(g, h, weak)
                mode = "weak" if weak else "strong"
                for domain, masks in (("any", any_masks), ("full", full_masks)):
                    ss, cert = rg.solve(
                        rg.SolveQuery(g, h, mode=mode, domain=domain, enumeration="all")
                    )
                    assert ss.complete
                    got = sorted(relation_to_mask(r) for r in ss.solutions)
                    want = sorted(int(x) for x in masks)
                    assert got == want, (g, h, mode, domain)
                    instances += 1
                    if cert is not None and cert.kind != "exhausted":
                        certificates += 1
                        assert not want, f"certificate on solvable instance: {cert}"
                        assert rg.certificate_holds(cert, g, h, mode, domain)
    print(
        f"  {instances} instances set-equal to naive enumeration, "
        f"{certificates} certificates confirmed, {time.perf_counter() - t0:.1f}s"
    )
    _ok(6, "solver equals naive 2^(nm) enumeration on all pairs <= 4")


def test_criterion_7_complete_source_characterizations():
    suite5 = rg.all_graphs_up_to(5)
    for k in range(1, 5):
        src = rg.complete_graph(k)
        for h in suite5:
            for weak in (False, True):
                decided = rg.complete_source_decision(k, h, weak=weak)
                searched, _ = rg.solve(
                    rg.SolveQuery(
                        src, h, mode="weak" if weak else "strong", enumeration="exists"
                    ),
                    use_fast_paths=False,
                )
                assert decided == bool(searched.solutions), (k, h, weak)
                if decided:
                    witness = rg.complete_source_solution(k, h, weak=weak)
                    produced = (
                        rg.apply_weak(src, witness)
                        if weak
                        else rg.apply_strong(src, witness)
                    )
                    assert produced == h
    _ok(7, "complete-source characterizations match search, k <= 4, targets <= 5")


def test_criterion_8_property_based_scope():
    # The source material proves theorems rather than reporting large-scale
    # measurements, so acceptance is the property suite above; this entry
    # records that scope decision.
    _ok(8, "acceptance is property-based; no empirical corpus to reproduce")
