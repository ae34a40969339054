import random

import pytest

import relgraph as rg
from helpers import (
    brute_hom_exists,
    brute_surjective_hom_exists,
    naive_solution_masks,
    random_graph,
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
    with pytest.raises(rg.CapExceededError):
        rg.SolveQuery(rg.empty_graph(40), rg.empty_graph(2))
