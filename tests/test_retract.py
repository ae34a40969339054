import random

import pytest

import relgraph as rg
from helpers import random_graph


def test_property_n_instances():
    assert rg.property_n(rg.cycle_graph(5))
    assert not rg.property_n(rg.cycle_graph(4))  # equal neighborhoods nest
    assert rg.property_n(rg.complete_graph(2))
    assert rg.property_n(rg.empty_graph(1))
    assert not rg.property_n(rg.empty_graph(2))


def test_property_n_star_instances():
    assert rg.property_n_star(rg.complete_graph(2))
    assert not rg.property_n_star(rg.cycle_graph(4))
    star = rg.graph_from_edges(3, [(0, 1), (0, 2)])
    assert not rg.property_n_star(star)
    assert rg.property_n_star(rg.empty_graph(1))
    assert not rg.property_n_star(rg.empty_graph(2))
    assert rg.property_n_star(rg.path_graph(4))


def test_property_n_implies_n_star_fails_nowhere_trivial():
    # containment-free neighborhoods leave nothing to build unions from
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), p=0.5)
        if rg.property_n(g):
            assert rg.property_n_star(g)


def test_is_retraction_instances():
    c4 = rg.cycle_graph(4)
    rel = rg.relation_from_pairs(4, 4, [(2, 2), (3, 3), (0, 2), (1, 3)])
    assert rg.is_retraction(c4, [2, 3], rel)
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 6), p=0.5, loops=True)
        assert rg.is_retraction(g, range(g.n), rg.identity_relation(g.n))
    missing_identity = rg.relation_from_pairs(4, 4, [(2, 2), (0, 2), (1, 3), (3, 2)])
    assert not rg.is_retraction(c4, [2, 3], missing_identity)


def test_graph_core_instances():
    core, witness = rg.graph_core_with_witness(rg.cycle_graph(4))
    assert core == rg.complete_graph(2)
    assert witness.relation.is_functional
    assert rg.is_retraction(rg.cycle_graph(4), sorted(witness.sub), witness.relation)
    c5 = rg.cycle_graph(5)
    core, witness = rg.graph_core_with_witness(c5)
    assert core == c5 and witness.relation == rg.identity_relation(5)
    loopy = rg.graph_from_edges(3, [(0, 1), (1, 2), (2, 2)])
    assert rg.graph_core(loopy) == rg.graph_from_edges(1, [(0, 0)])
    with pytest.raises(rg.CapExceededError):
        rg.graph_core(rg.empty_graph(11))


def test_graph_core_is_fixed_point_and_has_property_n():
    for g in rg.all_graphs_up_to(6):
        core, witness = rg.graph_core_with_witness(g)
        assert rg.is_retraction(g, sorted(witness.sub), witness.relation)
        again, _ = rg.graph_core_with_witness(core)
        assert again == core
        if core.is_simple:
            assert rg.property_n(core)


def test_cocore_instances():
    core, witness = rg.cocore_with_witness(rg.cycle_graph(4))
    assert core == rg.complete_graph(2)
    assert witness.sub == frozenset({2, 3})
    assert witness.relation == rg.relation_from_pairs(
        4, 4, [(2, 2), (3, 3), (2, 0), (3, 1)]
    )
    star = rg.graph_from_edges(3, [(0, 1), (0, 2)])
    assert rg.cocore(star) == rg.complete_graph(2)
    p3 = rg.path_graph(4)
    assert rg.cocore(p3) == p3  # already union-free
    assert rg.cocore(rg.path_graph(5)) == rg.disjoint_union(
        rg.complete_graph(2), rg.complete_graph(2)
    )


def test_cocore_witnesses_validate():
    rng = random.Random(11)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 7), p=0.45, loops=rng.random() < 0.2)
        core, witness = rg.cocore_with_witness(g)
        assert rg.is_coretraction(g, sorted(witness.sub), witness.relation)


def test_cocore_fixed_point_and_property_n_star():
    rng = random.Random(13)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 7), p=0.45)
        core = rg.cocore(g)
        assert rg.cocore(core) == core
        assert rg.property_n_star(core)


def test_cocore_oracle_agreement_small():
    for g in rg.all_graphs_up_to(4):
        oracle = rg.cocore_oracle(g)
        assert rg.find_isomorphism(rg.cocore(g), oracle) is not None
        assert rg.find_isomorphism(rg.cocore(g, mode="fixpoint"), oracle) is not None
        assert rg.cocore(g, mode="fixpoint") == rg.cocore(g, mode="literal")
    with pytest.raises(ValueError, match="unknown mode"):
        rg.cocore(rg.cycle_graph(4), mode="stale")


def test_cocore_oracle_instances():
    assert rg.cocore_oracle(rg.cycle_graph(4)) == rg.complete_graph(2)
    assert rg.cocore_oracle(rg.complete_graph(3)) == rg.complete_graph(3)
    edge = rg.complete_graph(2)
    assert rg.cocore_oracle(edge) == edge
    with pytest.raises(rg.CapExceededError):
        rg.cocore_oracle(rg.empty_graph(8))


def test_self_relation_characterization_instances():
    assert rg.all_self_relations_are_automorphisms(rg.cycle_graph(5), verify=True)
    assert not rg.all_self_relations_are_automorphisms(rg.cycle_graph(4), verify=True)
    assert rg.all_self_relations_are_automorphisms(rg.empty_graph(1), verify=True)
    # the five-cycle's solutions are exactly its ten symmetries
    ss, _ = rg.solve(rg.SolveQuery(rg.cycle_graph(5), rg.cycle_graph(5), enumeration="all"))
    assert len(ss.solutions) == 10
    c4 = rg.cycle_graph(4)
    extra = rg.identity_relation(4).union(rg.relation_from_pairs(4, 4, [(0, 2)]))
    assert rg.apply_strong(c4, extra) == c4


def test_self_relation_checks_raise_witness_errors(monkeypatch):
    from types import SimpleNamespace

    from relgraph import retract, solver

    # C5 has property N, so its answer is re-checked against the solver's
    # self-solutions; one that is no automorphism must fail that check.
    c5 = rg.cycle_graph(5)
    collapse = rg.relation_from_pairs(5, 5, [(x, 0) for x in range(5)])
    monkeypatch.setattr(
        solver, "solve", lambda query: (SimpleNamespace(solutions=(collapse,)), None)
    )
    with pytest.raises(rg.WitnessCheckError, match="non-automorphism"):
        rg.all_self_relations_are_automorphisms(c5, verify=True)
    # C4 lacks it, so its counterexample is re-checked instead.
    monkeypatch.setattr(retract, "is_automorphism_relation", lambda g, rel: True)
    with pytest.raises(rg.WitnessCheckError, match="counterexample"):
        rg.all_self_relations_are_automorphisms(rg.cycle_graph(4), verify=True)


def test_self_relation_monoid_closure_small():
    rng = random.Random(17)
    for g in rg.all_graphs_up_to(4):
        if g.n == 0:
            continue
        ss, _ = rg.solve(rg.SolveQuery(g, g, enumeration="all"))
        sols = set(ss.solutions)
        assert rg.identity_relation(g.n) in sols
        pool = list(sols)
        if len(pool) ** 2 <= 4000:
            pairs = [(a, b) for a in pool for b in pool]
        else:
            pairs = [
                (pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))])
                for _ in range(4000)
            ]
        for a, b in pairs:
            assert a.compose(b) in sols


def test_core_transfer_through_retained_witnesses():
    rng = random.Random(19)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6), p=0.5)
        core, witness = rg.graph_core_with_witness(g)
        sub = sorted(witness.sub)
        idx = {v: i for i, v in enumerate(sub)}
        to_core = rg.relation_from_pairs(
            g.n, core.n, [(x, idx[b]) for x, b in witness.relation.pairs]
        )
        # relations out of the core lift to relations out of the graph
        k = rg.apply_strong(core, rg.identity_relation(core.n))
        assert rg.apply_strong(g, to_core.compose(rg.identity_relation(core.n))) == k
        # and all the way through an arbitrary second hop
        target = rg.relation_from_pairs(
            core.n, 1, [(i, 0) for i in range(core.n)]
        )
        if rg.apply_strong(core, target) == rg.apply_strong(g, to_core.compose(target)):
            continue
        raise AssertionError("transfer through the core witness failed")


def test_cocore_transfer_through_retained_witnesses():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6), p=0.5)
        if g.isolated_vertices():
            continue
        core, witness = rg.cocore_with_witness(g)
        sub = sorted(witness.sub)
        idx = {v: i for i, v in enumerate(sub)}
        from_core = rg.relation_from_pairs(
            core.n, g.n, [(idx[x], b) for x, b in witness.relation.pairs]
        )
        assert rg.apply_strong(core, from_core) == g
        # anything generated from the full graph is generated from the core
        rel = rg.relation_from_pairs(g.n, 1, [(x, 0) for x in range(g.n)])
        assert rg.apply_strong(core, from_core.compose(rel)) == rg.apply_strong(g, rel)
