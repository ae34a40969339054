import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import relgraph as rg
from helpers import brute_isomorphic, random_graph


def test_thin_quotient_of_four_cycle():
    tq = rg.thin_quotient(rg.cycle_graph(4))
    assert tq.partition.classes == (frozenset({0, 2}), frozenset({1, 3}))
    assert tq.thin_graph == rg.complete_graph(2)
    assert rg.apply_strong(tq.thin_graph, tq.class_relation.transpose()) == tq.source


def test_thin_quotient_idempotent():
    rng = random.Random(83)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 7), p=0.5, loops=True)
        thin = rg.thin_quotient(g).thin_graph
        again = rg.thin_quotient(thin)
        assert len(again.partition.classes) == thin.n
        assert again.thin_graph == thin


def test_find_isomorphism_agrees_with_brute_force():
    rng = random.Random(89)
    suite = rg.all_graphs(4)
    for a in suite:
        for b in suite:
            got = rg.find_isomorphism(a, b)
            assert (got is not None) == brute_isomorphic(a, b)
            if got is not None:
                assert all(
                    b.has_edge(got[u], got[v]) == a.has_edge(u, v)
                    for u in range(a.n)
                    for v in range(u, a.n)
                )
    # shuffled copies at a larger size
    for _ in range(40):
        g = random_graph(rng, 7, p=0.5, loops=True)
        perm = list(range(7))
        rng.shuffle(perm)
        h = rg.graph_from_edges(7, [(perm[u], perm[v]) for u, v in g.edges])
        assert rg.find_isomorphism(g, h) is not None


def test_find_isomorphism_separates_generated_classes():
    # all_graphs holds one graph per class, so a shuffled copy of b is
    # isomorphic to a exactly when a is b. Some of these pairs share their
    # cell sizes at every depth of the search and differ only in the rows.
    rng = random.Random(97)
    for n, loops in ((6, False), (4, True)):
        suite = rg.all_graphs(n, loops=loops)
        shuffled = []
        for b in suite:
            perm = list(range(n))
            rng.shuffle(perm)
            shuffled.append(rg.graph_from_edges(n, [(perm[u], perm[v]) for u, v in b.edges]))
        for i, a in enumerate(suite):
            for j, b in enumerate(shuffled):
                got = rg.find_isomorphism(a, b)
                assert (got is not None) == (i == j)
                if got is not None:
                    assert sorted(got) == list(range(n))
                    assert all(
                        b.has_edge(got[u], got[v]) == a.has_edge(u, v)
                        for u in range(n)
                        for v in range(u, n)
                    )


def test_find_isomorphism_negative_cases():
    assert rg.find_isomorphism(rg.complete_graph(3), rg.path_graph(3)) is None
    c5 = rg.cycle_graph(5)
    assert rg.find_isomorphism(c5, rg.complement(c5)) is not None
    g = rg.cycle_graph(6)
    assert rg.find_isomorphism(g, g) == tuple(range(6))


def seven_vertex_weak_pair():
    """A pair that is weakly but not strongly equivalent.

    The larger graph adds a vertex whose neighborhood is the union of two
    existing ones; contracting it onto a dominating twin goes one way,
    duplicating the two generators goes back.
    """
    g = rg.graph_from_edges(7, [(0, 1), (1, 3), (1, 5), (3, 4), (5, 6), (2, 3), (2, 5)])
    h = rg.graph_from_edges(6, [(0, 1), (1, 2), (1, 4), (2, 3), (4, 5)])
    forward = rg.relation_from_pairs(
        7, 6, [(0, 0), (1, 1), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5)]
    )
    backward = rg.relation_from_pairs(
        6, 7, [(0, 0), (1, 1), (2, 3), (3, 4), (4, 5), (5, 6), (3, 2), (5, 2)]
    )
    return g, h, forward, backward


def test_weak_pair_fixture_validates():
    g, h, fwd, bwd = seven_vertex_weak_pair()
    assert rg.apply_strong(g, fwd) == h
    assert rg.apply_strong(h, bwd) == g
    assert rg.weakly_equivalent(g, h) is not None
    assert rg.strongly_equivalent(g, h) is None
    assert rg.thin_quotient(g).thin_graph.n != rg.thin_quotient(h).thin_graph.n


def test_strong_equivalence_through_shared_quotient():
    # a four-cycle and a path with twin endpoints share the same quotient
    c4, p2 = rg.cycle_graph(4), rg.path_graph(3)
    witness = rg.strongly_equivalent(c4, p2)
    assert witness is not None
    assert witness.backward == witness.forward.transpose()
    assert rg.apply_strong(c4, witness.forward) == p2
    assert rg.apply_strong(p2, witness.backward) == c4
    assert rg.strongly_equivalent(c4, rg.cycle_graph(5)) is None
    g = rg.cycle_graph(6)
    assert rg.strongly_equivalent(g, g) is not None


def test_rcore_instances():
    assert rg.rcore(rg.cycle_graph(4)) == rg.complete_graph(2)
    c5 = rg.cycle_graph(5)
    assert rg.rcore(c5) == c5  # containment-free neighborhoods: nothing fires
    two_plus_iso = rg.disjoint_union(rg.complete_graph(2), rg.empty_graph(1))
    assert rg.rcore(two_plus_iso) == two_plus_iso
    assert rg.rcore(rg.empty_graph(3)) == rg.empty_graph(1)
    assert rg.rcore(rg.empty_graph(0)).n == 0


def test_rcore_witnesses_validate():
    rng = random.Random(97)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), p=0.45, loops=rng.random() < 0.2)
        core, fwd, bwd = rg.rcore_with_witness(g)
        assert rg.apply_strong(g, fwd) == core
        assert rg.apply_strong(core, bwd) == g
        assert fwd.has_full_domain and bwd.has_full_domain


def test_rcore_idempotent_and_thin():
    rng = random.Random(101)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), p=0.45)
        core = rg.rcore(g)
        assert rg.find_isomorphism(rg.rcore(core), core) is not None
        assert rg.is_thin(core)


def test_rcore_oracle_agreement_small():
    for g in rg.all_graphs_up_to(4):
        oracle = rg.rcore_oracle(g)
        assert rg.find_isomorphism(rg.rcore(g), oracle) is not None
        assert rg.find_isomorphism(rg.rcore(g, mode="literal"), oracle) is not None
        assert rg.rcore(g, mode="literal") == rg.rcore(g, mode="fixpoint")
    with pytest.raises(ValueError, match="unknown mode"):
        rg.rcore(rg.cycle_graph(4), mode="stale")


def test_rcore_oracle_instances():
    assert rg.rcore_oracle(rg.cycle_graph(4)) == rg.complete_graph(2)
    assert rg.rcore_oracle(rg.complete_graph(3)) == rg.complete_graph(3)
    assert rg.rcore_oracle(rg.empty_graph(1)) == rg.empty_graph(1)
    with pytest.raises(rg.CapExceededError):
        rg.rcore_oracle(rg.empty_graph(9))


def test_weak_equivalence_instances():
    assert rg.weakly_equivalent(rg.cycle_graph(4), rg.complete_graph(2)) is not None
    w = rg.weakly_equivalent(rg.cycle_graph(4), rg.cycle_graph(5))
    assert w is None


def test_strong_implies_weak_on_suite_pairs():
    suite = rg.all_graphs_up_to(4)
    for i, g in enumerate(suite):
        for h in suite[i:]:
            if rg.strongly_equivalent(g, h) is not None:
                assert rg.weakly_equivalent(g, h) is not None


def test_equivalences_are_equivalence_relations_on_pool():
    rng = random.Random(103)
    pool = rg.all_graphs_up_to(3) + [random_graph(rng, n, 0.5) for n in (4, 4, 5, 5)]
    for kind in (rg.strongly_equivalent, rg.weakly_equivalent):
        results = {}
        for i, g in enumerate(pool):
            assert kind(g, g) is not None
            for j, h in enumerate(pool):
                results[i, j] = kind(g, h) is not None
        for i in range(len(pool)):
            for j in range(len(pool)):
                assert results[i, j] == results[j, i]
                for k in range(len(pool)):
                    if results[i, j] and results[j, k]:
                        assert results[i, k]


WITNESS_CHECKS_UNDER_O = """
import relgraph as rg
from relgraph import equivalence, retract

try:
    assert False
except AssertionError:
    raise SystemExit("assert statements are still active")


def corrupted(rel):
    # Every pair: still full domain and image, but generates loops.
    everything = {(x, b) for x in range(rel.domain_size) for b in range(rel.image_size)}
    return rg.Relation(rel.domain_size, rel.image_size, frozenset(everything))


def expect_check_error(call):
    try:
        call()
    except rg.WitnessCheckError:
        return
    raise SystemExit(f"{call} returned without a witness check firing")


c4, p3 = rg.cycle_graph(4), rg.path_graph(3)
if rg.weakly_equivalent(c4, p3) is None:
    raise SystemExit("C4 and P3 must be weakly equivalent")

# R-core maps whose backward map sends every core vertex everywhere:
# rcore_with_witness's own check must fire, and with it weakly_equivalent's.
build = equivalence._rcore_maps


def bad_build(g, survivors, trace):
    keep, forward, backward = build(g, survivors, trace)
    return keep, forward, [(1 << len(keep)) - 1] * len(backward)


equivalence._rcore_maps = bad_build
expect_check_error(lambda: rg.rcore_with_witness(c4))
expect_check_error(lambda: rg.weakly_equivalent(c4, p3))
equivalence._rcore_maps = build

# A reduced form with a corrupted backward relation: weakly_equivalent's
# check on the composed witness must fire.
rcore_with_witness = equivalence.rcore_with_witness


def bad_rcore(g):
    core, forward, backward = rcore_with_witness(g)
    return core, forward, corrupted(backward)


equivalence.rcore_with_witness = bad_rcore
expect_check_error(lambda: rg.weakly_equivalent(c4, p3))

# A deletion sweep that loses a survivor: cocore_with_witness's
# coretraction check must fire.
sweep = retract._sweep


def lossy_sweep(*args, **kwargs):
    survivors, trace = sweep(*args, **kwargs)
    return survivors & (survivors - 1), trace


retract._sweep = lossy_sweep
expect_check_error(lambda: rg.cocore_with_witness(c4))
print("checked")
"""


def test_witness_checks_survive_python_O():
    src = str(Path(rg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", WITNESS_CHECKS_UNDER_O],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "checked"
