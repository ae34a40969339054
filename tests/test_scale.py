"""Deletion algorithms and equivalences on 100-vertex twin blow-ups.

Every witness is re-checked here through the matrix product oracle, and
every reduced form against the exhaustive oracles on the 5-vertex base.
"""

import random

import pytest

import relgraph as rg
from helpers import brute_isomorphic, matrix_composition

BASE = rg.path_graph(5)


def blow_up(base: rg.Graph, copies: int, seed: int) -> rg.Graph:
    """``copies`` mutual twins per base vertex, vertex labels shuffled."""
    g = rg.reduce_fulrel_to_shom(base, rg.empty_graph(copies))
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return rg.graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@pytest.fixture(scope="module")
def big():
    g = blow_up(BASE, 20, seed=3)
    assert g.n == 100
    return g


@pytest.fixture(scope="module")
def other():
    """Same base, 16 twins per vertex: equivalent to ``big`` both ways."""
    return blow_up(BASE, 16, seed=4)


def test_rcore_witness_at_scale(big):
    core, forward, backward = rg.rcore_with_witness(big)
    assert brute_isomorphic(core, rg.rcore_oracle(BASE))
    assert forward.has_full_domain and backward.has_full_domain
    assert matrix_composition(big, forward) == core
    assert matrix_composition(core, backward) == big


def test_cocore_witness_at_scale(big):
    core, witness = rg.cocore_with_witness(big)
    assert brute_isomorphic(core, rg.cocore_oracle(BASE))
    keep = sorted(witness.sub)
    assert core == rg.induced_subgraph(big, keep)
    index = {v: i for i, v in enumerate(keep)}
    assert all((v, v) in witness.relation.pairs for v in keep)
    dense = rg.relation_from_pairs(
        len(keep), big.n, [(index[x], b) for x, b in witness.relation.pairs]
    )
    assert matrix_composition(core, dense) == big


def test_thin_quotient_at_scale(big):
    tq = rg.thin_quotient(big)
    assert brute_isomorphic(tq.thin_graph, BASE)
    assert sorted(len(c) for c in tq.partition.classes) == [20] * 5
    assert matrix_composition(tq.thin_graph, tq.class_relation.transpose()) == big


def test_equivalences_at_scale(big, other):
    strong = rg.strongly_equivalent(big, other)
    assert strong is not None
    assert strong.backward == strong.forward.transpose()
    assert matrix_composition(big, strong.forward) == other
    assert matrix_composition(other, strong.backward) == big

    weak = rg.weakly_equivalent(big, other)
    assert weak is not None
    assert matrix_composition(big, weak.forward) == other
    assert matrix_composition(other, weak.backward) == big

    cycle = blow_up(rg.cycle_graph(5), 20, seed=5)
    assert rg.strongly_equivalent(big, cycle) is None
    assert rg.weakly_equivalent(big, cycle) is None
