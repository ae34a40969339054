"""Deletion algorithms and equivalences on 100-vertex twin blow-ups.

Every witness is re-checked here through the matrix product oracle, and
every reduced form against the exhaustive oracles on the 5-vertex base.
"""

import pytest

import relgraph as rg
from helpers import blow_up, brute_isomorphic, matrix_composition, relabel

BASE = rg.path_graph(5)


@pytest.fixture(scope="module")
def big():
    g = blow_up(BASE, 20, seed=3)
    assert g.n == 100
    return g


LOOP = rg.graph_from_edges(1, [(0, 0)])


@pytest.fixture(scope="module")
def swept(big):
    """Inputs for the deletion algorithms, each with a map from a reduced
    form of the base to the reduced form expected of the input.

    The second input adds 3 isolated vertices, which collapse to one, and a
    vertex whose only neighbour is itself, which no rule deletes: no other
    neighbourhood lies inside its own or contains it.
    """
    extended = rg.disjoint_union(rg.disjoint_union(big, LOOP), rg.empty_graph(3))
    return [
        (big, lambda core: core),
        (
            relabel(extended, seed=6),
            lambda core: rg.disjoint_union(rg.disjoint_union(core, LOOP), rg.empty_graph(1)),
        ),
    ]


@pytest.fixture(scope="module")
def other():
    """Same base, 16 twins per vertex: equivalent to ``big`` both ways."""
    return blow_up(BASE, 16, seed=4)


def test_rcore_witness_at_scale(swept):
    for g, expect in swept:
        core, forward, backward = rg.rcore_with_witness(g)
        assert brute_isomorphic(core, expect(rg.rcore_oracle(BASE)))
        assert forward.has_full_domain and backward.has_full_domain
        assert matrix_composition(g, forward) == core
        assert matrix_composition(core, backward) == g
        assert rg.rcore(g) == core


def test_cocore_witness_at_scale(swept):
    for g, expect in swept:
        core, witness = rg.cocore_with_witness(g)
        assert brute_isomorphic(core, expect(rg.cocore_oracle(BASE)))
        keep = sorted(witness.sub)
        assert core == rg.induced_subgraph(g, keep)
        index = {v: i for i, v in enumerate(keep)}
        assert all((v, v) in witness.relation.pairs for v in keep)
        dense = rg.relation_from_pairs(
            len(keep), g.n, [(index[x], b) for x, b in witness.relation.pairs]
        )
        assert matrix_composition(core, dense) == g
        assert rg.cocore(g) == core


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


def test_witness_checks_compare_rows(big, other):
    """No call derives its 100-vertex inputs' edge sets: each witness check
    compares adjacency rows."""
    calls = (
        lambda g, h: rg.rcore_with_witness(g),
        lambda g, h: rg.cocore_with_witness(g),
        lambda g, h: rg.thin_quotient(g),
        rg.strongly_equivalent,
        rg.weakly_equivalent,
    )
    for call in calls:
        g, h = rg.Graph._of_rows(big.adjacency), rg.Graph._of_rows(other.adjacency)
        assert call(g, h) is not None
        assert "edges" not in g.__dict__ and "edges" not in h.__dict__


def moebius_ladder(n: int) -> rg.Graph:
    """The n-cycle plus its n/2 antipodal chords: 3-regular, vertex-transitive."""
    return rg.graph_from_edges(
        n, [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)]
    )


def prism(n: int) -> rg.Graph:
    """Two n/2-cycles joined by a perfect matching: 3-regular like the ladder."""
    k = n // 2
    rims = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    return rg.graph_from_edges(n, rims + [(i, k + i) for i in range(k)])


def test_equivalences_on_a_vertex_transitive_graph():
    # Colour refinement alone leaves one cell here; the isomorphism comes
    # from individualizing vertices.
    g = moebius_ladder(400)
    h = relabel(g, seed=7)
    for witness in (rg.strongly_equivalent(g, h), rg.weakly_equivalent(g, h)):
        assert witness is not None
        assert matrix_composition(g, witness.forward) == h
        assert matrix_composition(h, witness.backward) == g


def test_isomorphism_rejects_prism_against_moebius_ladder():
    g, h = relabel(prism(40), seed=8), moebius_ladder(40)
    assert sorted(g.degree(v) for v in range(40)) == sorted(h.degree(v) for v in range(40))
    assert rg.find_isomorphism(g, h) is None
    assert rg.strongly_equivalent(g, h) is None
