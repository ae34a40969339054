import dataclasses
import random

import pytest

import relgraph as rg
from helpers import brute_isomorphic, random_graph, random_image_full_relation


def test_graph_construction_normalizes_and_validates():
    g = rg.graph_from_edges(3, [(1, 0), (0, 1), (2, 2)])
    assert g.edges == frozenset({(0, 1), (2, 2)})
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.neighbors(2) == frozenset({2})
    with pytest.raises(ValueError):
        rg.Graph(2, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        rg.Graph(2, frozenset({(1, 0)}))  # not normalized


def test_graph_equality_ignores_labels():
    a = rg.graph_from_edges(2, [(0, 1)], labels=["x", "y"])
    b = rg.graph_from_edges(2, [(0, 1)])
    assert a == b and hash(a) == hash(b)


def test_loop_vertex_is_not_isolated():
    g = rg.graph_from_edges(2, [(0, 0)])
    assert g.isolated_vertices() == [1]
    assert g.loop_vertices() == [0]


def test_open_and_closed_neighborhoods():
    g = rg.graph_from_edges(4, [(0, 1), (1, 2), (2, 2)])
    assert g.neighbors(1) == frozenset({0, 2})
    assert g.closed_neighbors(1) == frozenset({0, 1, 2})
    assert g.neighbors(2) == frozenset({1, 2})  # the loop puts 2 in its own
    assert g.closed_neighbors(2) == frozenset({1, 2})
    assert g.neighbors(3) == frozenset()
    assert g.closed_neighbors(3) == frozenset({3})


def test_relation_views():
    r = rg.relation_from_pairs(2, 3, [(0, 0), (0, 2), (1, 1)])
    assert r.image_of(0) == frozenset({0, 2})
    assert r.preimage_of(1) == frozenset({1})
    assert r.domain_set == frozenset({0, 1})
    assert r.has_full_domain and r.has_full_image
    assert not r.is_functional and r.is_injective
    with pytest.raises(ValueError):
        rg.relation_from_pairs(2, 2, [(0, 5)])


def _random_pairs(rng, n, m):
    p = rng.choice((0.0, 0.2, 0.5, 0.9, 1.0))
    return frozenset((x, b) for x in range(n) for b in range(m) if rng.random() < p)


def test_relation_matches_a_pair_set_reference():
    """Every derived member and operation of the column-backed Relation
    against the same thing computed here from its pair set."""
    rng = random.Random(17)
    shapes = [(0, 0), (0, 4), (5, 0), (17, 3), (3, 17), (40, 5), (70, 2)]
    shapes += [(rng.randint(0, 6), rng.randint(0, 5)) for _ in range(400)]
    for n, m in shapes:
        pairs = _random_pairs(rng, n, m)
        r = rg.Relation(n, m, pairs)
        assert r.pairs == pairs
        for x in range(-1, n + 2):
            assert r.image_of(x) == {b for a, b in pairs if a == x}
        for b in range(-1, m + 2):
            assert r.preimage_of(b) == {x for x, c in pairs if c == b}
        domain = {x for x, _ in pairs}
        image = {b for _, b in pairs}
        assert r.domain_set == domain and r.image_set == image
        assert r.has_full_domain == (domain == set(range(n)))
        assert r.has_full_image == (image == set(range(m)))
        assert r.is_functional == (len(domain) == len(pairs))
        assert r.is_injective == (len(image) == len(pairs))
        assert r.column_masks() == [
            sum(1 << x for x, c in pairs if c == b) for b in range(m)
        ]
        assert r.row_masks() == [sum(1 << b for a, b in pairs if a == x) for x in range(n)]
        t = r.transpose()
        assert (t.domain_size, t.image_size) == (m, n)
        assert t.pairs == {(b, x) for x, b in pairs}
        k = rng.randint(0, 5)
        other = _random_pairs(rng, m, k)
        c = r.compose(rg.Relation(m, k, other))
        assert (c.domain_size, c.image_size) == (n, k)
        assert c.pairs == {(x, z) for x, b in pairs for a, z in other if a == b}
        more = _random_pairs(rng, n, m)
        assert r.union(rg.Relation(n, m, more)).pairs == pairs | more
        same = rg.relation_from_pairs(n, m, list(pairs))
        assert same == r and hash(same) == hash(r)
        assert rg.Relation._of_columns(n, m, r.column_masks()) == r
        assert r != rg.Relation(n + 1, m, pairs) and r != rg.Relation(n, m + 1, pairs)
        if n and m:
            toggled = pairs ^ {(rng.randrange(n), rng.randrange(m))}
            assert r != rg.Relation(n, m, toggled)
        assert r != pairs


def test_relation_constructors_check_their_input():
    with pytest.raises(dataclasses.FrozenInstanceError):
        rg.identity_relation(2).columns = (0, 0)
    for bad in ([0b1000, 0], [-1, 0], [1], [1, 1, 1]):
        with pytest.raises(ValueError):
            rg.Relation._of_columns(3, 2, bad)
    with pytest.raises(ValueError):
        rg.Relation._of_columns(-1, 0, [])
    for bad in ([(3, 0)], [(0, 2)], [(-1, 0)], [(0, -1)]):
        with pytest.raises(ValueError):
            rg.Relation(3, 2, bad)
    for n, m in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            rg.Relation(n, m, frozenset())
    wide = rg.Relation._of_columns(70, 1, [1 << 69])
    assert wide.pairs == {(69, 0)} and wide.image_of(69) == {0}


def test_transpose_examples():
    r = rg.relation_from_pairs(2, 3, [(0, 0), (0, 2), (1, 1)])
    assert rg.transpose(r) == rg.relation_from_pairs(3, 2, [(0, 0), (2, 0), (1, 1)])
    ident = rg.identity_relation(3)
    assert rg.transpose(ident) == ident


def test_transpose_involution_randomized():
    rng = random.Random(7)
    for _ in range(200):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        pairs = [
            (x, b) for x in range(n) for b in range(m) if rng.random() < 0.4
        ]
        r = rg.relation_from_pairs(n, m, pairs)
        assert rg.transpose(rg.transpose(r)) == r


def test_compose_identity_and_mismatch():
    rng = random.Random(11)
    for _ in range(50):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        r = random_image_full_relation(rng, n, m)
        assert r.compose(rg.identity_relation(m)) == r
        assert rg.identity_relation(n).compose(r) == r
    with pytest.raises(rg.UniverseMismatchError):
        rg.relation_from_pairs(2, 3, [(0, 0)]).compose(
            rg.relation_from_pairs(2, 2, [(0, 0)])
        )


def test_compose_associative_and_transpose_antihomomorphism():
    rng = random.Random(13)
    for _ in range(200):
        sizes = [rng.randint(1, 8) for _ in range(4)]
        def rand_rel(n, m):
            pairs = [(x, b) for x in range(n) for b in range(m) if rng.random() < 0.3]
            return rg.relation_from_pairs(n, m, pairs)
        r = rand_rel(sizes[0], sizes[1])
        s = rand_rel(sizes[1], sizes[2])
        t = rand_rel(sizes[2], sizes[3])
        assert r.compose(s).compose(t) == r.compose(s.compose(t))
        assert r.compose(s).transpose() == s.transpose().compose(r.transpose())


def test_partition_validation():
    p = rg.partition_from_classes(4, [{1, 3}, {0, 2}])
    assert p.classes[0] == frozenset({0, 2})
    assert p.class_of(3) == 1
    with pytest.raises(ValueError):
        rg.partition_from_classes(3, [{0, 1}])
    with pytest.raises(ValueError):
        rg.partition_from_classes(2, [{0, 1}, {1}])


def test_cycle_distances():
    c4 = rg.cycle_graph(4)
    d = rg.distance_matrix(c4)
    assert d[0][2] == 2 and d[0][1] == 1 and d[0][0] == 0


def test_distances_triangle_inequality_randomized():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), p=0.4)
        d = rg.distance_matrix(g)
        for x in range(g.n):
            assert d[x][x] == 0
            for y in range(g.n):
                for z in range(g.n):
                    assert d[x][z] <= d[x][y] + d[y][z]


def test_components_and_connectivity():
    g = rg.disjoint_union(rg.complete_graph(2), rg.empty_graph(2))
    assert rg.components(g) == [frozenset({0, 1}), frozenset({2}), frozenset({3})]
    assert not rg.is_connected(g)
    assert rg.is_connected(rg.cycle_graph(5))


def test_chromatic_numbers():
    assert rg.chromatic_number(rg.cycle_graph(3)) == 3
    assert rg.chromatic_number(rg.path_graph(3)) == 2
    assert rg.chromatic_number(rg.cycle_graph(5)) == 3
    assert rg.chromatic_number(rg.complete_graph(5)) == 5
    assert rg.chromatic_number(rg.empty_graph(4)) == 1
    assert rg.chromatic_number(rg.empty_graph(0)) == 0
    with pytest.raises(rg.LoopsNotAllowedError):
        rg.chromatic_number(rg.graph_from_edges(1, [(0, 0)]))


def test_complement_of_five_cycle_is_isomorphic_to_itself():
    c5 = rg.cycle_graph(5)
    assert brute_isomorphic(rg.complement(c5), c5)
    with pytest.raises(rg.LoopsNotAllowedError):
        rg.complement(rg.graph_from_edges(1, [(0, 0)]))


def test_induced_subgraph_keeps_original_names():
    g = rg.cycle_graph(4)
    sub = rg.induced_subgraph(g, [1, 3])
    assert sub.n == 2 and sub.edges == frozenset()
    assert sub.labels == ("1", "3")


def test_path_recognition():
    assert rg.path_length_of(rg.path_graph(1)) == 0
    assert rg.path_length_of(rg.path_graph(4)) == 3
    assert rg.path_length_of(rg.cycle_graph(4)) is None
    assert rg.path_length_of(rg.disjoint_union(rg.path_graph(2), rg.path_graph(2))) is None
    # A path's degree sequence, but not connected.
    assert rg.path_length_of(rg.disjoint_union(rg.path_graph(3), rg.cycle_graph(3))) is None


def test_weighted_graph_basics():
    from fractions import Fraction

    w = rg.weighted_graph(3, {(0, 1): Fraction(1, 2), (2, 1): 2})
    assert w.weight(1, 0) == Fraction(1, 2)
    assert w.weight(1, 2) == 2
    assert w.weight(0, 2) == 0
    assert w.to_graph() == rg.graph_from_edges(3, [(0, 1), (1, 2)])
