import dataclasses
import importlib
import pickle
import random
import subprocess
import sys

import pytest

import relgraph as rg
from relgraph import core
from helpers import (
    all_labelled_rows,
    blow_up,
    brute_chromatic,
    brute_isomorphic,
    floyd_warshall,
    frozen_degeneracy_order,
    random_graph,
    random_image_full_relation,
    reference_sweep,
    relabel,
    relation_to_mask,
    union_find_components,
)


def test_graph_construction_normalizes_and_validates():
    g = rg.graph_from_edges(3, [(1, 0), (0, 1), (2, 2)])
    assert g.edges == frozenset({(0, 1), (2, 2)})
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert g.neighbors(2) == frozenset({2})
    with pytest.raises(ValueError):
        rg.Graph(2, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        rg.Graph(2, frozenset({(1, 0)}))  # not normalized
    assert rg.Graph._of_rows((0b10, 0b01)) == rg.path_graph(2)
    for bad in ((0b100, 0), (-1, 0)):
        with pytest.raises(ValueError):
            rg.Graph._of_rows(bad)


def test_graph_equality_ignores_labels():
    a = rg.graph_from_edges(2, [(0, 1)], labels=["x", "y"])
    b = rg.graph_from_edges(2, [(0, 1)])
    assert a == b and hash(a) == hash(b)


def test_graph_builders_match_the_graph_of_their_edges():
    """Each builder, working on adjacency rows, against ``Graph(n, edges)``
    built from the same edges: equal, hashing equal, with the same edges."""
    rng = random.Random(29)
    graphs = rg.all_graphs_up_to(4, loops=True)
    for g in graphs:
        n = g.n
        edges = frozenset((u, v) for u in range(n) for v in range(u, n) if g.adjacency[u] >> v & 1)
        pairs = frozenset((u, v) for u in range(n) for v in range(u + 1, n))
        built = [
            (g, edges),
            (rg.Graph(g.n, g.edges, g.labels), edges),
            (rg.complete_graph(n), pairs),
            (rg.empty_graph(n), frozenset()),
        ]
        if g.is_simple:
            built.append((rg.complement(g), pairs - edges))
        other = rng.choice(graphs)
        shifted = {(u + n, v + n) for u, v in other.edges}
        built.append((rg.disjoint_union(g, other), edges | shifted))
        labelled = rg.graph_from_edges(n, edges, labels=[f"v{v}" for v in range(n)])
        kept = sorted(rng.sample(range(n), rng.randint(0, n)))
        index = {v: i for i, v in enumerate(kept)}
        sub = rg.induced_subgraph(labelled, reversed(kept))
        assert sub.labels == tuple(f"v{v}" for v in kept)
        inside = {(index[u], index[v]) for u, v in edges if u in index and v in index}
        built.append((sub, inside))
        for graph, reference in built:
            expected = rg.Graph(graph.n, reference)
            assert graph == expected and hash(graph) == hash(expected), (g, graph)
            assert graph.edges == reference


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
        assert relation_to_mask(r) == sum(1 << (b * n + x) for x, b in pairs)
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


def _invariant_suite():
    """Every graph up to 5 vertices with loops, relabelled, then 200 seeded
    random graphs up to 40 vertices, some of them looped."""
    for i, g in enumerate(rg.all_graphs_up_to(5, loops=True)):
        yield relabel(g, seed=i)
    rng = random.Random(26)
    for _ in range(200):
        yield random_graph(rng, rng.randint(1, 40), p=rng.choice((0.03, 0.08, 0.3)),
                           loops=rng.random() < 0.3)


def test_sweep_invariants_match_union_find_and_floyd_warshall():
    for g in _invariant_suite():
        comps = union_find_components(g)
        assert rg.components(g) == comps
        assert rg.is_connected(g) == (len(comps) <= 1)
        dist = floyd_warshall(g)
        assert rg.distance_matrix(g) == dist
        ecc = [max(row) for row in dist]
        assert core.eccentricities(g) == ecc
        assert (rg.radius(g), rg.diameter(g)) == (min(ecc), max(ecc))


def test_cached_invariants_leave_the_graph_value_alone():
    """A graph caches its component masks and eccentricities on first use,
    as it does ``edges``; with them cached it still compares, hashes,
    reprs and pickles as a fresh graph. ``is_connected`` is one sweep that
    caches nothing."""
    for g in _invariant_suite():
        fresh = rg.Graph._of_rows(g.adjacency)
        before = dict(g.__dict__)
        assert rg.is_connected(g) == (len(union_find_components(fresh)) <= 1)
        assert g.__dict__ == before
        ecc, comps = core.eccentricities(g), rg.components(g)
        assert {"_eccentricities", "_components"} <= g.__dict__.keys()
        assert (core.eccentricities(g), rg.components(g)) == (ecc, comps)
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
        clone = pickle.loads(pickle.dumps(g))
        assert clone == fresh and hash(clone) == hash(fresh) and repr(clone) == repr(fresh)
        assert (core.eccentricities(clone), rg.components(clone)) == (ecc, comps)


def test_chromatic_number_matches_brute_force_colouring():
    for g in rg.all_graphs_up_to(6):
        assert rg.chromatic_number(g) == brute_chromatic(g)


def test_degeneracy_order_is_unchanged():
    # The order fixes the colouring search's tree, and so its running time.
    for g in _invariant_suite():
        assert core._degeneracy_order(g) == frozen_degeneracy_order(g)


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


def test_one_sweep_pass_matches_both_former_forms():
    """The one-pass sweep deletes what the repeated pass on live rows and
    the single pass on full rows deleted, in the same order, with the same
    contributors and container, under both rules."""
    graphs = [
        rg.Graph._of_rows(rows)
        for loops, largest in ((True, 5), (False, 6))
        for n in range(largest + 1)
        for rows in all_labelled_rows(n, loops)
    ]
    rng = random.Random(22)
    for _ in range(120):
        graphs.append(random_graph(rng, rng.randint(6, 40), rng.random(), loops=rng.random() < 0.3))
    for seed in range(30):
        base = random_graph(rng, rng.randint(3, 8), rng.random(), loops=seed % 3 == 0)
        graphs.append(blow_up(base, rng.randint(2, 5), seed))
    for g in graphs:
        alive = sum(1 << v for v, row in enumerate(g.adjacency) if row)
        for rcore in (False, True):
            got = core._sweep(g, rcore=rcore)
            for fixpoint in (False, True):
                assert got == reference_sweep(g.adjacency, alive, rcore=rcore, fixpoint=fixpoint), (
                    g, rcore, fixpoint
                )


def test_weighted_graph_basics():
    from fractions import Fraction

    w = rg.weighted_graph(3, {(0, 1): Fraction(1, 2), (2, 1): 2})
    assert w.weight(1, 0) == Fraction(1, 2)
    assert w.weight(1, 2) == 2
    assert w.weight(0, 2) == 0
    assert w.to_graph() == rg.graph_from_edges(3, [(0, 1), (1, 2)])


def test_value_records_keep_their_semantics():
    """Construction, equality, hashing, repr and frozenness of every value
    record, as the frozen standard-library records they replace had them."""
    from fractions import Fraction

    r = rg.Relation(2, 2, [(0, 1), (1, 0)])
    ident = rg.identity_relation(2)
    classes = (frozenset({0, 2}), frozenset({1}))
    p3, k2 = rg.path_graph(3), rg.complete_graph(2)
    thin = (p3, rg.Partition(3, classes), k2,
            rg.Relation(3, 2, [(0, 0), (1, 1), (2, 0)]))
    # class, field values, the values of an unequal instance, the hash key
    # of given values, and the repr.
    cases = [
        (rg.Graph, (3, frozenset({(0, 1), (1, 2)}), ("a", "b", "c")),
         (3, frozenset({(0, 1)}), None),
         # The adjacency rows: edge (u, v) puts the other end in row w.
         lambda n, edges, labels: tuple(
             sum(1 << u + v - w for u, v in edges if w in (u, v)) for w in range(n)
         ),
         "Graph(n=3, edges=[(0, 1), (1, 2)])"),
        (rg.Partition, (3, classes), (3, (frozenset({0}), frozenset({1, 2}))),
         lambda size, classes: (size, frozenset(classes)),
         "Partition(universe_size=3, classes=(frozenset({0, 2}), frozenset({1})))"),
        (rg.Decomposition, (frozenset({0, 1}), 2, ((0, 1), (1, 0)), ident, ident, r),
         (frozenset({0, 1}), 2, ((0, 1), (1, 0)), ident, ident, ident), None,
         "Decomposition(domain_vertices=frozenset({0, 1}), mid_size=2, "
         "mid_pairs=((0, 1), (1, 0)), identity_on_domain=Relation(2x2, [(0, 0), (1, 1)]), "
         "duplicator=Relation(2x2, [(0, 0), (1, 1)]), "
         "contractor=Relation(2x2, [(0, 1), (1, 0)]))"),
        (rg.HallReport, (True, None, ((0, 1), (1, 0))), (False, frozenset({0, 1}), None), None,
         "HallReport(satisfied=True, violating_set=None, monomorphism=((0, 1), (1, 0)))"),
        (rg.ThinQuotient, thin, (rg.path_graph(3),) * 4, None,
         "ThinQuotient(source=Graph(n=3, edges=[(0, 1), (1, 2)]), "
         "partition=Partition(universe_size=3, classes=(frozenset({0, 2}), frozenset({1}))), "
         "thin_graph=Graph(n=2, edges=[(0, 1)]), "
         "class_relation=Relation(3x2, [(0, 0), (1, 1), (2, 0)]))"),
        (rg.EquivalenceWitness, ("strong", r, r), ("weak", r, r), None,
         "EquivalenceWitness(kind='strong', forward=Relation(2x2, [(0, 1), (1, 0)]), "
         "backward=Relation(2x2, [(0, 1), (1, 0)]))"),
        (rg.RetractionWitness, ("retraction", frozenset({0, 1}), r),
         ("coretraction", frozenset({0, 1}), r), None,
         "RetractionWitness(direction='retraction', sub=frozenset({0, 1}), "
         "relation=Relation(2x2, [(0, 1), (1, 0)]))"),
        (rg.Certificate, ("rcore", "y", (("rule", "components"),)), ("rcore", "y", ()), None,
         "Certificate(kind='rcore', detail='y', values=(('rule', 'components'),))"),
        (rg.SolutionSet, ((r,), (0,), (0,), True), ((r,), (0,), (0,), False), None,
         "SolutionSet(solutions=(Relation(2x2, [(0, 1), (1, 0)]),), minimal_elements=(0,), "
         "maximal_elements=(0,), complete=True)"),
        (rg.WeightedGraph, (2, ((0, 1, Fraction(1, 2)),)), (2, ((0, 1, Fraction(1)),)),
         lambda n, weights: (n, frozenset(weights)),
         "WeightedGraph(n=2, weights=((0, 1, Fraction(1, 2)),))"),
        (rg.SolveQuery, (p3, k2, "weak", "full", "exists", 10, 1.5),
         (p3, k2, "strong", "full", "exists", 10, 1.5), None,
         "SolveQuery(source=Graph(n=3, edges=[(0, 1), (1, 2)]), "
         "target=Graph(n=2, edges=[(0, 1)]), mode='weak', domain='full', "
         "enumeration='exists', node_budget=10, time_budget=1.5)"),
    ]
    for cls, values, other, key, text in cases:
        names = cls.__match_args__
        assert len(names) == len(values), cls
        key = key or (lambda *fields: fields)
        a, b, c = cls(*values), cls(**dict(zip(names, values))), cls(*other)
        assert tuple(getattr(b, name) for name in names) == values
        assert a == b and hash(a) == hash(b) == hash(key(*values)), cls
        assert a != c and not a == c and hash(c) == hash(key(*other)), cls
        assert a != values and repr(a) == repr(b) == text
        for name in (*names, "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(a, name)
        for args, kwargs in (
            (values + (None,), {}), (values, {"other": 1}), (values[:1], {names[0]: values[0]}),
            ((), {}),
        ):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
    assert rg.Graph.__match_args__ == ("n", "edges", "labels")
    assert rg.Graph(1, frozenset()).labels is None
    assert rg.Certificate("components", "x") == rg.Certificate("components", "x", ())
    assert rg.Certificate(detail="x", kind="components").values == ()
    with pytest.raises(ValueError):
        rg.Partition(universe_size=2, classes=(frozenset({0}),))

    class Renamed(rg.Certificate):
        pass

    assert Renamed.__match_args__ == ("kind", "detail", "values")
    assert Renamed("rcore", "y") != rg.Certificate("rcore", "y")

    assert rg.Relation.__match_args__ == ("domain_size", "image_size", "columns")
    s = rg.Relation(domain_size=2, image_size=2, pairs=[(1, 0), (0, 1)])
    assert s == r and hash(s) == hash(r) == hash((2, 2, (0b10, 0b01)))
    assert r != ident and repr(r) == "Relation(2x2, [(0, 1), (1, 0)])"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del r.columns

    g, h = rg.cycle_graph(5), rg.path_graph(2)
    query = rg.SolveQuery(g, h)
    assert query.__replace__(enumeration="exists") == rg.SolveQuery(
        g, h, enumeration="exists"
    )
    assert rg.SolveQuery.__match_args__ == (
        "source", "target", "mode", "domain", "enumeration", "node_budget", "time_budget"
    )
    assert query == rg.SolveQuery(g, h, "strong", "any", "all", None, None)
    looped = rg.graph_from_edges(2, [(0, 0), (0, 1)])
    big = rg.path_graph(core.SOLVER_VERTEX_CAP + 1)
    for kwargs, error in (
        ({"mode": "both"}, ValueError),
        ({"time_budget": float("nan")}, ValueError),
        ({"node_budget": 0}, ValueError),
        ({"source": looped, "mode": "weak"}, rg.LoopsNotAllowedError),
        ({"source": big, "enumeration": "all"}, rg.CapExceededError),
    ):
        with pytest.raises(error):
            rg.SolveQuery(**{"source": g, "target": h, **kwargs})
    # A copy is checked again; the cap is on the pair an exists-query searches.
    with pytest.raises(ValueError):
        query.__replace__(node_budget=0)
    assert rg.SolveQuery(big, h, enumeration="exists").source is big


def test_package_exports_resolve_to_their_defining_modules():
    for name in rg.__all__:
        obj = getattr(rg, name)
        assert obj.__module__.startswith("relgraph."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    assert set(rg.__all__) <= set(dir(rg))
    namespace: dict = {}
    exec("from relgraph import *", namespace)
    assert all(namespace[name] is getattr(rg, name) for name in rg.__all__)
    with pytest.raises(AttributeError, match="^module 'relgraph' has no attribute 'no_such_name'$"):
        rg.no_such_name


def test_bare_import_loads_no_submodule():
    probe = (
        "import sys, relgraph\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('relgraph.'))\n"
        "assert loaded() == [], loaded()\n"
        "assert relgraph.solver is sys.modules['relgraph.solver']\n"
        "assert relgraph.cycle_graph is sys.modules['relgraph.core'].cycle_graph\n"
        "assert 'relgraph.equivalence' not in sys.modules and 'fractions' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
