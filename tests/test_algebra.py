import random
from fractions import Fraction

import pytest

import relgraph as rg
from helpers import (
    matrix_composition,
    random_full_relation,
    random_graph,
    random_image_full_relation,
)


def triangle_to_edge():
    return rg.cycle_graph(3), rg.relation_from_pairs(3, 2, [(0, 0), (1, 1)])


def test_strong_composition_basic_instances():
    c3, r1 = triangle_to_edge()
    assert rg.apply_strong(c3, r1) == rg.complete_graph(2)
    # identity is neutral
    rng = random.Random(2)
    for _ in range(30):
        g = random_graph(rng, rng.randint(0, 6), p=0.5, loops=True)
        assert rg.apply_strong(g, rg.identity_relation(g.n)) == g
    # edge to longer path through a duplicating relation
    p1, p2 = rg.path_graph(2), rg.path_graph(3)
    r = rg.relation_from_pairs(2, 3, [(0, 0), (0, 2), (1, 1)])
    assert rg.apply_strong(p1, r) == p2


def test_strong_composition_validates_inputs():
    c3, r1 = triangle_to_edge()
    with pytest.raises(rg.UniverseMismatchError):
        rg.apply_strong(rg.complete_graph(2), r1)
    with pytest.raises(rg.ImageNotFullError):
        rg.apply_strong(c3, rg.relation_from_pairs(3, 2, [(0, 0)]))


def test_weak_composition_drops_loops():
    k3 = rg.complete_graph(3)
    r = rg.relation_from_pairs(3, 2, [(0, 0), (2, 0), (1, 1)])
    assert rg.apply_weak(k3, r) == rg.complete_graph(2)
    strong = rg.apply_strong(k3, r)
    assert (0, 0) in strong.edges  # the loop the weak form discards
    with pytest.raises(rg.LoopsNotAllowedError):
        rg.apply_weak(rg.graph_from_edges(1, [(0, 0)]), rg.identity_relation(1))
    g = rg.path_graph(4)
    assert rg.apply_weak(g, rg.identity_relation(4)) == g


def test_composition_matches_matrix_product():
    rng = random.Random(29)
    for i in range(600):
        n, m = rng.randint(1, 12), rng.randint(1, 8)
        loops = i % 2 == 0
        g = random_graph(rng, n, p=rng.uniform(0.1, 0.9), loops=loops)
        extra = 0.05 if i % 3 == 0 else rng.uniform(0.2, 0.8)  # sparse or dense
        r = random_image_full_relation(rng, n, m, extra=extra)
        assert rg.apply_strong(g, r) == matrix_composition(g, r)
        if not loops:
            assert rg.apply_weak(g, r) == matrix_composition(g, r, weak=True)
    # beyond any per-graph table of all 2^n source subsets
    g = random_graph(rng, 64, p=0.1)
    r = random_full_relation(rng, 64, 40, extra=0.02)
    assert rg.apply_strong(g, r) == matrix_composition(g, r)
    assert rg.apply_weak(g, r) == matrix_composition(g, r, weak=True)


def test_weak_equals_irreflexive_part_of_strong():
    rng = random.Random(23)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 6), p=0.5)
        r = random_image_full_relation(rng, g.n, rng.randint(1, 6))
        strong = rg.apply_strong(g, r)
        weak = rg.apply_weak(g, r)
        assert weak.edges == frozenset(e for e in strong.edges if e[0] != e[1])


def matrix_product_weights(wg, rel):
    """Independent oracle: transpose(R) . W . R by naive triple loop."""
    n, m = wg.n, rel.image_size
    r = [[1 if (x, b) in rel.pairs else 0 for b in range(m)] for x in range(n)]
    w = [[wg.weight(x, y) for y in range(n)] for x in range(n)]
    out = {}
    for u in range(m):
        for v in range(u, m):
            total = Fraction(0)
            for x in range(n):
                for y in range(n):
                    total += r[x][u] * w[x][y] * r[y][v]
            if total:
                out[(u, v)] = total
    return rg.weighted_graph(m, out)


def test_weighted_composition_examples():
    c3 = rg.cycle_graph(3)
    wc3 = rg.unit_weights(c3)
    r1 = rg.relation_from_pairs(3, 2, [(0, 0), (1, 1)])
    res = rg.apply_weighted(wc3, r1)
    assert res.weight(0, 1) == 1 and res.weight(0, 0) == 0
    assert res.to_graph() == rg.complete_graph(2)
    rng = random.Random(31)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 5), p=0.6, loops=True)
        wg = rg.unit_weights(g)
        assert rg.apply_weighted(wg, rg.identity_relation(g.n)) == wg


def test_weighted_composition_matches_matrix_oracle():
    rng = random.Random(37)
    for _ in range(100):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        entries = {}
        for u in range(n):
            for v in range(u, n):
                if rng.random() < 0.4:
                    entries[(u, v)] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        wg = rg.weighted_graph(n, entries)
        pairs = [(x, b) for x in range(n) for b in range(m) if rng.random() < 0.35]
        rel = rg.relation_from_pairs(n, m, pairs)
        assert rg.apply_weighted(wg, rel) == matrix_product_weights(wg, rel)


def test_weighted_boolean_collapse_matches_strong():
    rng = random.Random(41)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 6), p=0.5, loops=True)
        r = random_image_full_relation(rng, g.n, rng.randint(1, 6))
        assert rg.apply_weighted(rg.unit_weights(g), r).to_graph() == rg.apply_strong(g, r)


def test_decompose_explicit_instance():
    rel = rg.relation_from_pairs(2, 3, [(0, 0), (0, 2), (1, 1)])
    dec = rg.decompose(rel)
    assert dec.domain_vertices == frozenset({0, 1})
    assert dec.mid_size == 3
    assert dec.mid_pairs == ((0, 0), (0, 2), (1, 1))
    assert dec.duplicator == rg.relation_from_pairs(2, 3, [(0, 0), (0, 1), (1, 2)])
    assert dec.contractor == rg.relation_from_pairs(3, 3, [(0, 0), (1, 2), (2, 1)])
    assert dec.recomposed() == rel


def test_decompose_functional_relation_is_bijective_duplication():
    rel = rg.relation_from_pairs(3, 2, [(0, 0), (1, 1), (2, 1)])
    dec = rg.decompose(rel)
    assert dec.duplicator.is_functional and dec.duplicator.is_injective
    assert dec.mid_size == len(rel.pairs)
    # vertex with empty image stays out of the retained domain
    rel2 = rg.relation_from_pairs(3, 2, [(0, 0), (2, 1)])
    assert 1 not in rg.decompose(rel2).domain_vertices


def test_decompose_recompose_randomized_and_factor_equation():
    rng = random.Random(43)
    for _ in range(200):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        g = random_graph(rng, n, p=0.5, loops=True)
        rel = random_image_full_relation(rng, n, m)
        dec = rg.decompose(rel)
        assert dec.recomposed() == rel
        # factoring the equation through the intermediate universe
        dom = sorted(dec.domain_vertices)
        idx = {v: i for i, v in enumerate(dom)}
        dup_dense = rg.relation_from_pairs(
            len(dom), dec.mid_size, [(idx[x], i) for x, i in dec.duplicator.pairs]
        )
        mid = rg.apply_strong(rg.induced_subgraph(g, dom), dup_dense)
        assert rg.apply_strong(mid, dec.contractor) == rg.apply_strong(g, rel)


def test_hall_check_instances():
    sat = rg.hall_check(rg.relation_from_pairs(2, 3, [(0, 0), (0, 2), (1, 1)]))
    assert sat.satisfied and sat.monomorphism_map() == {0: 0, 1: 1}
    pigeon = rg.hall_check(rg.relation_from_pairs(2, 1, [(0, 0), (1, 0)]))
    assert not pigeon.satisfied and pigeon.violating_set == frozenset({0, 1})
    ident = rg.hall_check(rg.identity_relation(4))
    assert ident.satisfied and ident.monomorphism_map() == {i: i for i in range(4)}


def _recursive_matching(rel):
    """Kuhn's augmenting paths, recursively, trying targets in ascending
    order: the matching ``hall_check`` must find, on small relations."""
    match = {}

    def augment(x, seen):
        for b in sorted(rel.image_of(x)):
            if b not in seen:
                seen.add(b)
                if b not in match or augment(match[b], seen):
                    match[b] = x
                    return True
        return False

    for x in range(rel.domain_size):
        augment(x, set())
    return tuple(sorted((x, b) for b, x in match.items()))


def test_hall_check_matches_the_recursive_matching():
    rng = random.Random(53)
    for _ in range(300):
        n, m = rng.randint(0, 7), rng.randint(0, 7)
        p = rng.choice((0.2, 0.4, 0.7))
        rel = rg.relation_from_pairs(
            n, m, [(x, b) for x in range(n) for b in range(m) if rng.random() < p]
        )
        report = rg.hall_check(rel)
        matching = _recursive_matching(rel)
        assert report.satisfied == (len(matching) == n)
        if report.satisfied:
            assert report.monomorphism == matching


def test_hall_check_follows_augmenting_paths_longer_than_the_recursion_limit():
    # x -> {x, x + 1}, and the last vertex -> {0}: a perfect matching whose
    # last augmenting path runs through all 1,200 vertices.
    n = 1200
    pairs = [(x, b) for x in range(n - 1) for b in (x, x + 1)] + [(n - 1, 0)]
    report = rg.hall_check(rg.relation_from_pairs(n, n, pairs))
    assert report.satisfied
    assert report.monomorphism == tuple([(x, x + 1) for x in range(n - 1)] + [(n - 1, 0)])


def test_hall_monomorphism_embeds_into_the_composition():
    rng = random.Random(47)
    found = 0
    while found < 150:
        g = random_graph(rng, rng.randint(1, 6), p=0.5)
        rel = random_image_full_relation(rng, g.n, rng.randint(1, 7), extra=0.4)
        report = rg.hall_check(rel)
        if not report.satisfied:
            continue
        found += 1
        mono = report.monomorphism_map()
        assert all((x, b) in rel.pairs for x, b in mono.items())
        assert len(set(mono.values())) == g.n
        target = rg.apply_strong(g, rel)
        for u, v in g.edges:
            assert target.has_edge(mono[u], mono[v])


def test_hall_violating_set_witnesses_deficiency():
    rng = random.Random(53)
    found = 0
    while found < 150:
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        pairs = [(x, b) for x in range(n) for b in range(m) if rng.random() < 0.3]
        rel = rg.relation_from_pairs(n, m, pairs)
        report = rg.hall_check(rel)
        if report.satisfied:
            continue
        found += 1
        s = report.violating_set
        image = {b for x in s for b in rel.image_of(x)}
        assert len(s) > len(image)


def test_nohall_split_explicit_trace():
    c4 = rg.cycle_graph(4)
    collapse = rg.relation_from_pairs(4, 2, [(0, 0), (2, 0), (1, 1), (3, 1)])
    first, smaller, second = rg.nohall_split(c4, collapse, violating={0, 2})
    assert smaller.n == 3
    assert first.compose(second) == collapse
    assert rg.apply_strong(c4, first) == smaller


def test_nohall_split_shrinks_by_one_on_unit_deficiency():
    # two sources sharing one image, third source elsewhere
    g = rg.path_graph(3)
    rel = rg.relation_from_pairs(3, 2, [(0, 0), (2, 0), (1, 1)])
    first, smaller, second = rg.nohall_split(g, rel, violating={0, 2})
    assert smaller.n == g.n - 1
    assert first.compose(second) == rel


def test_nohall_split_requires_violation():
    c3, r1 = rg.cycle_graph(3), rg.relation_from_pairs(3, 2, [(0, 0), (1, 1)])
    with pytest.raises(rg.HallSatisfiedError):
        rg.nohall_split(c3, rg.relation_from_pairs(3, 3, [(i, i) for i in range(3)]))
    with pytest.raises(rg.HallSatisfiedError):
        rg.nohall_split(c3, r1, violating={0})
    # A set naming a vertex the source does not have is rejected as input.
    collapse = rg.relation_from_pairs(4, 3, [(0, 0), (2, 0), (1, 1), (3, 2)])
    for bad in ({0, 2, 99}, {0, 2, -1}):
        with pytest.raises(ValueError, match="outside the source"):
            rg.nohall_split(rg.cycle_graph(4), collapse, violating=bad)


def test_reversibility_instances():
    rng = random.Random(59)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 6), p=0.5, loops=True)
        assert rg.is_reversible(g, rg.identity_relation(g.n))
    c4 = rg.cycle_graph(4)
    collapse = rg.relation_from_pairs(4, 2, [(0, 0), (2, 0), (1, 1), (3, 1)])
    assert rg.is_reversible(c4, collapse)
    p2 = rg.path_graph(3)
    contract = rg.relation_from_pairs(3, 2, [(0, 0), (1, 0), (2, 1)])
    assert not rg.is_reversible(p2, contract)


def test_reversibility_matches_shared_image_criterion():
    """Reversible exactly when vertices sharing an image share neighborhoods.

    Checked for full-domain relations: exhaustively over 1..4-vertex
    sources with every full relation into small targets, then randomized
    at 5 vertices.
    """

    def criterion(g, rel):
        rows = rel.row_masks()
        for x in range(g.n):
            for y in range(x + 1, g.n):
                if rows[x] & rows[y] and g.adjacency[x] != g.adjacency[y]:
                    return False
        return True

    for g in rg.all_graphs_up_to(4, loops=True):
        if g.n == 0:
            continue
        for m in range(1, 4):
            for mask in range(1 << (g.n * m)):
                pairs = [
                    (x, b)
                    for b in range(m)
                    for x in range(g.n)
                    if mask >> (b * g.n + x) & 1
                ]
                rel = rg.relation_from_pairs(g.n, m, pairs)
                if not (rel.has_full_domain and rel.has_full_image):
                    continue
                assert rg.is_reversible(g, rel) == criterion(g, rel)

    rng = random.Random(61)
    for _ in range(300):
        g = random_graph(rng, 5, p=0.5, loops=True)
        rel = random_full_relation(rng, 5, rng.randint(1, 5))
        assert rg.is_reversible(g, rel) == criterion(g, rel)


def test_composition_law_exhaustive_small_sources():
    rng = random.Random(67)
    for g in rg.all_graphs_up_to(4, loops=True):
        if g.n == 0:
            continue
        for _ in range(12):
            m1, m2 = rng.randint(1, 5), rng.randint(1, 5)
            r = random_image_full_relation(rng, g.n, m1)
            s = random_image_full_relation(rng, m1, m2)
            assert rg.apply_strong(rg.apply_strong(g, r), s) == rg.apply_strong(
                g, r.compose(s)
            )


def test_monotonicity_of_edge_generation():
    rng = random.Random(71)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 6), p=0.5)
        big = random_image_full_relation(rng, g.n, rng.randint(1, 6), extra=0.5)
        # remove non-essential pairs while keeping the image full
        keep = set(big.pairs)
        for pair in sorted(big.pairs):
            if rng.random() < 0.4:
                trial = keep - {pair}
                if {b for _, b in trial} == set(range(big.image_size)):
                    keep = trial
        small = rg.relation_from_pairs(big.domain_size, big.image_size, keep)
        assert rg.apply_strong(g, small).edges <= rg.apply_strong(g, big).edges


def test_functional_subrelations_of_solutions_are_homomorphisms():
    rng = random.Random(73)
    checked = 0
    while checked < 120:
        g = random_graph(rng, rng.randint(1, 5), p=0.5)
        rel = random_full_relation(rng, g.n, rng.randint(1, 5))
        h = rg.apply_strong(g, rel)
        checked += 1
        rows = [sorted(rel.image_of(x)) for x in range(g.n)]
        import itertools

        for choice in itertools.product(*rows):
            for u, v in g.edges:
                assert h.has_edge(choice[u], choice[v])
