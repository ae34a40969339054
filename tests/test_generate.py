import hashlib
import random

import relgraph as rg
from relgraph.generate import canonical_rows, graph_of, rows_of
from helpers import brute_isomorphic, random_graph


def test_counts_match_known_sequences():
    # numbers of graphs on n unlabeled vertices, without and with loops
    assert [len(rg.all_graphs(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
    assert [len(rg.all_graphs(n, loops=True)) for n in range(1, 5)] == [2, 6, 20, 90]


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(5)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 7), p=0.5, loops=rng.random() < 0.3)
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = rg.graph_from_edges(
            g.n, [(perm[u], perm[v]) for u, v in g.edges]
        )
        assert canonical_rows(rows_of(g)) == canonical_rows(rows_of(relabeled))


def test_canonical_form_separates_nonisomorphic_pairs():
    suite = rg.all_graphs(5)
    keys = {canonical_rows(rows_of(g)) for g in suite}
    assert len(keys) == len(suite)
    for a in suite[:10]:
        for b in suite[:10]:
            same_key = rg.canonical_key(a) == rg.canonical_key(b)
            assert same_key == brute_isomorphic(a, b)


def test_generated_graphs_round_trip():
    for g in rg.all_graphs(4, loops=True):
        assert graph_of(rows_of(g)) == g


def test_generation_output_is_pinned():
    # The canonical representatives and their order seed the benchmark's
    # decide stream and the oracles' scan order, so any change to them
    # must show here.
    data = [tuple(rows_of(g) for g in rg.all_graphs(n)) for n in range(1, 7)]
    data += [tuple(rows_of(g) for g in rg.all_graphs(n, loops=True)) for n in range(1, 6)]
    assert (
        hashlib.sha256(repr(data).encode()).hexdigest()
        == "2b9256a9cf336fa4304055a583205885e2d7112554b8d7b4a1a78d86c5ac3fb8"
    )
