import hashlib
import random

import relgraph as rg
from relgraph.generate import canonical_rows
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
        assert canonical_rows(g.adjacency) == canonical_rows(relabeled.adjacency)


def test_canonical_form_separates_nonisomorphic_pairs():
    suite = rg.all_graphs(5)
    keys = {canonical_rows(g.adjacency) for g in suite}
    assert len(keys) == len(suite)
    for a in suite[:10]:
        for b in suite[:10]:
            same_key = rg.canonical_key(a) == rg.canonical_key(b)
            assert same_key == brute_isomorphic(a, b)


def test_generated_graphs_round_trip():
    for g in rg.all_graphs(4, loops=True):
        assert rg.Graph._of_rows(g.adjacency) == g


def test_generation_output_is_pinned():
    # The canonical representatives and their order seed the benchmark's
    # decide stream and the oracles' scan order, so any change to them
    # must show here.
    data = [tuple(g.adjacency for g in rg.all_graphs(n)) for n in range(1, 7)]
    data += [tuple(g.adjacency for g in rg.all_graphs(n, loops=True)) for n in range(1, 6)]
    assert (
        hashlib.sha256(repr(data).encode()).hexdigest()
        == "2b9256a9cf336fa4304055a583205885e2d7112554b8d7b4a1a78d86c5ac3fb8"
    )


def test_every_process_wide_cache_is_bounded():
    # An ``lru_cache`` lives as long as the process: each must have a bound.
    import importlib
    import pkgutil

    caches = []
    for info in pkgutil.iter_modules(rg.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"relgraph.{info.name}")
        caches += [(info.name, name) for name, obj in vars(module).items()
                   if hasattr(obj, "cache_info") and obj.cache_info().maxsize is None]
    assert not caches
