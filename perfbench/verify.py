"""Independent checks of relgraph's outputs, written without relgraph.

Graphs are tuples of adjacency rows (bit v of row u set iff u ~ v; a loop
sets a vertex's own bit). Composition is the per-column OR of adjacency
rows: target vertex b's neighbourhood is the OR of the rows of its
pre-image, and b ~ c exactly when that OR meets c's pre-image. relgraph's
``apply_strong`` goes through a table over all source subsets instead, so
the two routes share no code.

Every ``check_*`` function returns ``None`` when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations, product

# Negative decide answers are re-derived by brute force when the relation
# space, 2 ** (source order * target order), is at most this large.
BRUTE_FORCE_MAX_PAIRS = 20


def rows_of(n: int, edges) -> tuple[int, ...]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def graph_rows(doc: dict) -> tuple[int, ...]:
    return rows_of(doc["n"], doc["edges"])


def columns(rel: dict, n: int, m: int) -> list[int]:
    """Pre-image mask per target vertex of a relation document."""
    if rel["domain_size"] != n or rel["image_size"] != m:
        raise ValueError(f"relation is {rel['domain_size']}x{rel['image_size']}, expected {n}x{m}")
    cols = [0] * m
    for x, b in rel["pairs"]:
        if not (0 <= x < n and 0 <= b < m):
            raise ValueError(f"pair ({x}, {b}) outside {n}x{m}")
        cols[b] |= 1 << x
    return cols


def column_nbr(rows, mask: int) -> int:
    acc = 0
    x = 0
    while mask:
        if mask & 1:
            acc |= rows[x]
        mask >>= 1
        x += 1
    return acc


def compose(rows, cols, weak: bool = False) -> tuple[int, ...] | None:
    """Adjacency rows of the composed graph, or None if a column is empty."""
    if not all(cols):
        return None
    m = len(cols)
    nbs = [column_nbr(rows, c) for c in cols]
    out = [0] * m
    for b in range(m):
        for c in range(b, m):
            if nbs[b] & cols[c] and not (weak and b == c):
                out[b] |= 1 << c
                out[c] |= 1 << b
    return tuple(out)


def solves(src, tgt, cols, weak: bool, full_domain: bool) -> bool:
    if full_domain:
        cover = 0
        for c in cols:
            cover |= c
        if cover != (1 << len(src)) - 1:
            return False
    return compose(src, cols, weak) == tuple(tgt)


def transpose_cols(cols, n: int) -> list[int]:
    """Columns of the transposed relation (one per original source vertex)."""
    out = [0] * n
    for b, mask in enumerate(cols):
        for x in range(n):
            if mask >> x & 1:
                out[x] |= 1 << b
    return out


def induced(rows, keep) -> tuple[int, ...]:
    index = {v: i for i, v in enumerate(keep)}
    out = []
    for v in keep:
        acc = 0
        for u in keep:
            if rows[v] >> u & 1:
                acc |= 1 << index[u]
        out.append(acc)
    return tuple(out)


def _is_hom(rows, f) -> bool:
    for u in range(len(rows)):
        for v in range(u, len(rows)):
            if rows[u] >> v & 1 and not rows[f[u]] >> f[v] & 1:
                return False
    return True


@lru_cache(maxsize=None)
def core_order(rows: tuple[int, ...]) -> int:
    """Order of the graph core: the fewest vertices a homomorphism reaches."""
    n = len(rows)
    for k in range(1, n + 1):
        for sub in combinations(range(n), k):
            if any(_is_hom(rows, f) for f in product(sub, repeat=n)):
                return k
    return n


def exists_solution(src, tgt, weak: bool, full_domain: bool) -> bool:
    """Brute-force decision of src * R = tgt, one column at a time."""
    n, m = len(src), len(tgt)
    full = (1 << n) - 1
    cols = [0] * m

    def place(b: int) -> bool:
        if b == m:
            return solves(src, tgt, cols, weak, full_domain)
        for mask in range(1, full + 1):
            nb = column_nbr(src, mask)
            if not weak and bool(nb & mask) != bool(tgt[b] >> b & 1):
                continue
            if all(bool(nb & cols[c]) == bool(tgt[b] >> c & 1) for c in range(b)):
                cols[b] = mask
                if place(b + 1):
                    return True
        cols[b] = 0
        return False

    return place(0)


# --- enumerate --------------------------------------------------------------


def _perturbation(src, tgt, cols, weak, full_domain, minimal: bool) -> str | None:
    """One-pair test: no single removal (minimal) or addition (maximal) solves."""
    n = len(src)
    for b, mask in enumerate(cols):
        for x in range(n):
            if bool(mask >> x & 1) != minimal:
                continue
            trial = list(cols)
            trial[b] = mask ^ (1 << x)
            if solves(src, tgt, trial, weak, full_domain):
                kind = "minimal" if minimal else "maximal"
                return f"listed {kind} element changes by pair ({x}, {b}) and still solves"
    return None


def check_solve(doc: dict, spec: dict) -> str | None:
    src, tgt = graph_rows(spec["source"]), graph_rows(spec["target"])
    n, m = len(src), len(tgt)
    weak, full = spec["weak"], spec["full_domain"]
    if doc["status"] != "decided" or doc["complete"] is not True:
        return f"status {doc['status']!r}, complete {doc['complete']!r}"
    if doc["count"] != spec["count"]:
        return f"count {doc['count']} != {spec['count']}"
    if len(doc["minimal"]) != spec["minimal"] or len(doc["maximal"]) != spec["maximal"]:
        return (f"{len(doc['minimal'])} minimal / {len(doc['maximal'])} maximal, "
                f"expected {spec['minimal']} / {spec['maximal']}")
    listed = doc["solutions"]
    expected_listed = spec["count"] if spec["listing"] == "all" else spec["minimal"]
    if len(listed) != expected_listed:
        return f"{len(listed)} solutions listed, expected {expected_listed}"
    keys = [tuple(map(tuple, rel["pairs"])) for rel in listed]
    if keys != sorted(keys):
        return "solutions are not in canonical order"
    if len(set(keys)) != len(keys):
        return "duplicate solutions"
    all_cols = []
    for i, rel in enumerate(listed):
        cols = columns(rel, n, m)
        if not solves(src, tgt, cols, weak, full):
            return f"solution {i} does not solve the instance"
        all_cols.append(cols)
    if spec["listing"] == "all":
        probes = [(doc["minimal"], True), (doc["maximal"], False)]
    else:
        probes = [(range(len(listed)), True)]
    for indices, minimal in probes:
        for i in indices:
            reason = _perturbation(src, tgt, all_cols[i], weak, full, minimal)
            if reason:
                return f"solution {i}: {reason}"
    return None


# --- decide -----------------------------------------------------------------


def check_decide(query: dict, result: list) -> str | None:
    """``result`` is ``[latency_s, status, pairs, certificate_kind]``."""
    _, status, pairs, cert = result
    src, tgt = graph_rows(query["source"]), graph_rows(query["target"])
    n, m = len(src), len(tgt)
    weak, full = query["mode"] == "weak", query["domain"] == "full"
    if status == "found":
        cols = columns({"domain_size": n, "image_size": m, "pairs": pairs}, n, m)
        if not solves(src, tgt, cols, weak, full):
            return "reported solution does not solve the instance"
        return None
    if status == "none":
        if cert is None:
            return "negative answer without a certificate"
        if n * m <= BRUTE_FORCE_MAX_PAIRS and exists_solution(src, tgt, weak, full):
            return f"answered negative ({cert}) but brute force finds a solution"
        return None
    if status == "undecided":
        return "undecided answer carries a certificate" if cert is not None else None
    return f"unknown status {status!r}"


# --- reduce -----------------------------------------------------------------


def _two_way(g, h, fwd: dict, bwd: dict) -> str | None:
    """h = g * fwd and g = h * bwd, both with full domain."""
    n, m = len(g), len(h)
    if not solves(g, h, columns(fwd, n, m), False, True):
        return "input * forward != result, or forward lacks full domain"
    if not solves(h, g, columns(bwd, m, n), False, True):
        return "result * backward != input, or backward lacks full domain"
    return None


def check_rcore(doc: dict, spec: dict) -> str | None:
    g, core = graph_rows(spec["graph"]), graph_rows(doc["result"])
    if len(core) != spec["order"]:
        return f"reduced form has {len(core)} vertices, rcore_oracle gives {spec['order']}"
    return _two_way(g, core, doc["forward"], doc["backward"])


def _subgraph_witness(doc: dict, g, grow: bool) -> str | None:
    """Cocore (grow) or core (retract) witness on the graph's own universe."""
    n = len(g)
    keep = doc["kept"]
    if sorted(set(keep)) != keep or not all(0 <= v < n for v in keep):
        return "kept vertices malformed"
    sub = induced(g, keep)
    if graph_rows(doc["result"]) != sub:
        return "result is not the induced subgraph on the kept vertices"
    pairs = doc["witness"]["pairs"]
    if doc["witness"]["domain_size"] != n or doc["witness"]["image_size"] != n:
        return "witness universes differ from the graph's"
    if not {(v, v) for v in keep} <= {tuple(p) for p in pairs}:
        return "witness does not contain the identity on the kept vertices"
    index = {v: i for i, v in enumerate(keep)}
    if grow:
        if any(x not in index for x, _ in pairs):
            return "coretraction pair leaves the kept vertices"
        dense = {"domain_size": len(keep), "image_size": n,
                 "pairs": [(index[x], b) for x, b in pairs]}
        if compose(sub, columns(dense, len(keep), n)) != tuple(g):
            return "kept subgraph * witness != input"
        return None
    if any(b not in index for _, b in pairs):
        return "retraction pair leaves the kept vertices"
    dense = {"domain_size": n, "image_size": len(keep),
             "pairs": [(x, index[b]) for x, b in pairs]}
    cols = columns(dense, n, len(keep))
    if not solves(g, sub, cols, False, True):
        return "input * witness != kept subgraph"
    return None


def check_cocore(doc: dict, spec: dict) -> str | None:
    return _subgraph_witness(doc, graph_rows(spec["graph"]), grow=True)


def check_core(doc: dict, spec: dict) -> str | None:
    g = graph_rows(spec["graph"])
    want = core_order(graph_rows(spec["base"]))
    if len(doc["kept"]) != want:
        return f"core has {len(doc['kept'])} vertices, the base's core has {want}"
    return _subgraph_witness(doc, g, grow=False)


def check_thin(doc: dict, spec: dict) -> str | None:
    g = graph_rows(spec["graph"])
    n = len(g)
    thin = graph_rows(doc["result"])
    classes = doc["classes"]
    if sorted(v for cls in classes for v in cls) != list(range(n)):
        return "classes do not partition the vertices"
    if len(classes) != len(set(g)) or any(len({g[v] for v in cls}) != 1 for cls in classes):
        return "classes are not the equal-neighbourhood classes"
    if len(set(thin)) != len(thin):
        return "quotient is not thin"
    cols = columns(doc["witness"], n, len(thin))
    if compose(thin, transpose_cols(cols, n)) != tuple(g):
        return "quotient * transpose(witness) != input"
    return None


def check_equiv(doc: dict, spec: dict) -> str | None:
    if doc["equivalent"] is not spec["equivalent"]:
        return f"verdict {doc['equivalent']}, pair built as {spec['equivalent']}"
    if not spec["equivalent"]:
        return None
    g, h = graph_rows(spec["graph"]), graph_rows(spec["other"])
    reason = _two_way(g, h, doc["forward"], doc["backward"])
    if reason is None and spec["strong"]:
        fwd = {tuple(p) for p in doc["forward"]["pairs"]}
        if {(b, x) for x, b in doc["backward"]["pairs"]} != fwd:
            return "strong witness is not a transpose pair"
    return reason


CHECKS = {
    "solve": check_solve,
    "rcore": check_rcore,
    "cocore": check_cocore,
    "core": check_core,
    "thin": check_thin,
    "equiv": check_equiv,
}


def check_op(spec: dict, exit_code: int, stdout: bytes) -> str | None:
    """Verdict on one CLI operation's exit code and ``--json`` output."""
    if exit_code != spec["exit"]:
        return f"exit code {exit_code}, expected {spec['exit']}"
    try:
        doc = json.loads(stdout)
        return CHECKS[spec["kind"]](doc, spec)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"
