"""Command-line interface.

Exit codes: 0 = decided (positively), 1 = negative decision, 2 = usage or
parse error, 3 = budget exhausted, and 141 (128 + SIGPIPE) when the reader
of stdout closed it early. ``--json`` switches every command to a
single structured document on stdout carrying the same decision as the
text output. Default budgets come from RELGRAPH_NODE_BUDGET and
RELGRAPH_TIME_BUDGET when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import io as rio
from .algebra import apply_strong, apply_weak, decompose, hall_check, is_reversible
from .core import CapExceededError, Graph, Relation
from .equivalence import strongly_equivalent, weakly_equivalent, thin_quotient
from .retract import (
    cocore_with_witness,
    graph_core_with_witness,
    is_coretraction,
    is_retraction,
    property_n,
    property_n_star,
)
from .solver import (
    Certificate,
    SolveQuery,
    _canonical_key,
    _solve_masks,
    reduce_fulrel_to_shom,
    reduce_hom_to_fulrel,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> Graph:
    try:
        return rio.parse_graph(_read(path))
    except rio.ParseError as exc:
        raise _CliError(f"{path}: {exc}") from exc


def _load_relation(path: str) -> Relation:
    try:
        return rio.parse_relation(_read(path))
    except rio.ParseError as exc:
        raise _CliError(f"{path}: {exc}") from exc


def _cert_json(cert: Certificate | None):
    if cert is None:
        return None
    return {"kind": cert.kind, "detail": cert.detail, "values": cert.values_dict()}


def _emit(doc: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        sys.stdout.write(text)


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise _CliError(f"{name} must be an integer, got {raw!r}") from None


def _env_float(name: str) -> float | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise _CliError(f"{name} must be a number, got {raw!r}") from None


def _cmd_apply(args) -> int:
    g = _load_graph(args.graph)
    rel = _load_relation(args.relation)
    try:
        result = apply_weak(g, rel) if args.weak else apply_strong(g, rel)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    _emit(
        {"command": "apply-weak" if args.weak else "apply", "status": "decided",
         "result": rio.graph_to_json(result)},
        args.json,
        rio.format_graph(result),
    )
    return EXIT_OK


def _cmd_thin(args) -> int:
    g = _load_graph(args.graph)
    tq = thin_quotient(g)
    classes = [sorted(c) for c in tq.partition.classes]
    text = rio.format_graph(tq.thin_graph)
    for i, cls in enumerate(classes):
        text += f"# class {i} = {' '.join(map(str, cls))}\n"
    text += rio.format_relation(tq.class_relation, note="witness: vertex to class")
    _emit(
        {"command": "thin", "status": "decided",
         "result": rio.graph_to_json(tq.thin_graph),
         "classes": classes,
         "witness": rio.relation_to_json(tq.class_relation)},
        args.json,
        text,
    )
    return EXIT_OK


def _cmd_rcore(args) -> int:
    from .equivalence import rcore_with_witness

    g = _load_graph(args.graph)
    core, forward, backward = rcore_with_witness(g)
    text = rio.format_graph(core)
    text += rio.format_relation(forward, note="witness: input * R = core")
    text += rio.format_relation(backward, note="witness: core * S = input")
    _emit(
        {"command": "rcore", "status": "decided",
         "result": rio.graph_to_json(core),
         "forward": rio.relation_to_json(forward),
         "backward": rio.relation_to_json(backward)},
        args.json,
        text,
    )
    return EXIT_OK


def _cmd_cocore(args) -> int:
    g = _load_graph(args.graph)
    core, witness = cocore_with_witness(g)
    text = rio.format_graph(core)
    text += f"# kept vertices: {' '.join(map(str, sorted(witness.sub)))}\n"
    text += rio.format_relation(witness.relation, note="witness coretraction")
    _emit(
        {"command": "cocore", "status": "decided",
         "result": rio.graph_to_json(core),
         "kept": sorted(witness.sub),
         "witness": rio.relation_to_json(witness.relation)},
        args.json,
        text,
    )
    return EXIT_OK


def _cmd_core(args) -> int:
    g = _load_graph(args.graph)
    try:
        core, witness = graph_core_with_witness(g)
    except CapExceededError as exc:
        raise _CliError(str(exc)) from exc
    text = rio.format_graph(core)
    text += f"# kept vertices: {' '.join(map(str, sorted(witness.sub)))}\n"
    text += rio.format_relation(witness.relation, note="witness retraction")
    _emit(
        {"command": "core", "status": "decided",
         "result": rio.graph_to_json(core),
         "kept": sorted(witness.sub),
         "witness": rio.relation_to_json(witness.relation)},
        args.json,
        text,
    )
    return EXIT_OK


def _cmd_equiv(args) -> int:
    g = _load_graph(args.graph)
    h = _load_graph(args.other)
    witness = weakly_equivalent(g, h) if args.weak else strongly_equivalent(g, h)
    if witness is None:
        _emit(
            {"command": "equiv", "status": "negative",
             "kind": "weak" if args.weak else "strong", "equivalent": False},
            args.json,
            "NOT-EQUIVALENT\n",
        )
        return EXIT_NEGATIVE
    text = "EQUIVALENT\n"
    text += rio.format_relation(witness.forward, note="forward witness")
    text += rio.format_relation(witness.backward, note="backward witness")
    _emit(
        {"command": "equiv", "status": "decided",
         "kind": witness.kind, "equivalent": True,
         "forward": rio.relation_to_json(witness.forward),
         "backward": rio.relation_to_json(witness.backward)},
        args.json,
        text,
    )
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.exists and (args.minimal or args.maximal):
        # An exists-query computes no antichains to pick from.
        raise _CliError("--exists cannot be combined with --minimal or --maximal")
    g = _load_graph(args.graph)
    h = _load_graph(args.other)
    enumeration = "all"
    if args.exists:
        enumeration = "exists"
    elif args.minimal and not args.maximal:
        enumeration = "minimal"
    elif args.maximal and not args.minimal:
        enumeration = "maximal"
    node_budget, time_budget = args.node_budget, args.time_budget
    if node_budget is None:
        node_budget = _env_int("RELGRAPH_NODE_BUDGET")
    if time_budget is None:
        time_budget = _env_float("RELGRAPH_TIME_BUDGET")
    try:
        query = SolveQuery(
            g,
            h,
            mode="weak" if args.weak else "strong",
            domain="full" if args.full_domain else "any",
            enumeration=enumeration,
            node_budget=node_budget,
            time_budget=time_budget,
        )
        found, minimal, maximal, complete, cert = _solve_masks(query)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc

    if not complete:
        doc = {"command": "solve", "status": "budget-exhausted",
               "complete": False, "certificate": None}
        text = "# budget exhausted before the search completed\n"
        # The text output lists none of the partial solutions.
        picked = range(len(found)) if args.json else ()
        _write_solve(args.json, doc, text, found, picked, g.n, h.n)
        return EXIT_BUDGET

    picked = range(len(found))
    if args.minimal and not args.maximal:
        picked = minimal
    elif args.maximal and not args.minimal:
        picked = maximal
    if not found:
        text = "# no solution\n"
        if cert is not None:
            text += f"# certificate {cert.kind}: {cert.detail}\n"
    else:
        text = f"# solutions {len(found)}\n"
        if args.minimal or args.maximal:
            text += f"# minimal indices: {' '.join(map(str, minimal))}\n"
            text += f"# maximal indices: {' '.join(map(str, maximal))}\n"
    doc = {
        "command": "solve",
        "status": "decided" if found else "negative",
        "mode": query.mode,
        "domain": query.domain,
        "count": len(found),
        "minimal": list(minimal),
        "maximal": list(maximal),
        "complete": complete,
        "certificate": _cert_json(cert),
    }
    _write_solve(args.json, doc, text, found, picked, g.n, h.n)
    return EXIT_OK if found else EXIT_NEGATIVE


# Stands in for the solutions in the rendered JSON document. A JSON string
# holds no raw newline, so ``_SPLICED`` occurs once: at the top-level key.
_SPLICE = "\0"
_SPLICED = '\n  "solutions": ' + json.dumps(_SPLICE)


def _write_solve(as_json: bool, doc: dict, text: str, found, picked, n: int, m: int) -> None:
    """Write ``solve`` output with the solutions ``found[i]`` for i in ``picked``.

    The bytes are those ``_emit`` prints for ``doc`` with ``"solutions"``
    set to the solutions' ``relation_to_json`` documents, or for ``text``
    followed by their ``format_relation`` blocks. They are written a
    solution at a time, straight from the column masks: each of the
    ``n*m`` pairs is rendered once, at its number ``x*m + b`` in
    ``_canonical_key``.
    """
    out = sys.stdout
    key = _canonical_key(n, m)
    if not as_json:
        pairs = [f"{x} {b}\n" for x in range(n) for b in range(m)]
        out.write(text)
        header = f"relation {n} {m}\n"
        for i in picked:
            out.write(f"# solution {i}\n{header}" + "".join([pairs[k] for k in key(found[i])]))
        return
    pairs = [f"[\n          {x},\n          {b}\n        ]" for x in range(n) for b in range(m)]
    rendered = json.dumps({**doc, "solutions": _SPLICE}, indent=2, sort_keys=True)
    head, tail = rendered.split(_SPLICED)
    out.write(head + '\n  "solutions": ')
    sep = "[\n    "
    for i in picked:
        numbers = key(found[i])
        listed = "[]"
        if numbers:
            listed = "[\n        " + ",\n        ".join([pairs[k] for k in numbers]) + "\n      ]"
        out.write(
            f'{sep}{{\n      "domain_size": {n},\n      "image_size": {m},\n'
            f'      "pairs": {listed}\n    }}'
        )
        sep = ",\n    "
    out.write(("[]" if sep.startswith("[") else "\n  ]") + tail + "\n")


def _parse_subset(raw: str) -> list[int]:
    if raw.strip() == "":
        return []
    try:
        return [int(p) for p in raw.replace(",", " ").split()]
    except ValueError:
        raise _CliError(f"bad vertex list {raw!r}") from None


def _cmd_check(args) -> int:
    kind = args.predicate
    needed = 1 if kind in ("hall", "prop-n", "prop-nstar") else 2
    if len(args.inputs) != needed:
        raise _CliError(f"check {kind} takes {needed} input file(s), got {len(args.inputs)}")
    if kind == "hall":
        rel = _load_relation(args.inputs[0])
        report = hall_check(rel)
        doc = {"command": "check", "predicate": "hall", "satisfied": report.satisfied}
        if report.satisfied:
            mono = Relation(rel.domain_size, rel.image_size, report.monomorphism)
            doc["monomorphism"] = rio.relation_to_json(mono)
            text = "true\n" + rio.format_relation(mono, note="monomorphism")
        else:
            doc["violating_set"] = sorted(report.violating_set)
            text = "false\n# violating set: " + " ".join(
                map(str, sorted(report.violating_set))
            ) + "\n"
        doc["status"] = "decided" if report.satisfied else "negative"
        _emit(doc, args.json, text)
        return EXIT_OK if report.satisfied else EXIT_NEGATIVE

    if kind == "reversible":
        g = _load_graph(args.inputs[0])
        rel = _load_relation(args.inputs[1])
        try:
            answer = is_reversible(g, rel)
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
    elif kind == "prop-n":
        answer = property_n(_load_graph(args.inputs[0]))
    elif kind == "prop-nstar":
        answer = property_n_star(_load_graph(args.inputs[0]))
    elif kind in ("retraction", "coretraction"):
        g = _load_graph(args.inputs[0])
        rel = _load_relation(args.inputs[1])
        if args.sub is None:
            raise _CliError(f"{kind} check needs --sub with the subgraph vertices")
        sub = _parse_subset(args.sub)
        try:
            check = is_retraction if kind == "retraction" else is_coretraction
            answer = check(g, sub, rel)
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
    else:  # pragma: no cover - argparse restricts choices
        raise _CliError(f"unknown predicate {kind}")
    _emit(
        {"command": "check", "predicate": kind, "answer": answer,
         "status": "decided" if answer else "negative"},
        args.json,
        ("true" if answer else "false") + "\n",
    )
    return EXIT_OK if answer else EXIT_NEGATIVE


def _cmd_decompose(args) -> int:
    rel = _load_relation(args.relation)
    dec = decompose(rel)
    text = rio.format_relation(dec.duplicator, note="duplicator (injective)")
    for i, pair in enumerate(dec.mid_pairs):
        text += f"# mid vertex {i} = pair {pair[0]} {pair[1]}\n"
    text += rio.format_relation(dec.contractor, note="contractor (functional)")
    _emit(
        {"command": "decompose", "status": "decided",
         "domain_vertices": sorted(dec.domain_vertices),
         "mid_size": dec.mid_size,
         "mid_pairs": [list(p) for p in dec.mid_pairs],
         "duplicator": rio.relation_to_json(dec.duplicator),
         "contractor": rio.relation_to_json(dec.contractor)},
        args.json,
        text,
    )
    return EXIT_OK


def _cmd_reduce(args) -> int:
    g = _load_graph(args.graph)
    h = _load_graph(args.other)
    if args.construction == "hom-to-fulrel":
        result = reduce_hom_to_fulrel(g, h)
    else:
        result = reduce_fulrel_to_shom(g, h)
    _emit(
        {"command": "reduce", "construction": args.construction,
         "status": "decided", "result": rio.graph_to_json(result)},
        args.json,
        rio.format_graph(result),
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relgraph",
        description="Algebra of relations between graphs: composition, "
        "equivalences, cores, cocores, and an exhaustive equation solver.",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apply", help="compose a graph with a relation")
    p.add_argument("graph")
    p.add_argument("relation")
    p.set_defaults(func=_cmd_apply, weak=False)

    p = sub.add_parser("apply-weak", help="loop-free composition")
    p.add_argument("graph")
    p.add_argument("relation")
    p.set_defaults(func=_cmd_apply, weak=True)

    p = sub.add_parser("thin", help="quotient by equal neighborhoods")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_thin)

    p = sub.add_parser("rcore", help="minimum weak-equivalence representative")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_rcore)

    p = sub.add_parser("cocore", help="minimal generating subgraph")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_cocore)

    p = sub.add_parser("core", help="smallest retract (graph core)")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("equiv", help="decide relational equivalence")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--strong", action="store_true")
    mode.add_argument("--weak", action="store_true")
    p.add_argument("graph")
    p.add_argument("other")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("solve", help="solve graph * R = target for R")
    p.add_argument("--weak", action="store_true")
    p.add_argument("--full-domain", action="store_true")
    what = p.add_mutually_exclusive_group()
    what.add_argument("--all", action="store_true")
    what.add_argument("--exists", action="store_true")
    p.add_argument("--minimal", action="store_true")
    p.add_argument("--maximal", action="store_true")
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("graph")
    p.add_argument("other")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="boolean predicates with witnesses")
    p.add_argument(
        "predicate",
        choices=["hall", "reversible", "prop-n", "prop-nstar", "retraction", "coretraction"],
    )
    p.add_argument("inputs", nargs="+")
    p.add_argument("--sub", default=None, help="subgraph vertices, e.g. '0,2,3'")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", help="duplicate-then-contract split")
    p.add_argument("relation")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("reduce", help="problem reductions")
    p.add_argument("construction", choices=["hom-to-fulrel", "fulrel-to-shom"])
    p.add_argument("graph")
    p.add_argument("other")
    p.set_defaults(func=_cmd_reduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def run() -> int:
    """``main`` as a process of its own: the console script and ``-m``.

    A reader that closes the pipe early (``relgraph solve --all ... | head``)
    ends the run quietly with EXIT_PIPE. stdout is then pointed at
    ``os.devnull``, so the interpreter's flush at exit cannot raise again.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(run())
