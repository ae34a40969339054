"""The command-line handlers that drive ``solver``: ``solve`` and ``reduce``.

``cli`` imports this module only to run one of them, so no other command
compiles it. So the ``Certificate`` annotation, ``solver.Certificate``, is
not imported either: under ``from __future__ import annotations`` it is
never evaluated.
"""

from __future__ import annotations

import os
import sys

from . import io as rio
from .cli import EXIT_BUDGET, EXIT_NEGATIVE, EXIT_OK, _CliError, _emit, _load


def _cert_json(cert: Certificate | None):
    if cert is None:
        return None
    return {"kind": cert.kind, "detail": cert.detail, "values": cert.values_dict()}


def _env(name: str, convert, what: str):
    """``convert`` of the environment variable ``name``; None when unset or empty."""
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return convert(raw)
    except ValueError:
        raise _CliError(f"{name} must be {what}, got {raw!r}") from None


def _cmd_solve(args) -> int:
    from .solver import SolveQuery, _canonical_keys, _solve_masks

    if args.exists and (args.minimal or args.maximal):
        # An exists-query computes no antichains to pick from.
        raise _CliError("--exists cannot be combined with --minimal or --maximal")
    g = _load(rio.parse_graph, args.graph)
    h = _load(rio.parse_graph, args.other)
    node_budget, time_budget = args.node_budget, args.time_budget
    if node_budget is None:
        node_budget = _env("RELGRAPH_NODE_BUDGET", int, "an integer")
    if time_budget is None:
        time_budget = _env("RELGRAPH_TIME_BUDGET", float, "a number")
    try:
        query = SolveQuery(
            g,
            h,
            mode="weak" if args.weak else "strong",
            domain="full" if args.full_domain else "any",
            enumeration="exists" if args.exists else "all",
            node_budget=node_budget,
            time_budget=time_budget,
        )
        found, keys, minimal, maximal, complete, cert = _solve_masks(query)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    if keys is None:  # at most one solution, which no sort has keyed
        keys = _canonical_keys(g.n, h.n, found)

    if not complete:
        doc = {"command": "solve", "status": "budget-exhausted",
               "complete": False, "certificate": None}
        text = "# budget exhausted before the search completed\n"
        # The text output lists none of the partial solutions.
        picked = range(len(found)) if args.json else ()
        _write_solve(args.json, doc, text, keys, picked, g.n, h.n)
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
    _write_solve(args.json, doc, text, keys, picked, g.n, h.n)
    return EXIT_OK if found else EXIT_NEGATIVE


def _write_solve(as_json: bool, doc: dict, text: str, keys, picked, n: int, m: int) -> None:
    """Write ``solve`` output with the solutions ``keys[i]`` for i in ``picked``.

    ``keys`` are the solutions' ``_canonical_keys``: each lists a
    solution's pair numbers ``x*m + b`` in canonical order. Under
    ``--json`` the bytes are those ``_emit`` prints for ``doc`` with
    ``"solutions"`` set to the list of the solutions' ``relation_to_json``
    documents: one ``json.dumps(..., indent=2, sort_keys=True)`` line. In
    text mode they are ``text`` followed by each solution's
    ``format_relation`` block headed by the note ``solution i``. They are
    written a solution at a time, straight from the keys: each of the
    ``n*m`` pairs is rendered once, and a solution's text is its pairs'
    renderings looked up by number. The document's other members are
    rendered by ``io.json_text``, in key order around the solutions.
    """
    out = sys.stdout
    if not as_json:
        pairs = [f"{x} {b}\n" for x in range(n) for b in range(m)]
        out.write(text)
        header = f"relation {n} {m}\n"
        for i in picked:
            out.write(f"# solution {i}\n{header}" + "".join(map(pairs.__getitem__, keys[i])))
        return
    pairs = [f"[\n          {x},\n          {b}\n        ]" for x in range(n) for b in range(m)]
    sep = "{\n  "
    for key in sorted([*doc, "solutions"]):
        out.write(f'{sep}"{key}": ')
        sep = ",\n  "
        if key != "solutions":
            out.write(rio.json_text(doc[key], "\n  "))
            continue
        item = "[\n    "
        for i in picked:
            numbers = keys[i]
            listed = "[]"
            if numbers:
                listed = ("[\n        " + ",\n        ".join(map(pairs.__getitem__, numbers))
                          + "\n      ]")
            out.write(
                f'{item}{{\n      "domain_size": {n},\n      "image_size": {m},\n'
                f'      "pairs": {listed}\n    }}'
            )
            item = ",\n    "
        out.write("[]" if item[0] == "[" else "\n  ]")
    out.write("\n}\n")


def _cmd_reduce(args) -> int:
    from .solver import reduce_fulrel_to_shom, reduce_hom_to_fulrel

    g = _load(rio.parse_graph, args.graph)
    h = _load(rio.parse_graph, args.other)
    if args.construction == "hom-to-fulrel":
        result = reduce_hom_to_fulrel(g, h)
    else:
        result = reduce_fulrel_to_shom(g, h)
    _emit(
        args.json,
        {"command": "reduce", "construction": args.construction, "status": "decided"},
        ("result", result, None),
    )
    return EXIT_OK
