"""The command-line handlers of the relation algebra: ``apply`` and
``apply-weak``, which compose through ``core``, and ``check`` and
``decompose``, which drive ``algebra`` (and ``retract``).

``cli`` imports this module only to run one of them, so no other command
compiles it.
"""

from __future__ import annotations

from . import io as rio
from .cli import EXIT_NEGATIVE, EXIT_OK, _CliError, _emit, _load
from .core import Relation, apply_strong, apply_weak


def _cmd_apply(args) -> int:
    g = _load(rio.parse_graph, args.graph)
    rel = _load(rio.parse_relation, args.relation)
    apply = apply_weak if args.command == "apply-weak" else apply_strong
    try:
        result = apply(g, rel)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    _emit(args.json, {"command": args.command, "status": "decided"}, ("result", result, None))
    return EXIT_OK


def _parse_subset(raw: str) -> list[int]:
    try:
        return [int(p) for p in raw.replace(",", " ").split()]
    except ValueError:
        raise _CliError(f"bad vertex list {raw!r}") from None


def _cmd_check(args) -> int:
    from .algebra import hall_check, is_reversible
    from .retract import is_coretraction, is_retraction, property_n, property_n_star

    kind = args.predicate
    if args.sub is not None and kind not in ("retraction", "coretraction"):
        raise _CliError(f"--sub applies only to retraction and coretraction checks, not {kind}")
    needed = 1 if kind in ("hall", "prop-n", "prop-nstar") else 2
    if len(args.inputs) != needed:
        raise _CliError(f"check {kind} takes {needed} input file(s), got {len(args.inputs)}")
    if kind == "hall":
        rel = _load(rio.parse_relation, args.inputs[0])
        report = hall_check(rel)
        answer = report.satisfied
        if answer:
            mono = Relation(rel.domain_size, rel.image_size, report.monomorphism)
            witness = ("monomorphism", mono, "monomorphism")
        else:
            violating = sorted(report.violating_set)
            witness = ("violating_set", violating,
                       f"# violating set: {' '.join(map(str, violating))}\n")
        blocks = [("satisfied", answer, "true\n" if answer else "false\n"), witness]
    else:
        g = _load(rio.parse_graph, args.inputs[0])
        if kind == "reversible":
            rel = _load(rio.parse_relation, args.inputs[1])
            try:
                answer = is_reversible(g, rel)
            except ValueError as exc:
                raise _CliError(str(exc)) from exc
        elif kind == "prop-n":
            answer = property_n(g)
        elif kind == "prop-nstar":
            answer = property_n_star(g)
        else:  # retraction or coretraction; the parser restricts the choices
            rel = _load(rio.parse_relation, args.inputs[1])
            if args.sub is None:
                raise _CliError(f"{kind} check needs --sub with the subgraph vertices")
            sub = _parse_subset(args.sub)
            check = is_retraction if kind == "retraction" else is_coretraction
            try:
                answer = check(g, sub, rel)
            except ValueError as exc:
                raise _CliError(str(exc)) from exc
        blocks = [("answer", answer, "true\n" if answer else "false\n")]
    status = "decided" if answer else "negative"
    _emit(args.json, {"command": "check", "predicate": kind, "status": status}, *blocks)
    return EXIT_OK if answer else EXIT_NEGATIVE


def _cmd_decompose(args) -> int:
    from .algebra import decompose

    rel = _load(rio.parse_relation, args.relation)
    dec = decompose(rel)
    _emit(
        args.json,
        {"command": "decompose", "status": "decided",
         "domain_vertices": sorted(dec.domain_vertices), "mid_size": dec.mid_size},
        ("duplicator", dec.duplicator, "duplicator (injective)"),
        ("mid_pairs", [list(p) for p in dec.mid_pairs],
         "".join(f"# mid vertex {i} = pair {x} {b}\n" for i, (x, b) in enumerate(dec.mid_pairs))),
        ("contractor", dec.contractor, "contractor (functional)"),
    )
    return EXIT_OK
