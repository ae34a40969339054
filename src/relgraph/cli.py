"""Command-line interface.

Exit codes: 0 = decided (positively), 1 = negative decision, 2 = usage or
parse error, 3 = budget exhausted, and 141 (128 + SIGPIPE) when the reader
of stdout closed it early. ``--json`` switches every command to a
single structured document on stdout carrying the same decision as the
text output. Default budgets come from RELGRAPH_NODE_BUDGET and
RELGRAPH_TIME_BUDGET when set.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

from . import io as rio
from .core import CapExceededError, Graph, Relation

# Each command imports the library modules it runs, so a process loads only
# those: ``--help`` and ``rcore`` never import the solver. So the
# ``Certificate`` annotation, ``solver.Certificate``, is not imported either:
# under ``from __future__ import annotations`` it is never evaluated.

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _load(parse, path: str):
    """``parse`` of the file at ``path``: a graph or a relation."""
    try:
        with open(path) as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except rio.ParseError as exc:
        raise _CliError(f"{path}: {exc}") from exc


def _cert_json(cert: Certificate | None):
    if cert is None:
        return None
    return {"kind": cert.kind, "detail": cert.detail, "values": cert.values_dict()}


def _emit(as_json: bool, doc: dict, *blocks) -> None:
    """Print a command's output: ``doc`` plus its ``(key, value, text)`` blocks.

    Under ``--json`` each block's ``value`` goes into ``doc`` under ``key``,
    a Graph or Relation as its ``graph_to_json``/``relation_to_json``
    document, and ``doc`` prints as one JSON document; a block whose key
    is None is text only. In text mode the blocks print in order: a Graph
    or Relation in its file form headed by the note ``text``, any other
    value as ``text``. Only the output printed is built.
    """
    if as_json:
        for key, value, _ in blocks:
            if key is None:
                continue
            if isinstance(value, Graph):
                value = rio.graph_to_json(value)
            elif isinstance(value, Relation):
                value = rio.relation_to_json(value)
            doc[key] = value
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    for _, value, text in blocks:
        if isinstance(value, Graph):
            text = rio.format_graph(value, note=text)
        elif isinstance(value, Relation):
            text = rio.format_relation(value, note=text)
        sys.stdout.write(text)


def _env(name: str, convert, what: str):
    """``convert`` of the environment variable ``name``; None when unset or empty."""
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return convert(raw)
    except ValueError:
        raise _CliError(f"{name} must be {what}, got {raw!r}") from None


def _cmd_apply(args) -> int:
    from .algebra import apply_strong, apply_weak

    g = _load(rio.parse_graph, args.graph)
    rel = _load(rio.parse_relation, args.relation)
    apply = apply_weak if args.command == "apply-weak" else apply_strong
    try:
        result = apply(g, rel)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    _emit(args.json, {"command": args.command, "status": "decided"}, ("result", result, None))
    return EXIT_OK


def _cmd_thin(args) -> int:
    from .equivalence import thin_quotient

    g = _load(rio.parse_graph, args.graph)
    tq = thin_quotient(g)
    classes = [sorted(c) for c in tq.partition.classes]
    _emit(
        args.json,
        {"command": "thin", "status": "decided"},
        ("result", tq.thin_graph, None),
        ("classes", classes,
         "".join(f"# class {i} = {' '.join(map(str, c))}\n" for i, c in enumerate(classes))),
        ("witness", tq.class_relation, "witness: vertex to class"),
    )
    return EXIT_OK


def _cmd_rcore(args) -> int:
    from .equivalence import rcore_with_witness

    g = _load(rio.parse_graph, args.graph)
    core, forward, backward = rcore_with_witness(g)
    _emit(
        args.json,
        {"command": "rcore", "status": "decided"},
        ("result", core, None),
        ("forward", forward, "witness: input * R = core"),
        ("backward", backward, "witness: core * S = input"),
    )
    return EXIT_OK


def _cmd_core(args) -> int:
    """``core`` (the smallest retract) and ``cocore`` (the minimal coretract)."""
    from .retract import cocore_with_witness, graph_core_with_witness

    g = _load(rio.parse_graph, args.graph)
    try:
        if args.command == "core":
            core, witness = graph_core_with_witness(g)
        else:
            core, witness = cocore_with_witness(g)
    except CapExceededError as exc:
        raise _CliError(str(exc)) from exc
    kept = sorted(witness.sub)
    _emit(
        args.json,
        {"command": args.command, "status": "decided"},
        ("result", core, None),
        ("kept", kept, f"# kept vertices: {' '.join(map(str, kept))}\n"),
        ("witness", witness.relation, f"witness {witness.direction}"),
    )
    return EXIT_OK


def _cmd_equiv(args) -> int:
    from .equivalence import strongly_equivalent, weakly_equivalent

    g = _load(rio.parse_graph, args.graph)
    h = _load(rio.parse_graph, args.other)
    witness = weakly_equivalent(g, h) if args.weak else strongly_equivalent(g, h)
    if witness is None:
        _emit(
            args.json,
            {"command": "equiv", "status": "negative",
             "kind": "weak" if args.weak else "strong", "equivalent": False},
            (None, None, "NOT-EQUIVALENT\n"),
        )
        return EXIT_NEGATIVE
    _emit(
        args.json,
        {"command": "equiv", "status": "decided", "kind": witness.kind, "equivalent": True},
        (None, None, "EQUIVALENT\n"),
        ("forward", witness.forward, "forward witness"),
        ("backward", witness.backward, "backward witness"),
    )
    return EXIT_OK


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


# Stands in for the solutions in the rendered JSON document. A JSON string
# holds no raw newline, so ``_SPLICED`` occurs once: at the top-level key.
_SPLICE = "\0"
_SPLICED = '\n  "solutions": ' + json.dumps(_SPLICE)


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
    renderings looked up by number.
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
    rendered = json.dumps({**doc, "solutions": _SPLICE}, indent=2, sort_keys=True)
    head, tail = rendered.split(_SPLICED)
    out.write(head + '\n  "solutions": ')
    sep = "[\n    "
    for i in picked:
        numbers = keys[i]
        listed = "[]"
        if numbers:
            listed = "[\n        " + ",\n        ".join(map(pairs.__getitem__, numbers)) + "\n      ]"
        out.write(
            f'{sep}{{\n      "domain_size": {n},\n      "image_size": {m},\n'
            f'      "pairs": {listed}\n    }}'
        )
        sep = ",\n    "
    out.write(("[]" if sep.startswith("[") else "\n  ]") + tail + "\n")


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


class _Command:
    """One row of the command table: what parsing, help and dispatch need.

    ``positionals`` are names, filled in order; ``choices`` maps a name to
    its allowed values, and ``many`` names the last positional when it
    takes one or more values. ``options`` are ``(flag, convert, help)``
    tuples, the last two optional: without ``convert`` the option is an
    on/off flag, with it ``convert`` turns the option's value into what
    the handler reads. ``exclusive`` is a pair of flags that cannot both
    be given, and ``required`` means one of them must be.
    """

    def __init__(self, name, help, handler, positionals, options=(), *, choices=None,
                 many=None, exclusive=(), required=False):
        self.name, self.help, self.handler = name, help, handler
        self.positionals, self.choices, self.many = positionals, choices or {}, many
        padded = ((*option, None, None)[:3] for option in options)
        self.options = {flag: (flag[2:].replace("-", "_"), convert, text)
                        for flag, convert, text in padded}
        self.exclusive, self.required = exclusive, required


# Each option maps to (namespace attribute, conversion, help line). Every
# parser takes the help options ahead of its own.
_HELP_OPTIONS = {"-h": (None, None, "show this help message and exit")}
_HELP_OPTIONS["--help"] = _HELP_OPTIONS["-h"]
_TOP_OPTIONS = {"--json": ("json", None, "emit one JSON document")}
_DESCRIPTION = ("Algebra of relations between graphs: composition, equivalences, cores, "
                "cocores, and an exhaustive equation solver.")
_COMMANDS = {c.name: c for c in (
    _Command("apply", "compose a graph with a relation", _cmd_apply, ("graph", "relation")),
    _Command("apply-weak", "loop-free composition", _cmd_apply, ("graph", "relation")),
    _Command("thin", "quotient by equal neighborhoods", _cmd_thin, ("graph",)),
    _Command("rcore", "minimum weak-equivalence representative", _cmd_rcore, ("graph",)),
    _Command("cocore", "minimal generating subgraph", _cmd_core, ("graph",)),
    _Command("core", "smallest retract (graph core)", _cmd_core, ("graph",)),
    _Command("equiv", "decide relational equivalence", _cmd_equiv, ("graph", "other"),
             (("--strong",), ("--weak",)), exclusive=("--strong", "--weak"), required=True),
    _Command("solve", "solve graph * R = target for R", _cmd_solve, ("graph", "other"),
             (("--weak",), ("--full-domain",), ("--all",), ("--exists",), ("--minimal",),
              ("--maximal",), ("--node-budget", int), ("--time-budget", float)),
             exclusive=("--all", "--exists")),
    _Command("check", "boolean predicates with witnesses", _cmd_check, ("predicate", "inputs"),
             (("--sub", str, "subgraph vertices, e.g. '0,2,3'"),),
             choices={"predicate": ("hall", "reversible", "prop-n", "prop-nstar",
                                    "retraction", "coretraction")},
             many="inputs"),
    _Command("decompose", "duplicate-then-contract split", _cmd_decompose, ("relation",)),
    _Command("reduce", "problem reductions", _cmd_reduce, ("construction", "graph", "other"),
             choices={"construction": ("hom-to-fulrel", "fulrel-to-shom")}),
)}


# Parsing follows argparse's rules for the kinds of argument in the table.
# An argument that starts with "-" names an option: whole, by a unique
# prefix (``--full``), or with its value after "=" (``--node-budget=5``).
# It is positional if it names none and looks like a negative number or
# holds a space. An option that takes a value takes the next argument
# unless that names an option. After the first "--" every argument is
# positional. Each run of positional arguments fills the positionals not
# yet filled, in order; the one that takes many values takes the rest of
# its run, and what is left over is unrecognized. Help prints where its
# option is met, unless an error came first; missing and unrecognized
# arguments are errors only at the end.


class _Exit(Exception):
    """Ends a parse: help when ``message`` is None, else a usage error.

    ``cmd`` is the command whose help or usage applies, None for
    ``relgraph`` itself.
    """

    def __init__(self, cmd: _Command | None, message: str | None = None):
        super().__init__(message)
        self.cmd, self.message = cmd, message


def _kinds(args, options, cmd) -> list:
    """How each of ``args`` reads: None when positional, "--" for the first
    "--", and ``(flag, value)`` for an option, ``flag`` None when it names
    none of ``options`` and ``value`` the text after "=" (or after ``-h``)."""
    kinds = []
    for i, arg in enumerate(args):
        if arg == "--":
            return kinds + ["--"] + [None] * (len(args) - i - 1)
        name, eq, value = arg.partition("=")
        if arg[:1] != "-" or arg == "-":
            kind = None
        elif arg in options:
            kind = arg, None
        elif eq and name in options:
            kind = name, value
        elif arg[1] == "-" and (hits := [flag for flag in options if flag.startswith(name)]):
            if len(hits) > 1:
                raise _Exit(cmd, f"ambiguous option: {arg} could match {', '.join(hits)}")
            kind = hits[0], value if eq else None
        elif arg[:2] == "-h":
            kind = "-h", arg[2:]
        elif re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
            kind = None
        else:
            kind = None, None
        kinds.append(kind)
    return kinds


def _flag(cmd: _Command | None, flag: str, value):
    """True for an on/off flag given without a value; help raises its ``_Exit``."""
    if value is None and flag not in _HELP_OPTIONS:
        return True
    # "-hh" is -h twice.
    if value is None or (flag == "-h" and value and not value.strip("h")):
        raise _Exit(cmd)
    raise _Exit(cmd, f"argument {flag}: ignored explicit argument {value!r}")


def _choose(cmd: _Command | None, name: str, value: str, choices) -> None:
    if value not in choices:
        listed = ", ".join(map(repr, choices))
        raise _Exit(cmd, f"argument {name}: invalid choice: {value!r} (choose from {listed})")


def _fill_positionals(cmd: _Command, run, pending: list[str], values: dict) -> list[str]:
    """Fill ``pending`` from one run of positional arguments; return what is left.

    A "--" in the run is the first one: dropped when it adjoins an argument
    that fills a positional, else left over.
    """
    words = list(run)
    marker = words.index("--") if "--" in words else None
    if marker is not None:
        del words[marker]
    used = 0
    while pending and used < len(words):
        name = pending.pop(0)
        value = words[used:] if name == cmd.many else words[used]
        used = len(words) if name == cmd.many else used + 1
        if name in cmd.choices:
            _choose(cmd, name, value, cmd.choices[name])
        values[name] = value
    if marker is not None and (used == 0 or marker > used):
        words.insert(marker, "--")
    return words[used:]


def _parse_command(cmd: _Command, args) -> tuple[dict, list[str]]:
    """``cmd``'s values from the arguments after its name, and those left unrecognized."""
    options = {**_HELP_OPTIONS, **cmd.options}
    kinds = _kinds(args, options, cmd)
    values = {dest: None if convert else False for dest, convert, _ in cmd.options.values()}
    pending, given, left = list(cmd.positionals), set(), []
    i = 0
    while i < len(args):
        if not isinstance(kinds[i], tuple):
            end = i + 1
            while end < len(args) and not isinstance(kinds[end], tuple):
                end += 1
            left += _fill_positionals(cmd, args[i:end], pending, values)
            i = end
            continue
        flag, value = kinds[i]
        i += 1
        if flag is None:
            left.append(args[i - 1])
            continue
        dest, convert, _ = options[flag]
        if convert is None:
            value = _flag(cmd, flag, value)
        else:
            if value is None:
                if i == len(args) or kinds[i] is not None:
                    raise _Exit(cmd, f"argument {flag}: expected one argument")
                value, i = args[i], i + 1
            try:
                value = convert(value)
            except ValueError:
                raise _Exit(
                    cmd, f"argument {flag}: invalid {convert.__name__} value: {value!r}"
                ) from None
        if flag in cmd.exclusive:
            other = cmd.exclusive[cmd.exclusive[0] == flag]
            if other in given:
                raise _Exit(cmd, f"argument {flag}: not allowed with argument {other}")
        given.add(flag)
        values[dest] = value
    if pending:
        raise _Exit(cmd, f"the following arguments are required: {', '.join(pending)}")
    if cmd.required and not given & set(cmd.exclusive):
        raise _Exit(cmd, f"one of the arguments {' '.join(cmd.exclusive)} is required")
    return values, left


def _parse(argv) -> SimpleNamespace:
    """The namespace the handlers read, from the arguments after the program name."""
    kinds = _kinds(argv, {**_HELP_OPTIONS, **_TOP_OPTIONS}, None)
    as_json, left = False, []
    for i, kind in enumerate(kinds):
        if not isinstance(kind, tuple):
            break  # the command, or "--" in its place
        if kind[0] is None:
            left.append(argv[i])
        else:
            as_json = _flag(None, *kind)
    else:
        raise _Exit(None, "the following arguments are required: command")
    _choose(None, "command", argv[i], _COMMANDS)
    cmd = _COMMANDS[argv[i]]
    values, rest = _parse_command(cmd, argv[i + 1:])
    if left or rest:
        raise _Exit(None, f"unrecognized arguments: {' '.join(left + rest)}")
    return SimpleNamespace(json=as_json, command=cmd.name, func=cmd.handler, **values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except _Exit as exc:
        # Only a process that prints help or a usage error compiles its renderer.
        from .clihelp import help_text, usage_error

        if exc.message is None:
            sys.stdout.write(help_text(exc.cmd))
            return EXIT_OK
        sys.stderr.write(usage_error(exc.cmd, exc.message))
        return EXIT_USAGE
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
