"""Command-line interface.

Exit codes: 0 = decided (positively), 1 = negative decision, 2 = usage or
parse error, 3 = budget exhausted, and 141 (128 + SIGPIPE) when the reader
of stdout closed it early. ``--json`` switches every command to a
single structured document on stdout carrying the same decision as the
text output. Default budgets come from RELGRAPH_NODE_BUDGET and
RELGRAPH_TIME_BUDGET when set.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
from types import SimpleNamespace

from . import io as rio
from .core import CapExceededError, Graph, Relation

# Each command imports the library modules it runs, so a process loads only
# those: ``--help`` and ``rcore`` never import the solver. The handlers of the
# commands that drive ``algebra`` and ``solver`` live in ``clialgebra`` and
# ``clisolver``, which load only when one of their commands runs.

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
        print(rio.json_text(doc))
        return
    for _, value, text in blocks:
        if isinstance(value, Graph):
            text = rio.format_graph(value, note=text)
        elif isinstance(value, Relation):
            text = rio.format_relation(value, note=text)
        sys.stdout.write(text)


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


class _Command:
    """One row of the command table: what parsing, help and dispatch need.

    ``positionals`` are names, filled in order; ``choices`` maps a name to
    its allowed values, and ``many`` names the last positional when it
    takes one or more values. ``options`` are ``(flag, convert, help)``
    tuples, the last two optional: without ``convert`` the option is an
    on/off flag, with it ``convert`` turns the option's value into what
    the handler reads. ``exclusive`` is a pair of flags that cannot both
    be given, and ``required`` means one of them must be. ``handler``
    names the function that runs the command, as ``module.function`` in
    this package: its module is imported only when the command runs.
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
    _Command("apply", "compose a graph with a relation", "clialgebra._cmd_apply",
             ("graph", "relation")),
    _Command("apply-weak", "loop-free composition", "clialgebra._cmd_apply", ("graph", "relation")),
    _Command("thin", "quotient by equal neighborhoods", "cli._cmd_thin", ("graph",)),
    _Command("rcore", "minimum weak-equivalence representative", "cli._cmd_rcore", ("graph",)),
    _Command("cocore", "minimal generating subgraph", "cli._cmd_core", ("graph",)),
    _Command("core", "smallest retract (graph core)", "cli._cmd_core", ("graph",)),
    _Command("equiv", "decide relational equivalence", "cli._cmd_equiv", ("graph", "other"),
             (("--strong",), ("--weak",)), exclusive=("--strong", "--weak"), required=True),
    _Command("solve", "solve graph * R = target for R", "clisolver._cmd_solve",
             ("graph", "other"),
             (("--weak",), ("--full-domain",), ("--all",), ("--exists",), ("--minimal",),
              ("--maximal",), ("--node-budget", int), ("--time-budget", float)),
             exclusive=("--all", "--exists")),
    _Command("check", "boolean predicates with witnesses", "clialgebra._cmd_check",
             ("predicate", "inputs"),
             (("--sub", str, "subgraph vertices, e.g. '0,2,3'"),),
             choices={"predicate": ("hall", "reversible", "prop-n", "prop-nstar",
                                    "retraction", "coretraction")},
             many="inputs"),
    _Command("decompose", "duplicate-then-contract split", "clialgebra._cmd_decompose",
             ("relation",)),
    _Command("reduce", "problem reductions", "clisolver._cmd_reduce",
             ("construction", "graph", "other"),
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


def _negative_number(arg: str) -> bool:
    """Whether ``arg`` matches argparse's ``^-\\d+$|^-\\d*\\.\\d+$``: ``\\d``
    is a Unicode decimal digit, and ``$`` also matches before a final newline."""
    body = arg[1:-1] if arg.endswith("\n") else arg[1:]
    whole, dot, part = body.partition(".")
    return body.isdecimal() or bool(dot) and part.isdecimal() and (not whole or whole.isdecimal())


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
        elif _negative_number(arg) or " " in arg:
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
    module, _, name = cmd.handler.partition(".")
    func = getattr(import_module(f"{__package__}.{module}"), name)
    return SimpleNamespace(json=as_json, command=cmd.name, func=func, **values)


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
    # The handlers' modules import ``relgraph.cli``: run that, not this copy.
    from relgraph.cli import run

    sys.exit(run())
