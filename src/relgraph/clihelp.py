"""Help and usage text for the command-line interface.

Rendered from ``cli``'s command table, and laid out as argparse lays it
out for an 80-column terminal or a pipe: 78 columns, with help lines from
column 24 at most. ``cli`` imports this module only to print help or a
usage error, so no other process compiles it.
"""

from __future__ import annotations

from . import cli

_WIDTH = 78


def _fill(parts: list[str], used: int, indent: int) -> list[str]:
    """``parts`` joined by spaces into lines of at most ``_WIDTH`` columns.

    ``used + 1`` columns precede the first line and ``indent`` each other.
    """
    lines, line = [], []
    for part in parts:
        if line and used + 1 + len(part) > _WIDTH:
            lines.append(" ".join(line))
            line, used = [], indent - 1
        line.append(part)
        used += len(part) + 1
    return lines + [" ".join(line)]


def _metavar(name: str, choices) -> str:
    return "{" + ",".join(choices) + "}" if choices else name


def _invocation(flag: str, dest: str, convert) -> str:
    return flag if convert is None else f"{flag} {dest.upper()}"


def _usage(cmd: cli._Command | None) -> str:
    if cmd is None:
        prog, opts, pos = "relgraph", ["[-h]", "[--json]"], [_metavar("", cli._COMMANDS), "..."]
    else:
        prog, opts, pos = f"relgraph {cmd.name}", ["[-h]"], []
        for flag, (dest, convert, _) in cmd.options.items():
            if flag not in cmd.exclusive:
                opts.append(f"[{_invocation(flag, dest, convert)}]")
            elif flag == cmd.exclusive[0]:
                pair = " | ".join(cmd.exclusive)
                opts.append(f"({pair})" if cmd.required else f"[{pair}]")
        for name in cmd.positionals:
            pos.append(_metavar(name, cmd.choices.get(name)))
            if name == cmd.many:
                pos.append(f"[{name} ...]")
    line = " ".join([prog, *opts, *pos])
    if len("usage: ") + len(line) <= _WIDTH:
        return f"usage: {line}\n"
    indent = len("usage: ") + len(prog) + 1
    lines = _fill([prog, *opts], len("usage: ") - 1, indent) + _fill(pos, indent - 1, indent)
    return "usage: " + f"\n{' ' * indent}".join(lines) + "\n"


def help_text(cmd: cli._Command | None) -> str:
    """The text ``-h`` prints: ``relgraph``'s, or ``cmd``'s when given."""
    if cmd is None:
        intro = "\n" + "\n".join(_fill(cli._DESCRIPTION.split(), -1, 0)) + "\n"
        positionals = [(2, _metavar("", cli._COMMANDS), None)]
        positionals += [(4, c.name, c.help) for c in cli._COMMANDS.values()]
        options = cli._TOP_OPTIONS
    else:
        intro = ""
        positionals = [(2, _metavar(name, cmd.choices.get(name)), None)
                       for name in cmd.positionals]
        options = cmd.options
    rows = [(2, "-h, --help", cli._HELP_OPTIONS["-h"][2])]
    rows += [(2, _invocation(flag, dest, convert), text)
             for flag, (dest, convert, text) in options.items()]
    column = min(max(indent + len(text) for indent, text, _ in positionals + rows) + 2, 24)
    out = [_usage(cmd), intro]
    for title, section in (("positional arguments", positionals), ("options", rows)):
        out.append(f"\n{title}:\n")
        for indent, text, note in section:
            width = column - indent - 2
            if note is None:
                out.append(f"{' ' * indent}{text}\n")
            elif len(text) <= width:
                out.append(f"{' ' * indent}{text:<{width}}  {note}\n")
            else:
                out.append(f"{' ' * indent}{text}\n{' ' * column}{note}\n")
    return "".join(out)


def usage_error(cmd: cli._Command | None, message: str) -> str:
    """What a usage error prints: the usage, then the program and ``message``."""
    prog = "relgraph" if cmd is None else f"relgraph {cmd.name}"
    return f"{_usage(cmd)}{prog}: error: {message}\n"
