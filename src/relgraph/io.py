"""Plain-text graph and relation files.

Graph files: a header line ``graph <n>`` followed by edge lines ``<u> <v>``
(a loop is ``<v> <v>``). Relation files: header ``relation <domain> <image>``
followed by pair lines ``<x> <b>``. Lines starting with ``#`` and blank
lines are ignored; duplicate entry lines collapse. Printers emit sorted
entries and append any vertex labels as comments, so output is canonical
and round-trips through the parser.
"""

from __future__ import annotations

from .core import Graph, Relation, relation_from_pairs


class ParseError(ValueError):
    """Input file rejected; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _int_fields(lineno: int, line: str, count: int, what: str) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        raise ParseError(lineno, f"expected {count} fields for {what}, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(lineno, f"non-integer field in {what}: {line!r}") from None


def parse_graph(text: str) -> Graph:
    lines = _content_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError(1, "empty input, expected 'graph <n>' header") from None
    parts = header.split()
    if len(parts) != 2 or parts[0] != "graph":
        raise ParseError(lineno, f"expected 'graph <n>' header, got {header!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(lineno, f"vertex count must be an integer, got {parts[1]!r}") from None
    if n < 0:
        raise ParseError(lineno, "vertex count must be non-negative")
    rows = [0] * n
    for lineno, line in lines:
        u, v = _int_fields(lineno, line, 2, "an edge")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(lineno, f"edge ({u}, {v}) out of range for {n} vertices")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._of_rows(rows)


def parse_relation(text: str) -> Relation:
    lines = _content_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError(1, "empty input, expected 'relation <domain> <image>' header") from None
    parts = header.split()
    if len(parts) != 3 or parts[0] != "relation":
        raise ParseError(
            lineno, f"expected 'relation <domain> <image>' header, got {header!r}"
        )
    try:
        dn, im = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(lineno, "universe sizes must be integers") from None
    if dn < 0 or im < 0:
        raise ParseError(lineno, "universe sizes must be non-negative")
    pairs = set()
    for lineno, line in lines:
        x, b = _int_fields(lineno, line, 2, "a pair")
        if not (0 <= x < dn and 0 <= b < im):
            raise ParseError(lineno, f"pair ({x}, {b}) outside {dn}x{im} universes")
        pairs.add((x, b))
    return relation_from_pairs(dn, im, pairs)


def format_graph(g: Graph, note: str | None = None) -> str:
    out = []
    if note:
        out.append(f"# {note}")
    out.append(f"graph {g.n}")
    out.extend(f"{u} {v}" for u, v in sorted(g.edges))
    if g.labels is not None:
        out.extend(f"# vertex {i} = {name}" for i, name in enumerate(g.labels))
    return "\n".join(out) + "\n"


def format_relation(rel: Relation, note: str | None = None) -> str:
    out = []
    if note:
        out.append(f"# {note}")
    out.append(f"relation {rel.domain_size} {rel.image_size}")
    out.extend(f"{x} {b}" for x, b in sorted(rel.pairs))
    return "\n".join(out) + "\n"


def graph_to_json(g: Graph) -> dict:
    return {
        "n": g.n,
        "edges": [list(e) for e in sorted(g.edges)],
        "labels": list(g.labels) if g.labels is not None else None,
    }


def relation_to_json(rel: Relation) -> dict:
    return {
        "domain_size": rel.domain_size,
        "image_size": rel.image_size,
        "pairs": [list(p) for p in sorted(rel.pairs)],
    }


def json_text(value, indent: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, with
    each line after the first indented as ``indent`` (a newline and the
    indentation of the line ``value`` starts on).

    Dicts with string keys, lists, tuples, ints, bools, None and strings of
    printable ASCII other than quote and backslash are rendered here, so
    that a CLI process imports neither ``json`` nor the ``re`` that its
    decoder imports. Anything else, such as a float or a string that needs
    escaping, is rendered by ``json``, whose text holds a newline only
    between two of its lines.
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return '"' + value + '"'
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join(json_text(v, inner) for v in value) + indent + "]"
    elif isinstance(value, dict) and all(isinstance(key, str) for key in value):
        if not value:
            return "{}"
        members = (f"{json_text(key)}: {json_text(v, inner)}" for key, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(members) + indent + "}"
    import json

    return json.dumps(value, indent=2, sort_keys=True).replace("\n", indent)
