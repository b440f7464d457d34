"""Graph serialization: edge-list text, graph6 at every size, and DOT output.

The edge-list dialect is line based, a line ending at CR LF, CR or LF as
text-mode ``open`` and ``grep -n`` see them: ``#`` starts a comment, the first
significant line is ``n <count>``, and every following line is
``e <u> <v>``.  Endpoint labels may be arbitrary whitespace-free tokens;
when every label is a vertex number ``0``..``n-1`` written the way
``str`` writes it, it is used as the vertex index directly, otherwise labels
get indices in order of first appearance.  The count is an optional sign
and ASCII digits, and may not exceed ``MAX_VERTICES``.

``parse_edge_list`` reads the header, then makes one pass over the body that
ORs each edge into the adjacency masks.  Only a token that is not a default
label sends it back over the body once more, to number the labels.  Errors
follow a fixed precedence, whichever route is taken: the first syntax error
in line order, then a label beyond the ``n``-th distinct one, then the first
loop edge.
"""

from __future__ import annotations

import base64
import re
from dataclasses import dataclass

from .graphs import CommutingPartition, Graph, _bits

__all__ = (
    "LabelMap", "ParseError", "emit_dot", "emit_edge_list", "emit_graph6", "parse_edge_list",
    "parse_graph6",
)


# Largest vertex count an edge-list or graph6 header may declare.  The count
# sizes the tables and the adjacency list before any edge is read, so an
# unchecked header could ask for memory the input never justifies.
MAX_VERTICES = 1 << 16


# An optional ASCII sign and ASCII digits: a header count or a word token.
_SIGNED_INT = re.compile(r"[+-]?[0-9]+")


def _echo(text: str, form=str) -> str:  # error texts echo at most 32 characters
    return form(text[:32]) + (f"... ({len(text)} characters)" if len(text) > 32 else "")


class ParseError(ValueError):
    """Malformed input; the message carries the offending line number."""


@dataclass(frozen=True)
class LabelMap:
    """Vertex index -> external label.  Labels are unique, nonempty and free
    of whitespace and of ``#``, which would start a comment in the edge list;
    the default map labels vertex v with str(v)."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        for s in self.labels:
            if s.split() != [s]:
                raise ValueError(f"label {s!r} is empty or contains whitespace")
            if "#" in s:
                raise ValueError(f"label {s!r} contains '#', which starts a comment")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")

    @staticmethod
    def default(n: int) -> LabelMap:
        return LabelMap(tuple(str(v) for v in range(n)))

    def label(self, v: int) -> str:
        return self.labels[v]

    def is_default(self) -> bool:
        return all(s == str(i) for i, s in enumerate(self.labels))


def parse_edge_list(text: str) -> tuple[Graph, LabelMap]:
    """Parse the edge-list dialect; see the module docstring for the rules."""
    # not str.splitlines, which also ends lines at \f, \v, \x1c-\x1e, \x85,
    # U+2028 and U+2029: those are in-line whitespace to str.split
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    n, start = _header(lines)
    index = {str(v): v for v in range(n)}
    adj = [0] * n
    loop = None  # (line number, label) of the first loop edge
    for lineno, tokens in enumerate(_tokens(text, lines, start), start + 1):
        if len(tokens) != 3 or tokens[0] != "e":
            if tokens:
                raise _syntax_error(tokens, lineno)
            continue
        try:
            u = index[tokens[1]]
            v = index[tokens[2]]
        except KeyError:
            return _parse_labelled(text, lines, n, start)
        if u == v and loop is None:
            loop = (lineno, tokens[1])
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if loop is not None:
        raise ParseError(f"line {loop[0]}: loop edge on {loop[1]!r}")
    return Graph(n, tuple(adj)), LabelMap(tuple(index))


def _header(lines: list[str]) -> tuple[int, int]:
    """The vertex count and the index of the line that declares it."""
    for i, raw in enumerate(lines):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        lineno = i + 1
        if tokens[0] != "n":
            raise ParseError(f"line {lineno}: expected header 'n <count>', got {raw.strip()!r}")
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: header must be exactly 'n <count>'")
        count = tokens[1]
        if not _SIGNED_INT.fullmatch(count):
            raise ParseError(f"line {lineno}: vertex count {_echo(count, repr)} is not an integer")
        digits = count.lstrip("+-0")
        if digits and count[0] == "-":
            raise ParseError(f"line {lineno}: vertex count must be nonnegative")
        # the length test comes first: int() refuses over 4300 digits
        if len(digits) > len(str(MAX_VERTICES)) or int(count) > MAX_VERTICES:
            limit = f"exceeds the limit of {MAX_VERTICES}"
            raise ParseError(f"line {lineno}: vertex count {_echo(digits)} {limit}")
        return int(count), lineno
    raise ParseError("line 1: missing 'n <count>' header")


def _tokens(text: str, lines: list[str], start: int):
    """The tokens of each line after ``lines[:start]``, comments removed."""
    body = lines[start:]
    if "#" in text:
        return (raw.split("#", 1)[0].split() for raw in body)
    return map(str.split, body)


def _syntax_error(tokens: list[str], lineno: int) -> ParseError:
    """The error for a nonempty body line that is not ``e <u> <v>``."""
    if tokens[0] == "n":
        return ParseError(f"line {lineno}: duplicate 'n' header")
    if tokens[0] != "e":
        return ParseError(f"line {lineno}: unknown directive {tokens[0]!r}")
    return ParseError(f"line {lineno}: edge line must be exactly 'e <u> <v>'")


def _parse_labelled(text: str, lines: list[str], n: int, start: int) -> tuple[Graph, LabelMap]:
    """The label path: a token that is not a default label was met, so the
    body is read again with labels indexed in order of first appearance."""
    raw_edges = []  # (label u, label v, line number)
    for lineno, tokens in enumerate(_tokens(text, lines, start), start + 1):
        if len(tokens) != 3 or tokens[0] != "e":
            if tokens:
                raise _syntax_error(tokens, lineno)
            continue
        raw_edges.append((tokens[1], tokens[2], lineno))
    labels = _assign_labels(n, raw_edges)
    index = {lab: i for i, lab in enumerate(labels.labels)}
    adj = [0] * n
    for lu, lv, lineno in raw_edges:
        if lu == lv:
            raise ParseError(f"line {lineno}: loop edge on {lu!r}")
        u, v = index[lu], index[lv]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj)), labels


def _assign_labels(n: int, raw_edges: list[tuple[str, str, int]]) -> LabelMap:
    """Indices in order of first appearance; unused vertices get their own
    number as label, prefixed with ``_`` until it is unique."""
    assigned: dict[str, int] = {}
    for lu, lv, lineno in raw_edges:
        for t in (lu, lv):
            if t not in assigned:
                if len(assigned) == n:
                    raise ParseError(
                        f"line {lineno}: label {t!r} is the {n + 1}-th distinct "
                        f"label but the graph has only {n} vertices"
                    )
                assigned[t] = len(assigned)
    labels = [""] * n
    for lab, i in assigned.items():
        labels[i] = lab
    used = set(assigned)
    for i in range(n):
        if not labels[i]:
            candidate = str(i)
            while candidate in used:
                candidate = "_" + candidate
            labels[i] = candidate
            used.add(candidate)
    return LabelMap(tuple(labels))


def emit_edge_list(g: Graph, labels: LabelMap | None = None) -> str:
    """Serialize to the edge-list dialect; parse_edge_list inverts this."""
    if labels is None:
        labels = LabelMap.default(g.n)
    if len(labels.labels) != g.n:
        raise ValueError("label map size does not match the graph")
    names = labels.labels
    lines = [f"n {g.n}"]
    for u, row in enumerate(g.adj):
        head = f"e {names[u]} "
        lines.extend([head + names[v] for v in _bits(row >> u + 1 << u + 1)])
    return "\n".join(lines) + "\n"


# graph6 (https://users.cecs.anu.edu.au/~bdm/data/formats.txt) is base64 in
# the alphabet chr(63)..chr(126), taken in its own order.
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6 = bytes.maketrans(_B64, bytes(range(63, 127)))
_FROM_G6 = bytes.maketrans(bytes(range(63, 127)), _B64)


def emit_graph6(g: Graph) -> str:
    """graph6 of n <= ``MAX_VERTICES`` vertices: the size n + 63 for n <= 62,
    else ``~`` and 18 bits, then the upper triangle column by column, (0,1),
    (0,2), (1,2), (0,3) and so on, big-endian in 6-bit groups offset by 63."""
    n = g.n
    if n > MAX_VERTICES:
        raise ValueError(f"graph6 vertex count {n} exceeds the limit of {MAX_VERTICES}")
    # the size digits, then column v of the upper triangle: row v below the diagonal
    bits = f"{n:0{6 if n < 63 else 18}b}"
    bits += "".join(f"{row & (1 << v) - 1:0{v}b}"[::-1] for v, row in enumerate(g.adj) if v)
    digits = -(-len(bits) // 6)
    bits += "0" * (-len(bits) % 24)  # whole base64 quads
    text = base64.b64encode(int(bits, 2).to_bytes(len(bits) // 8, "big")).translate(_TO_G6)
    return "~" * (n > 62) + text[:digits].decode("ascii")


def parse_graph6(data: str | bytes) -> Graph:
    """Decode a graph6 string; strict inverse of :func:`emit_graph6`.

    Reads every size form, ``~~`` and six digits too, but accepts only the
    shortest.  Checks the size and the body length before it allocates."""
    if isinstance(data, bytes) and not data.isascii():
        raise ParseError("graph6 input is not ASCII")
    data = data.decode("ascii") if isinstance(data, bytes) else data
    if not data:
        raise ParseError("empty graph6 input")
    if bad := re.search("[^?-~]", data):
        raise ParseError(f"graph6 byte {ord(bad[0])} outside the printable range 63..126")
    form = data.startswith("~") + data.startswith("~~")
    k, least = ((1, 0), (4, 63), (8, 63 << 12))[form]  # size bytes, least n for that form
    if len(data) < k:
        raise ParseError("graph6 size header is truncated")
    n = int("".join(f"{ord(c) - 63:06b}" for c in data[form:k]), 2)
    if n < least:
        raise ParseError(f"graph6 size form of {k} bytes is longer than n = {n} needs")
    if n > MAX_VERTICES:
        raise ParseError(f"graph6 vertex count {n} exceeds the limit of {MAX_VERTICES}")
    npairs = n * (n - 1) // 2
    expected = (npairs + 5) // 6
    body = data[k:].encode()
    if len(body) != expected:
        have = f"graph6 body has {len(body)} bytes"
        raise ParseError(f"{have} where {expected} are required for n = {n}")
    pad = 6 * expected - npairs
    x = int.from_bytes(base64.b64decode(b"A" * (-expected % 4) + body.translate(_FROM_G6)), "big")
    if x & (1 << pad) - 1:
        raise ParseError("graph6 padding bits must be zero")
    bits = f"{x >> pad:0{npairs}b}".encode()
    m = bytearray(b"0") * (n * n)  # row v gets column v of the upper triangle
    for v in range(1, n):
        m[v * n : v * n + v] = bits[v * (v - 1) // 2 : v * (v + 1) // 2]
    # row u of the graph is row u of m, then column u of m from the diagonal down
    rows = (m[u * n : u * n + u] + m[u * n + u :: n] for u in range(n))
    return Graph(n, tuple(int(row[::-1], 2) for row in rows))


def emit_dot(
    g: Graph,
    partition: CommutingPartition | None = None,
    labels: LabelMap | None = None,
) -> str:
    """DOT text for the graph; blocks render as clusters when a partition is
    given, with p0 visually distinguished from the parts.  A label's ``\\``
    and ``"`` are escaped inside its quotes."""
    if labels is None:
        labels = LabelMap.default(g.n)
    if len(labels.labels) != g.n:
        raise ValueError("label map size does not match the graph")
    out = ["graph G {"]

    def node_line(v: int) -> str:
        label = labels.label(v).replace("\\", "\\\\").replace('"', '\\"')
        return f'  {v} [label="{label}"];'

    if partition is None:
        out.extend(map(node_line, range(g.n)))
    else:
        for k, block in enumerate(partition.blocks()):
            if not block:  # only p0 can be empty
                continue
            out += [f"  subgraph cluster_p{k} {{", f'    label="P{k}";']
            out += ["    style=filled;", "    color=lightgrey;"] if k == 0 else ["    color=black;"]
            out.extend("  " + node_line(v) for v in sorted(block))
            out.append("  }")
    ends = [f"{v};" for v in range(g.n)]
    for u, row in enumerate(g.adj):
        head = f"  {u} -- "
        out.extend([head + ends[v] for v in _bits(row >> u + 1 << u + 1)])
    out.append("}")
    return "\n".join(out) + "\n"
