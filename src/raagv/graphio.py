"""Graph serialization: edge-list text, graph6, and DOT output.

The edge-list dialect is line based: ``#`` starts a comment, the first
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

from dataclasses import dataclass

from .graphs import Graph, _bits
from .partition import CommutingPartition
from .words import _SIGNED_INT, _echo


# Largest vertex count an edge-list header may declare.  The count sizes the
# label table and the adjacency list before any edge is read, so an unchecked
# header could ask for memory the input never justifies.
MAX_VERTICES = 1 << 16


class ParseError(ValueError):
    """Malformed input; the message carries the offending line number."""


@dataclass(frozen=True)
class LabelMap:
    """Vertex index -> external label.  Labels are unique, nonempty and free
    of whitespace; the default map labels vertex v with str(v)."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        for s in self.labels:
            if s.split() != [s]:
                raise ValueError(f"label {s!r} is empty or contains whitespace")
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
    lines = text.splitlines()
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


_G6_MAX_N = 62


def emit_graph6(g: Graph) -> str:
    """graph6 encoding, single-byte size form only (n <= 62).

    Bits run over the upper triangle column by column, (0,1), (0,2), (1,2),
    (0,3) and so on, packed big-endian into 6-bit groups offset by 63.
    """
    if g.n > _G6_MAX_N:
        raise ValueError(f"graph6 support stops at n = {_G6_MAX_N}, got {g.n}")
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(g.has_edge(u, v))
    out = [chr(g.n + 63)]
    for i in range(0, len(bits), 6):
        group = bits[i : i + 6]
        group += [False] * (6 - len(group))
        val = 0
        for b in group:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def parse_graph6(data: str | bytes) -> Graph:
    """Decode a graph6 string; strict inverse of :func:`emit_graph6`."""
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError:
            raise ParseError("graph6 input is not ASCII") from None
    if not data:
        raise ParseError("empty graph6 input")
    codes = [ord(ch) for ch in data]
    for ch in codes:
        if not 63 <= ch <= 126:
            raise ParseError(f"graph6 byte {ch} outside the printable range 63..126")
    n = codes[0] - 63
    if n > _G6_MAX_N:
        raise ParseError("multi-byte graph6 size forms are not supported")
    npairs = n * (n - 1) // 2
    expected = (npairs + 5) // 6
    if len(codes) - 1 != expected:
        raise ParseError(
            f"graph6 body has {len(codes) - 1} bytes where {expected} are required for n = {n}"
        )
    bits = []
    for ch in codes[1:]:
        val = ch - 63
        bits.extend(val >> k & 1 for k in (5, 4, 3, 2, 1, 0))
    if any(bits[npairs:]):
        raise ParseError("graph6 padding bits must be zero")
    adj = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            i += 1
    return Graph(n, tuple(adj))


def emit_dot(
    g: Graph,
    partition: CommutingPartition | None = None,
    labels: LabelMap | None = None,
) -> str:
    """DOT text for the graph; blocks render as clusters when a partition is
    given, with p0 visually distinguished from the parts."""
    if labels is None:
        labels = LabelMap.default(g.n)
    out = ["graph G {"]

    def node_line(v: int) -> str:
        return f'  {v} [label="{labels.label(v)}"];'

    if partition is None:
        for v in range(g.n):
            out.append(node_line(v))
    else:
        if partition.p0:
            out.append("  subgraph cluster_p0 {")
            out.append('    label="P0";')
            out.append("    style=filled;")
            out.append("    color=lightgrey;")
            for v in sorted(partition.p0):
                out.append("  " + node_line(v))
            out.append("  }")
        for k, part in enumerate(partition.parts, start=1):
            out.append(f"  subgraph cluster_p{k} {{")
            out.append(f'    label="P{k}";')
            out.append("    color=black;")
            for v in sorted(part):
                out.append("  " + node_line(v))
            out.append("  }")
    for u, v in g.edges():
        out.append(f"  {u} -- {v};")
    out.append("}")
    return "\n".join(out) + "\n"
