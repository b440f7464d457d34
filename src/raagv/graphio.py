"""Graph serialization: edge-list text, graph6 at every size, and DOT output.

The edge-list dialect is line based, a line ending at CR LF, CR or LF as
text-mode ``open`` and ``grep -n`` see them: ``#`` starts a comment, the first
significant line is ``n <count>``, and every following line is
``e <u> <v>``.  Endpoint labels may be arbitrary whitespace-free tokens;
when every label is a vertex number ``0``..``n-1`` written the way
``str`` writes it, it is used as the vertex index directly, otherwise labels
get indices in order of first appearance.  The count is an optional sign
and ASCII digits, and may not exceed ``MAX_VERTICES``.

``parse_edge_list`` reads the header, then walks the body in chunks of whole
lines, about ``_CHUNK`` characters each, so it never builds the list of all
lines.  It splits each chunk once and takes the split whole when the chunk
has k lines and 3k tokens, each line starts with ``e`` and a space, the chunk
holds no other ``e`` character and no ``#``, and the tokens at positions 0,
3, 6, ... are all ``e``.  That suffices whatever the labels: the ``e`` that
starts a line is a token of its own, and since the chunk holds no other
``e``, these k tokens are its only ``e`` tokens.  They fill the k positions
0, 3, ..., 3k - 3, so line i holds exactly tokens 3i..3i+2.  (Without the
character count a label ``e`` could stand in for a line start: ``e x`` then
``e e y z`` passes every other check.)  Any other chunk is read line by line.

One pass over the walk reads every label as a vertex number and ORs each edge
into its second endpoint's mask, and each run of edges with one first
endpoint, a row as ``emit_edge_list`` writes it, into that endpoint's mask at
once.  A token that is not a default label, or a loop edge, sends it over the
body once more, in chunks too, to number the labels in order of first
appearance or to name the loop's line; neither walk keeps a list of the
edges.  Errors follow a fixed precedence: the first syntax error in
line order, then a label beyond the ``n``-th distinct one, then the first loop
edge.  Error texts echo at most 32 characters of the offending text.
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
        return _default_map(tuple(map(str, range(n))))

    def label(self, v: int) -> str:
        return self.labels[v]

    def is_default(self) -> bool:
        return all(s == str(i) for i, s in enumerate(self.labels))


def _default_map(labels: tuple[str, ...]) -> LabelMap:
    """The map of ``labels``, which are ``str(v)`` for v = 0, 1, ...: unique,
    nonempty and free of whitespace and ``#`` by construction, so the
    per-label checks of ``__post_init__`` are skipped."""
    m = object.__new__(LabelMap)
    object.__setattr__(m, "labels", labels)
    return m


def parse_edge_list(text: str) -> tuple[Graph, LabelMap]:
    """Parse the edge-list dialect; see the module docstring for the rules."""
    # not str.splitlines, which also ends lines at \f, \v, \x1c-\x1e, \x85,
    # U+2028 and U+2029: those are in-line whitespace to str.split
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    n, pos, lineno = _header(text)
    index = {str(v): v for v in range(n)}
    adj = [0] * n
    prev = None  # the first endpoint of the current run, u, whose second endpoints gather in run
    u = run = 0
    try:
        for firsts, seconds, _ in _edges(text, pos, lineno):
            for a, b in zip(firsts, seconds):
                if a != prev:
                    if run:
                        adj[u] |= run
                    prev = a
                    u = index[a]
                    bit_u = 1 << u
                    run = 0
                v = index[b]
                run |= 1 << v
                adj[v] |= bit_u
    except KeyError:
        return _parse_labelled(text, n, pos, lineno)
    if run:
        adj[u] |= run
    if any(row >> v & 1 for v, row in enumerate(adj)):
        return _parse_labelled(text, n, pos, lineno)  # a loop edge: that pass names its line
    return Graph(n, tuple(adj)), _default_map(tuple(index))


def _header(text: str) -> tuple[int, int, int]:
    """The vertex count, and the offset and number of the line after the
    line that declares it."""
    pos = 0
    lineno = 1
    while pos <= len(text):
        end = text.find("\n", pos)
        if end < 0:
            end = len(text)
        raw = text[pos:end]
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            break
        pos = end + 1
        lineno += 1
    else:
        raise ParseError("line 1: missing 'n <count>' header")
    if tokens[0] != "n":
        raise ParseError(f"line {lineno}: expected header 'n <count>', got {_echo(raw.strip(), repr)}")
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
    return int(count), end + 1, lineno + 1


# Characters per chunk of the body walk, rounded up to a whole line.  A
# chunk's tokens take about 17 times its text: at 32 kB they outweighed a
# list of every line of a whole 46 kB file, and a smaller chunk only adds
# calls.
_CHUNK = 1 << 13


def _edges(text: str, pos: int, lineno: int):
    """The body from offset ``pos``, line ``lineno`` on, in chunks of whole
    lines: for each chunk, its edge lines' first endpoints, second endpoints
    and line numbers.  Raises at the first line that is neither blank nor an
    edge line."""
    stop = len(text) - text.endswith("\n")  # the body's last line ends here
    while pos <= stop:
        end = text.find("\n", pos + _CHUNK, stop)
        if end < 0:
            end = stop
        chunk = text[pos:end]
        pos = end + 1
        k = chunk.count("\n") + 1
        if (
            ("\n" + chunk).count("\ne ") == k == chunk.count("e")
            and "#" not in chunk
            and len(tokens := chunk.split()) == 3 * k
            and tokens[0::3] == ["e"] * k
        ):
            yield tokens[1::3], tokens[2::3], range(lineno, lineno + k)
        else:
            rows = chunk.split("\n")
            lines = (raw.split("#", 1)[0].split() for raw in rows) if "#" in chunk else map(str.split, rows)
            tokens = []
            linenos = []
            for i, line in enumerate(lines, lineno):
                if len(line) == 3 and line[0] == "e":
                    tokens += line
                    linenos.append(i)
                elif line:
                    raise _syntax_error(line, i)
            yield tokens[1::3], tokens[2::3], linenos
        lineno += k


def _syntax_error(tokens: list[str], lineno: int) -> ParseError:
    """The error for a nonempty body line that is not ``e <u> <v>``."""
    if tokens[0] == "n":
        return ParseError(f"line {lineno}: duplicate 'n' header")
    if tokens[0] != "e":
        return ParseError(f"line {lineno}: unknown directive {_echo(tokens[0], repr)}")
    return ParseError(f"line {lineno}: edge line must be exactly 'e <u> <v>'")


def _parse_labelled(text: str, n: int, pos: int, lineno: int) -> tuple[Graph, LabelMap]:
    """The label path: a token that is not a default label, or a loop edge,
    was met, so the body is walked again, each label indexed as it is first
    read; unused vertices get their own number as label, prefixed with ``_``
    until it is unique."""
    index: dict[str, int] = {}
    adj = [0] * n
    loop = ""  # the error for the first loop edge, raised after the walk
    walk = _edges(text, pos, lineno)
    for chunk in walk:
        for a, b, i in zip(*chunk):
            u = index.setdefault(a, len(index))
            v = index.setdefault(b, len(index))
            if u >= n or v >= n:
                for _ in walk:  # a syntax error on a later line comes first
                    pass
                raise ParseError(
                    f"line {i}: label {_echo(a if u >= n else b, repr)} is the {n + 1}-th distinct "
                    f"label but the graph has only {n} vertices"
                )
            if u == v and not loop:
                loop = f"line {i}: loop edge on {_echo(a, repr)}"
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    if loop:
        raise ParseError(loop)
    for v in range(len(index), n):
        label = str(v)
        while label in index:
            label = "_" + label
        index[label] = v
    return Graph(n, tuple(adj)), LabelMap(tuple(index))


def emit_edge_list(g: Graph, labels: LabelMap | None = None) -> str:
    """Serialize to the edge-list dialect; parse_edge_list inverts this."""
    if labels is None:
        labels = LabelMap.default(g.n)
    if len(labels.labels) != g.n:
        raise ValueError("label map size does not match the graph")
    names = labels.labels
    lines = [f"n {g.n}"]
    for u, row in enumerate(g.adj):
        if upper := row >> u + 1 << u + 1:
            head = f"e {names[u]} "
            lines.append(head + ("\n" + head).join(map(names.__getitem__, _bits(upper))))
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
        if upper := row >> u + 1 << u + 1:
            head = f"  {u} -- "
            out.append(head + ("\n" + head).join(map(ends.__getitem__, _bits(upper))))
    out.append("}")
    return "\n".join(out) + "\n"
