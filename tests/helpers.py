"""Shared test utilities: small named graphs, independent brute-force
oracles, and hypothesis strategies.

The oracles here deliberately avoid the package's bitmask machinery (plain
dicts and itertools) so that agreement tests actually compare two routes.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cache
from itertools import combinations

from typing import Collection, Iterable, Iterator

from hypothesis import strategies as st

from raagv import (
    CommutingPartition,
    ForbiddenTriple,
    Graph,
    GroupDecomposition,
    InternalEdge,
    LabelMap,
    Letter,
    MissingCrossEdge,
    NormalForm,
    ParseError,
    Word,
    WrongP0,
    canonical_partition,
    find_forbidden_triple,
    greedy_partition,
    new_graph,
    recognize_multipartite,
)
from raagv.graphio import MAX_VERTICES, _echo
from raagv.graphs import _bits, _low, _universal_mask
from raagv.matrixrep import IDENTITY, Matrix, MatrixImage, evaluate_word


def empty_graph(n: int) -> Graph:
    return new_graph(n, [])


def complete_graph(n: int) -> Graph:
    return new_graph(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return new_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return new_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return new_graph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


def forbidden_pattern_graph() -> Graph:
    """Three vertices, one edge: the smallest non-embeddable graph."""
    return new_graph(3, [(0, 1)])


def induced_subgraph(g: Graph, keep: list[int]) -> Graph:
    """Subgraph induced on ``keep``, vertices renumbered by position."""
    keep = sorted(set(keep))
    pos = {v: i for i, v in enumerate(keep)}
    edges = [(pos[u], pos[v]) for u, v in combinations(keep, 2) if g.has_edge(u, v)]
    return new_graph(len(keep), edges)


def graph_from_code(n: int, code: int) -> Graph:
    """Decode a graph from the integer whose bit i is the adjacency of the
    i-th vertex pair in lexicographic order: the graph numbered ``code`` by
    ``harness.enumerate_graphs``.  Decoded pair by pair through
    :func:`new_graph`, not through the enumerator's packed rows."""
    pairs = combinations(range(n), 2)
    return new_graph(n, [pair for i, pair in enumerate(pairs) if code >> i & 1])


def graph_code(g: Graph) -> int:
    """The inverse of :func:`graph_from_code`."""
    code = 0
    for i, (u, v) in enumerate(combinations(range(g.n), 2)):
        if g.has_edge(u, v):
            code |= 1 << i
    return code


# ---------------------------------------------------------------- oracles

def brute_is_nb(g: Graph) -> bool:
    """Pattern-free iff no three vertices span exactly one edge."""
    for t in combinations(range(g.n), 3):
        spanned = sum(1 for u, v in combinations(t, 2) if g.has_edge(u, v))
        if spanned == 1:
            return False
    return True


def brute_least_triple(g: Graph) -> tuple[int, int, int] | None:
    """Lexicographically least (a, b, c) with (a, b) an edge and c adjacent
    to neither, by scanning every ordered candidate."""
    best = None
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if not g.has_edge(a, b):
                continue
            for c in range(g.n):
                if c in (a, b) or g.has_edge(a, c) or g.has_edge(b, c):
                    continue
                t = (a, b, c)
                if best is None or t < best:
                    best = t
    return best


def eccentricity(g: Graph, v: int) -> int | None:
    """Greatest geodesic distance from v, by breadth-first search on the
    masks: the definition :func:`reference_universal_vertices` reads.

    Returns None when some vertex is unreachable from v, and 0 on the
    one-vertex graph.  Never returns a sentinel integer, so an
    ``eccentricity(g, v) == 1`` test cannot be fooled by disconnection.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} is outside 0..{g.n - 1}")
    full = (1 << g.n) - 1
    visited = frontier = 1 << v
    dist = 0
    while True:
        nxt = 0
        for u in _bits(frontier):
            nxt |= g.adj[u]
        nxt &= ~visited
        if not nxt:
            break
        visited |= nxt
        frontier = nxt
        dist += 1
    return dist if visited == full else None


def slow_eccentricity(g: Graph, v: int) -> int | None:
    """Dict-and-list BFS, independent of the bitmask implementation."""
    dist = {v: 0}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for w in range(g.n):
                if g.has_edge(u, w) and w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    if len(dist) < g.n:
        return None
    return max(dist.values())


def predicted_canonical_family(
    n: int, p0: frozenset[int], parts: tuple[frozenset[int], ...]
) -> tuple[frozenset[int], frozenset[frozenset[int]]]:
    """Expected canonical family of the graph built from these blocks:
    singleton parts come out universal (n >= 2) and migrate into p0, while
    the sole vertex of a one-vertex graph never counts as universal."""
    if n == 1:
        return frozenset(), frozenset({frozenset({0})})
    absorbed = set(p0)
    kept = []
    for part in parts:
        if len(part) == 1:
            absorbed.update(part)
        else:
            kept.append(part)
    return frozenset(absorbed), frozenset(kept)


# ------------------------------------------------- complement structure
#
# Used only by the reference recognizer below, so they live with the tests.


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~g.adj[v] & ~(1 << v) for v in range(g.n)))


def reference_bits(mask: int) -> tuple[int, ...]:
    """``graphs._bits`` as a single low-bit loop for every mask size."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def graph_edges(g: Graph) -> Iterator[tuple[int, int]]:
    """The edges (u, v) with u < v in lexicographic order."""
    for u, row in enumerate(g.adj):
        for v in _bits(row >> u + 1 << u + 1):
            yield (u, v)


def edge_count(g: Graph) -> int:
    return sum(m.bit_count() for m in g.adj) // 2


def block_family(p: CommutingPartition) -> tuple[frozenset[int], frozenset[frozenset[int]]]:
    """Order-free view of a partition: two partitions describe the same
    block structure exactly when their families agree."""
    return (p.p0, frozenset(p.parts))


def reference_edges(g: Graph):
    """:func:`graph_edges` with each row walked by :func:`reference_bits`."""
    for u, row in enumerate(g.adj):
        for v in reference_bits(row >> u + 1 << u + 1):
            yield (u, v)


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each sorted ascending, the
    list ordered by minimum vertex."""
    seen = 0
    out = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = comp
        while frontier:
            nxt = 0
            for u in reference_bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        out.append(reference_bits(comp))
    return out


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    """True when every two distinct vertices of s are adjacent.

    Vacuously true for |s| <= 1.
    """
    verts = sorted(set(s))
    for v in verts:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} is outside 0..{g.n - 1}")
    mask = sum(1 << v for v in verts)
    for v in verts:
        if g.adj[v] & mask != mask & ~(1 << v):
            return False
    return True


# ------------------------------------------------------ reference deciders
#
# The package's first implementations of the mask-based deciders, kept to
# pin the fast versions to their definitions: eccentricity-one vertices by
# breadth-first search, the partition from complement components, and the
# validator's ordered pair scan.


@cache  # the reference recognizer, validator and greedy run each ask for it
def reference_universal_vertices(g: Graph) -> frozenset[int]:
    if g.n <= 1:
        return frozenset()
    return frozenset(v for v in range(g.n) if eccentricity(g, v) == 1)


def reference_recognize_multipartite(g: Graph) -> CommutingPartition | None:
    co = complement(g)
    comps = connected_components(co)
    for comp in comps:
        if not is_clique(co, comp):
            return None
    uni = reference_universal_vertices(g)
    p0 = []
    parts = []
    for comp in comps:
        if len(comp) == 1 and comp[0] in uni:
            p0.append(comp[0])
        else:
            parts.append(frozenset(comp))
    return CommutingPartition(frozenset(p0), tuple(parts))


def reference_validate_partition(g: Graph, p: CommutingPartition):
    """First violation in the documented order; assumes the blocks already
    partition the vertex set."""
    blocks = p.blocks()
    ecc_one = reference_universal_vertices(g)
    for v in range(g.n):
        if (v in p.p0) != (v in ecc_one):
            return WrongP0(v, should_be_in_p0=v in ecc_one)
    for k, part in enumerate(p.parts, start=1):
        verts = sorted(part)
        for i, u in enumerate(verts):
            for v in verts[i + 1 :]:
                if g.has_edge(u, v):
                    return InternalEdge(u, v, k)
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            for u in sorted(blocks[i]):
                for v in sorted(blocks[j]):
                    if not g.has_edge(u, v):
                        return MissingCrossEdge(u, v, (i, j))
    return None


@dataclass(frozen=True)
class GreedyRun:
    """Raw outcome of the block-building loop, parts in discovery order with
    the pivot that generated each one."""

    p0: frozenset[int]
    parts: tuple[frozenset[int], ...]
    pivots: tuple[int, ...]


def run_greedy(g: Graph) -> GreedyRun:
    """The cut loop of :func:`two_phase_cuts`, with its masks turned into
    vertex sets; each part's pivot is its least vertex."""
    p0, parts = two_phase_cuts(g)
    blocks = tuple(frozenset(_bits(m)) for m in parts)
    return GreedyRun(frozenset(_bits(p0)), blocks, tuple(map(_low, parts)))


def seeded_pivot(seed: int):
    """A pivot rule drawing uniformly from the remaining set, reproducibly."""
    rng = random.Random(seed)
    return lambda remaining: rng.choice(remaining)


def reference_run_greedy(g: Graph, pivot_rule=min) -> GreedyRun:
    """The greedy loop on vertex sets; ``pivot_rule`` picks each pivot from
    the ascending tuple of unassigned vertices (by default the least, as
    ``greedy_partition`` does)."""
    p0 = reference_universal_vertices(g)
    remaining = set(range(g.n)) - p0
    parts = []
    pivots = []
    while remaining:
        w = pivot_rule(tuple(sorted(remaining)))
        part = frozenset(v for v in remaining if not g.has_edge(w, v))
        parts.append(part)
        pivots.append(w)
        remaining -= part
    return GreedyRun(p0, tuple(parts), tuple(pivots))


def reference_greedy_partition(g: Graph, pivot_rule=min) -> CommutingPartition | ForbiddenTriple:
    """The greedy builder on vertex sets, in two phases.

    First every part is cut: ``pivot_rule`` picks a pivot w from the
    ascending tuple of unassigned vertices (by default the least, as
    ``greedy_partition`` does), and w's part is w with its unassigned
    non-neighbours.  Then the parts are checked in cut order, each vertex
    but the pivot in ascending order, and the first u whose neighbours are
    not exactly the vertices outside its part names the witness: (u, v, w)
    for its least neighbour v inside the part, else (w, x, u), the edge
    sorted, for the least x outside the part that u misses.  When every
    check passes, the one-vertex parts, which hold the universal vertices,
    make up p0 (unless g has one vertex) and the other parts come ascending
    by least vertex.
    """
    vertices = frozenset(range(g.n))
    remaining = set(vertices)
    cuts = []
    while remaining:
        w = pivot_rule(tuple(sorted(remaining)))
        part = frozenset(remaining.difference(_bits(g.adj[w])))
        cuts.append((w, part))
        remaining -= part
    for w, part in cuts:
        outside = vertices - part
        for u in sorted(part - {w}):
            neighbours = set(_bits(g.adj[u]))
            if neighbours & part:
                return ForbiddenTriple(u, min(neighbours & part), w)
            if neighbours != outside:
                x = min(outside - neighbours)
                return ForbiddenTriple(min(w, x), max(w, x), u)
    p0 = frozenset(w for w, part in cuts if len(part) == 1 and g.n > 1)
    return CommutingPartition(p0, tuple(sorted((part for _, part in cuts if not part <= p0), key=min)))


# ------------------------------------------------------ two-phase cuts
#
# The mask-level cut loop as it was before the greedy builder checked each
# part as it cut it: the universal pass, then every cut.  The greedy core's
# cut masks must be a prefix of these.


def two_phase_cuts(g: Graph) -> tuple[int, list[int]]:
    """p0 is the eccentricity-one set; then each round cuts off the least
    unassigned vertex with its unassigned non-neighbours.  Returns the p0
    mask and the part masks in cut order."""
    adj = g.adj
    p0 = _universal_mask(g)
    remaining = (1 << g.n) - 1 ^ p0
    parts: list[int] = []
    while remaining:
        part = remaining & ~adj[_low(remaining)]
        parts.append(part)
        remaining ^= part
    return p0, parts


# ------------------------------------------------------ perturbed graphs


def toggled(g: Graph, u: int, v: int) -> Graph:
    adj = list(g.adj)
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    return Graph(g.n, tuple(adj))


def near_misses(g: Graph, rng: random.Random) -> list[Graph]:
    """One edge added inside a part, one cross edge removed.

    The edge is added inside a part of at least three vertices whenever g
    has one, and then the first near miss is never a member: a third vertex
    of that part sees neither end of the new edge.  Joining the two vertices
    of a two-vertex part only makes both universal.
    """
    p = recognize_multipartite(g)
    parts = [b for b in p.parts if len(b) > 1]
    u, v = rng.sample(sorted(rng.choice([b for b in parts if len(b) > 2] or parts)), 2)
    a, b = rng.sample([sorted(b) for b in p.blocks() if b], 2)
    return [toggled(g, u, v), toggled(g, rng.choice(a), rng.choice(b))]


def restricted_growth_strings(n: int) -> list[tuple[int, ...]]:
    """Every set partition of range(n), as the string whose entry v numbers
    the block of v, blocks numbered by first appearance: Bell(n) strings."""
    strings: list[tuple[int, ...]] = [()]
    for _ in range(n):
        strings = [s + (b,) for s in strings for b in range(max(s, default=-1) + 2)]
    return strings


def boundary_graphs(n: int) -> Iterator[tuple[Graph, bool]]:
    """Both sides of the class boundary at order n, as (graph, is_member).

    Each set partition of range(n) gives a member: the complete multipartite
    graph with its blocks as parts, where a singleton block comes out as a
    universal vertex.  Every member is followed by its single-pair flips.
    """
    full = (1 << n) - 1
    for rgs in restricted_growth_strings(n):
        blocks: dict[int, int] = {}
        for v, b in enumerate(rgs):
            blocks[b] = blocks.get(b, 0) | 1 << v
        member = Graph(n, tuple(full & ~blocks[b] for b in rgs))
        yield member, True
        for u, v in combinations(range(n), 2):
            yield toggled(member, u, v), False


def boundary_sweep(n: int) -> tuple[int, int, list[Graph]]:
    """The three deciders on every graph of :func:`boundary_graphs`.

    Returns the pattern-free members, the pattern-free flips, and the graphs
    on which the deciders disagree, a positive greedy partition differs from
    the recognizer's, a greedy witness fails ``holds_in``, the greedy
    builder's result differs from :func:`reference_greedy_partition`'s, or
    the least witness differs from :func:`reference_find_forbidden_triple`'s.
    """
    members = flips = 0
    bad: list[Graph] = []
    for g, member in boundary_graphs(n):
        if member:
            members += _decide(g, bad)
        else:
            flips += _decide(g, bad)
    return members, flips, bad


def _decide(g: Graph, bad: list[Graph]) -> bool:
    """The triple scan's verdict, with g appended to ``bad`` when the greedy
    builder or the recognizer says otherwise, the greedy witness fails, the
    greedy builder strays from the reference one, or the triple scan names
    another triple than the reference scan."""
    witness = find_forbidden_triple(g)
    free = witness is None
    greedy = greedy_partition(g)
    part = recognize_multipartite(g)
    if isinstance(greedy, CommutingPartition):
        ok = free and part is not None and block_family(greedy) == block_family(part)
    else:
        ok = not free and part is None and greedy.holds_in(g)
    if not ok or greedy != reference_greedy_partition(g) or witness != reference_find_forbidden_triple(g):
        bad.append(g)
    return free


# ------------------------------------------------ reference read/write
#
# The edge-list parser, triple scan and edge-list writer as they were before
# they became one pass over the lines and walks over adjacency rows: a raw
# edge list validated by new_graph, and edges from the reference_edges
# generator.  The parser numbers labels with its own _assign_labels, a
# second pass over the raw edges, where the package indexes each label as
# it reads it.


def reference_parse_edge_list(text: str) -> tuple[Graph, LabelMap]:
    n = None
    raw_edges = []
    for lineno, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if tokens[0] != "n":
                raise ParseError(f"line {lineno}: expected header 'n <count>', got {_echo(raw.strip(), repr)}")
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: header must be exactly 'n <count>'")
            try:
                n = int(tokens[1])
            except ValueError:
                raise ParseError(f"line {lineno}: vertex count {tokens[1]!r} is not an integer") from None
            if n < 0:
                raise ParseError(f"line {lineno}: vertex count must be nonnegative")
            if n > MAX_VERTICES:
                raise ParseError(f"line {lineno}: vertex count {n} exceeds the limit of {MAX_VERTICES}")
            continue
        if tokens[0] == "n":
            raise ParseError(f"line {lineno}: duplicate 'n' header")
        if tokens[0] != "e":
            raise ParseError(f"line {lineno}: unknown directive {_echo(tokens[0], repr)}")
        if len(tokens) != 3:
            raise ParseError(f"line {lineno}: edge line must be exactly 'e <u> <v>'")
        raw_edges.append((tokens[1], tokens[2], lineno))
    if n is None:
        raise ParseError("line 1: missing 'n <count>' header")

    labels = LabelMap.default(n)
    index = {lab: i for i, lab in enumerate(labels.labels)}
    if not all(lu in index and lv in index for lu, lv, _ in raw_edges):
        labels = _assign_labels(n, raw_edges)
        index = {lab: i for i, lab in enumerate(labels.labels)}
    edges = []
    for lu, lv, lineno in raw_edges:
        u, v = index[lu], index[lv]
        if u == v:
            raise ParseError(f"line {lineno}: loop edge on {_echo(lu, repr)}")
        edges.append((u, v))
    return new_graph(n, edges), labels


def _assign_labels(n: int, raw_edges: list[tuple[str, str, int]]) -> LabelMap:
    """Indices in order of first appearance; unused vertices get their own
    number as label, prefixed with ``_`` until it is unique."""
    assigned: dict[str, int] = {}
    for lu, lv, lineno in raw_edges:
        for t in (lu, lv):
            if t not in assigned:
                if len(assigned) == n:
                    raise ParseError(
                        f"line {lineno}: label {_echo(t, repr)} is the {n + 1}-th distinct "
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


def reference_find_forbidden_triple(g: Graph) -> ForbiddenTriple | None:
    full = (1 << g.n) - 1
    for a, b in reference_edges(g):
        free = full & ~(g.adj[a] | g.adj[b] | 1 << a | 1 << b)
        if free:
            return ForbiddenTriple(a, b, (free & -free).bit_length() - 1)
    return None


def reference_emit_edge_list(g: Graph, labels: LabelMap | None = None) -> str:
    if labels is None:
        labels = LabelMap.default(g.n)
    lines = [f"n {g.n}"]
    lines.extend(f"e {labels.label(u)} {labels.label(v)}" for u, v in reference_edges(g))
    return "\n".join(lines) + "\n"


def reference_emit_dot(
    g: Graph, partition: CommutingPartition | None = None, labels: LabelMap | None = None
) -> str:
    """``emit_dot`` with one line appended per edge of :func:`reference_edges`."""
    if labels is None:
        labels = LabelMap.default(g.n)
    out = ["graph G {"]

    def node_line(v: int) -> str:
        label = labels.label(v).replace("\\", "\\\\").replace('"', '\\"')
        return f'  {v} [label="{label}"];'

    if partition is None:
        out.extend(node_line(v) for v in range(g.n))
    else:
        if partition.p0:
            out += ["  subgraph cluster_p0 {", '    label="P0";', "    style=filled;"]
            out.append("    color=lightgrey;")
            out.extend("  " + node_line(v) for v in sorted(partition.p0))
            out.append("  }")
        for k, part in enumerate(partition.parts, start=1):
            out += [f"  subgraph cluster_p{k} {{", f'    label="P{k}";', "    color=black;"]
            out.extend("  " + node_line(v) for v in sorted(part))
            out.append("  }")
    out.extend(f"  {u} -- {v};" for u, v in reference_edges(g))
    out.append("}")
    return "\n".join(out) + "\n"


# The graph6 codec as it was before it became one base64 pass: per-bit loops
# over the upper triangle, single-byte size form only (n <= 62).

def reference_emit_graph6(g: Graph) -> str:
    if g.n > 62:
        raise ValueError(f"graph6 support stops at n = 62, got {g.n}")
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


def reference_parse_graph6(data: str | bytes) -> Graph:
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
    if n > 62:
        raise ParseError("multi-byte graph6 size forms are not supported")
    npairs = n * (n - 1) // 2
    expected = (npairs + 5) // 6
    if len(codes) - 1 != expected:
        raise ParseError(
            f"graph6 body has {len(codes) - 1} bytes where {expected} are required for n = {n}"
        )
    bits = []
    for ch in codes[1:]:
        bits.extend((ch - 63) >> k & 1 for k in (5, 4, 3, 2, 1, 0))
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


def reference_emit_presentation(g: Graph) -> str:
    gens = ",".join(f"x{v}" for v in range(g.n))
    rels = ",".join(f"x{u}x{v}=x{v}x{u}" for u, v in reference_edges(g))
    return f"⟨{gens} | {rels}⟩"


def reference_decompose(p: CommutingPartition) -> GroupDecomposition:
    """The group read off a commuting partition as it stands: rank |p0|,
    then one free rank per part, in part order."""
    return GroupDecomposition(len(p.p0), tuple(len(part) for part in p.parts))


def total_rank(d: GroupDecomposition) -> int:
    """The number of generators of Z^a x F_r1 x ...: a plus the free ranks."""
    return d.abelian_rank + sum(d.free_ranks)


def reference_canonical_form(d: GroupDecomposition) -> GroupDecomposition:
    """Fold each F_1 into the abelian rank and sort the other free ranks in
    descending order.  After ``reference_decompose`` this is the group that
    ``verdict`` builds in one step."""
    ones = d.free_ranks.count(1)
    rest = sorted((r for r in d.free_ranks if r > 1), reverse=True)
    return GroupDecomposition(d.abelian_rank + ones, tuple(rest))


def reference_random_partition_family(
    n: int, seed: int
) -> tuple[frozenset[int], tuple[frozenset[int], ...]]:
    """The block structure ``harness.random_nb_graph`` draws, as vertex sets:
    the same ``random.Random(seed)`` calls, then label 0 as p0 and one part
    per other label, the parts ordered by minimum vertex.

    Singleton parts are legal; in the built graph their vertex simply comes
    out universal and is absorbed into p0 by the canonical partition.  With
    no vertices the family is empty.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n == 0:
        return frozenset(), ()
    rng = random.Random(seed)
    slots = rng.randint(1, n)
    labels = [rng.randint(0, slots) for _ in range(n)]  # label 0 = universal block
    p0 = frozenset(v for v, lab in enumerate(labels) if lab == 0)
    groups: dict[int, list[int]] = {}
    for v, lab in enumerate(labels):
        if lab:
            groups.setdefault(lab, []).append(v)
    parts = tuple(frozenset(vs) for vs in sorted(groups.values(), key=min))
    return p0, parts


def reference_graph_from_family(
    n: int, p0: frozenset[int], parts: tuple[frozenset[int], ...]
) -> Graph:
    """The complete-multipartite-plus-universal graph on given blocks: p0
    vertices are joined to everything, parts span no internal edge, and all
    cross-block pairs are joined.  Built from an owner table, then every
    vertex pair through new_graph; raises ValueError unless the blocks
    partition 0..n-1, and empty parts are allowed."""
    owner: dict[int, int] = {}
    for i, block in enumerate((p0, *parts)):
        for v in block:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} is outside 0..{n - 1}")
            if v in owner:
                raise ValueError(f"vertex {v} appears in two blocks")
            owner[v] = i
    if len(owner) != n:
        raise ValueError("blocks must cover all vertices")
    edges = [
        (u, v)
        for u, v in combinations(range(n), 2)
        if owner[u] != owner[v] or owner[u] == 0
    ]
    return new_graph(n, edges)


def random_word(rng: random.Random, n: int, length: int) -> tuple[Letter, ...]:
    return tuple(
        Letter(rng.randrange(n), rng.choice((1, -1))) for _ in range(length)
    )


def word(pairs: Iterable[tuple[int, int]]) -> Word:
    """Build a word from (vertex, sign) pairs, checking the signs."""
    letters = []
    for vertex, sign in pairs:
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        letters.append(Letter(vertex, sign))
    return tuple(letters)


def inverse(w: Word) -> Word:
    return tuple(Letter(v, -s) for v, s in reversed(w))


# ------------------------------------------------------ reference word path
#
# The package's first word solver and matrix oracle, kept to pin the
# one-pass versions: a check pass, then one projection and free reduction
# per part; and a generator table built by matrix products, applied one
# function call per letter.


def project(w: Word, block: Collection[int]) -> Word:
    """The subsequence of letters whose vertex lies in the block."""
    members = block if isinstance(block, (set, frozenset)) else frozenset(block)
    return tuple(letter for letter in w if letter.vertex in members)


def free_reduce(w: Word) -> Word:
    """Freely reduce by cancelling adjacent inverse pairs, in one stack pass."""
    out: list[Letter] = []
    for letter in w:
        if out and out[-1].vertex == letter.vertex and out[-1].sign == -letter.sign:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def reference_normal_form(g: Graph, w: Word) -> NormalForm:
    for letter in w:
        if not 0 <= letter.vertex < g.n:
            raise ValueError(f"letter vertex {letter.vertex} is outside 0..{g.n - 1}")
        if letter.sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {letter.sign}")
    p = canonical_partition(g)
    if not isinstance(p, CommutingPartition):
        raise ValueError(
            "word problem is only solved for graphs avoiding the forbidden "
            f"pattern; found edge ({p.a}, {p.b}) with vertex {p.c} adjacent "
            "to neither endpoint"
        )
    exps = {v: 0 for v in p.p0}
    for letter in w:
        if letter.vertex in exps:
            exps[letter.vertex] += letter.sign
    part_words = tuple(free_reduce(project(w, part)) for part in p.parts)
    return NormalForm(tuple(sorted(exps.items())), part_words)


def reduce_by_edges(g: Graph, w: Word) -> Word:
    """Reduce w in the graph group of g from its edges alone, with no
    partition.  Letters go on one at a time; each new letter scans back over
    the letters it commutes with (its own vertex or a neighbour) and cancels
    the first inverse it meets.  The result has no letter and inverse
    separated only by letters commuting with them, which makes it a reduced
    word of the graph group (Charney, Geom. Dedicata 2007): w is trivial
    exactly when nothing is left.  Quadratic in |w| at worst."""
    out: list[Letter] = []
    for v, s in w:
        i = len(out) - 1
        while i >= 0 and (out[i].vertex == v or g.has_edge(out[i].vertex, v)):
            if out[i].vertex == v and out[i].sign == -s:
                del out[i]
                break
            i -= 1
        else:
            out.append(Letter(v, s))
    return tuple(out)


def normal_form_word(nf: NormalForm) -> Word:
    """The normal form written back as a word: each p0 vertex to its net
    exponent, ascending, then each part's reduced word in part order."""
    letters = [
        Letter(v, 1 if e > 0 else -1) for v, e in nf.abelian_exponents for _ in range(abs(e))
    ]
    for part_word in nf.part_words:
        letters.extend(part_word)
    return tuple(letters)


FREE_A: Matrix = ((1, 2), (0, 1))
FREE_A_INV: Matrix = ((1, -2), (0, 1))
FREE_B: Matrix = ((1, 0), (2, 1))
FREE_B_INV: Matrix = ((1, 0), (-2, 1))


def mat_mul(x: Matrix, y: Matrix) -> Matrix:
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def conjugated_generators(rank: int) -> list[tuple[Matrix, Matrix]]:
    """(matrix, inverse) for the free generators A^j B A^-j, j = 0..rank-1."""
    out = []
    power, power_inv = IDENTITY, IDENTITY
    for _ in range(rank):
        gen = mat_mul(power, mat_mul(FREE_B, power_inv))
        gen_inv = mat_mul(power, mat_mul(FREE_B_INV, power_inv))
        out.append((gen, gen_inv))
        power = mat_mul(power, FREE_A)
        power_inv = mat_mul(FREE_A_INV, power_inv)
    return out


def reference_evaluate_word(p: CommutingPartition, w: Word) -> MatrixImage:
    exps = {v: 0 for v in p.p0}
    table: dict[int, tuple[int, Matrix, Matrix]] = {}
    for i, part in enumerate(p.parts):
        gens = conjugated_generators(len(part))
        for (gen, gen_inv), v in zip(gens, sorted(part)):
            table[v] = (i, gen, gen_inv)
    mats = [IDENTITY] * len(p.parts)
    for vertex, sign in w:
        if vertex in exps:
            exps[vertex] += sign
        elif vertex in table:
            i, gen, gen_inv = table[vertex]
            mats[i] = mat_mul(mats[i], gen if sign > 0 else gen_inv)
        else:
            raise ValueError(f"letter vertex {vertex} is not covered by the partition")
    return MatrixImage(tuple(sorted(exps.items())), tuple(mats))


def matrix_is_trivial(p: CommutingPartition, w: Word) -> bool:
    return evaluate_word(p, w).is_identity


# ------------------------------------------------------------- strategies

@st.composite
def graphs(draw, max_n: int = 8, min_n: int = 0):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    code = draw(st.integers(0, (1 << len(pairs)) - 1))
    return new_graph(n, [pairs[i] for i in range(len(pairs)) if code >> i & 1])


@st.composite
def abstract_words(draw, max_vertex: int = 9, max_len: int = 30):
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, max_vertex), st.sampled_from((1, -1))),
            max_size=max_len,
        )
    )
    return tuple(Letter(v, s) for v, s in pairs)
