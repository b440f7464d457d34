"""Shared test utilities: small named graphs, independent brute-force
oracles, and hypothesis strategies.

The oracles here deliberately avoid the package's bitmask machinery (plain
dicts and itertools) so that agreement tests actually compare two routes.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations

from typing import Iterable

from hypothesis import strategies as st

from raagv import (
    CommutingPartition,
    ForbiddenTriple,
    Graph,
    GreedyRun,
    InternalEdge,
    LabelMap,
    Letter,
    MissingCrossEdge,
    ParseError,
    WrongP0,
    eccentricity,
    new_graph,
    recognize_multipartite,
)
from raagv.graphio import MAX_VERTICES, _assign_labels
from raagv.graphs import _bits, _mask


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
            m = frontier
            while m:
                low = m & -m
                nxt |= g.adj[low.bit_length() - 1]
                m ^= low
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        out.append(_bits(comp))
    return out


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    """True when every two distinct vertices of s are adjacent.

    Vacuously true for |s| <= 1.
    """
    verts = sorted(set(s))
    for v in verts:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} is outside 0..{g.n - 1}")
    mask = _mask(verts)
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


def reference_run_greedy(g: Graph, pivot_rule) -> GreedyRun:
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


# ------------------------------------------------------ perturbed graphs


def toggled(g: Graph, u: int, v: int) -> Graph:
    adj = list(g.adj)
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    return Graph(g.n, tuple(adj))


def near_misses(g: Graph, rng: random.Random) -> list[Graph]:
    """One edge added inside a part, one cross edge removed."""
    p = recognize_multipartite(g)
    u, v = rng.sample(sorted(rng.choice([b for b in p.parts if len(b) > 1])), 2)
    a, b = rng.sample([sorted(b) for b in p.blocks() if b], 2)
    return [toggled(g, u, v), toggled(g, rng.choice(a), rng.choice(b))]


# ------------------------------------------------ reference read/write
#
# The edge-list parser, triple scan and edge-list writer as they were before
# they became one pass over the lines and walks over adjacency rows: a raw
# edge list validated by new_graph, and edges from the Graph.edges()
# generator.  The label numbering (_assign_labels) is shared, unchanged.


def reference_parse_edge_list(text: str) -> tuple[Graph, LabelMap]:
    n = None
    raw_edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if tokens[0] != "n":
                raise ParseError(f"line {lineno}: expected header 'n <count>', got {raw.strip()!r}")
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
            raise ParseError(f"line {lineno}: unknown directive {tokens[0]!r}")
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
            raise ParseError(f"line {lineno}: loop edge on {lu!r}")
        edges.append((u, v))
    return new_graph(n, edges), labels


def reference_find_forbidden_triple(g: Graph) -> ForbiddenTriple | None:
    full = (1 << g.n) - 1
    for a, b in g.edges():
        free = full & ~(g.adj[a] | g.adj[b] | 1 << a | 1 << b)
        if free:
            return ForbiddenTriple(a, b, (free & -free).bit_length() - 1)
    return None


def reference_emit_edge_list(g: Graph, labels: LabelMap | None = None) -> str:
    if labels is None:
        labels = LabelMap.default(g.n)
    lines = [f"n {g.n}"]
    lines.extend(f"e {labels.label(u)} {labels.label(v)}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def reference_emit_presentation(g: Graph) -> str:
    gens = ",".join(f"x{v}" for v in range(g.n))
    rels = ",".join(f"x{u}x{v}=x{v}x{u}" for u, v in g.edges())
    return f"⟨{gens} | {rels}⟩"


def random_word(rng: random.Random, n: int, length: int) -> tuple[Letter, ...]:
    return tuple(
        Letter(rng.randrange(n), rng.choice((1, -1))) for _ in range(length)
    )


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
