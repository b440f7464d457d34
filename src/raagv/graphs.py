"""Immutable finite simple graphs and the structural primitives the rest of
the package is built on.

Vertices are the dense integers 0..n-1.  Adjacency is stored as one bitmask
per vertex (bit v of ``adj[u]`` is set iff u and v are joined), which keeps
pair queries O(1) and makes the set manipulations used by the classifiers
cheap at the scales this library targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Graph:
    """A finite simple graph: undirected, no loops, no multi-edges.

    Build through :func:`new_graph`, which validates its input; the raw
    constructor trusts the caller to supply symmetric loop-free masks.
    """

    n: int
    adj: tuple[int, ...]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return _bits(self.adj[v])

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield the edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            while rest:
                low = rest & -rest
                yield (u, low.bit_length() - 1)
                rest ^= low

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2


def _bits(mask: int) -> tuple[int, ...]:
    """The vertices of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _low(mask: int) -> int:
    """The least vertex of a nonempty mask."""
    return (mask & -mask).bit_length() - 1


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def new_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validated constructor.

    Rejects loops and out-of-range endpoints; duplicate edges (in either
    orientation) collapse silently.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop edge ({u}, {v}) is not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def eccentricity(g: Graph, v: int) -> int | None:
    """Greatest geodesic distance from v, by breadth-first search.

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
        m = frontier
        while m:
            low = m & -m
            nxt |= g.adj[low.bit_length() - 1]
            m ^= low
        nxt &= ~visited
        if not nxt:
            break
        visited |= nxt
        frontier = nxt
        dist += 1
    return dist if visited == full else None


def universal_vertices(g: Graph) -> frozenset[int]:
    """The vertices of eccentricity exactly one.

    For n >= 2 those are the vertices adjacent to every other vertex, which
    one mask compare per vertex finds.  Empty for n <= 1: the sole vertex of
    a one-vertex graph has eccentricity 0, and an empty graph has no
    vertices at all.
    """
    if g.n <= 1:
        return frozenset()
    full = (1 << g.n) - 1
    return frozenset(v for v, row in enumerate(g.adj) if row | 1 << v == full)
