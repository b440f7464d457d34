"""Immutable finite simple graphs and the structural primitives the rest of
the package is built on.

Vertices are the dense integers 0..n-1.  Adjacency is stored as one bitmask
per vertex (bit v of ``adj[u]`` is set iff u and v are joined), which keeps
pair queries O(1) and makes the set manipulations used by the classifiers
cheap at the scales this library targets.  ``_bits`` lists a mask's vertices
by the mask's size: a table lookup below 256, a low-bit loop for masks under
64 bits or sparser than one bit in 16, and a walk over the binary digits for
the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
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


_SMALL_BITS = tuple(tuple(v for v in range(8) if m >> v & 1) for m in range(256))
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> tuple[int, ...]:
    """The vertices of a mask, ascending."""
    if mask < 256:
        return _SMALL_BITS[mask]
    length = mask.bit_length()
    if length < 64 or 16 * mask.bit_count() < length:
        # clearing the low bit copies the whole integer, so this loop costs
        # O(k * length / 64) and wins only where k, the bit count, is small
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)
    # the list first: tuple() of an iterator with no length grows the tuple
    # by repeated resizing, which measured as a higher peak memory
    return tuple([*compress(range(length), bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES))])


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
        for u in _bits(frontier):
            nxt |= g.adj[u]
        nxt &= ~visited
        if not nxt:
            break
        visited |= nxt
        frontier = nxt
        dist += 1
    return dist if visited == full else None


def _universal_mask(g: Graph) -> int:
    """The mask of :func:`universal_vertices`: one mask compare per vertex."""
    if g.n <= 1:
        return 0
    full = (1 << g.n) - 1
    out = 0
    for v, row in enumerate(g.adj):
        if row | 1 << v == full:
            out |= 1 << v
    return out


def universal_vertices(g: Graph) -> frozenset[int]:
    """The vertices of eccentricity exactly one.

    For n >= 2 those are the vertices adjacent to every other vertex, which
    one mask compare per vertex finds.  Empty for n <= 1: the sole vertex of
    a one-vertex graph has eccentricity 0, and an empty graph has no
    vertices at all.
    """
    return frozenset(_bits(_universal_mask(g)))
