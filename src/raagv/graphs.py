"""Immutable finite simple graphs and the structural primitives the rest of
the package is built on.

Vertices are the dense integers 0..n-1.  Adjacency is stored as one bitmask
per vertex (bit v of ``adj[u]`` is set iff u and v are joined), which keeps
pair queries O(1) and makes the set manipulations used by the classifiers
cheap at the scales this library targets.  ``_bits`` lists a mask's vertices
by the mask's size: a table lookup below 256, a low-bit loop for masks under
64 bits or sparser than one bit in 16, and a walk over the binary digits for
the rest.

The deciders' two result types live here too, so that no decider imports
another: :class:`CommutingPartition` for a graph that avoids the forbidden
pattern and :class:`ForbiddenTriple` for one that does not.

:class:`Graph` and :class:`ForbiddenTriple` are built once or twice per
graph of an exhaustive sweep, so each has a hand-written ``__init__`` that
fills the instance ``__dict__`` by item assignment.  A frozen dataclass's
generated ``__init__`` calls ``object.__setattr__`` once per field and then
``__post_init__``, which took twice as long; ``dict.update`` would build a
keyword dict per call and unshare the instance dict's keys.  Both stay
frozen dataclasses: equality, hashing, ``repr``, ``replace`` (which calls
``__init__`` and so re-validates) and pickling are the generated ones, and
the instance ``__dict__`` still holds per-object caches such as the word
model of :mod:`raagv.words`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator


@dataclass(frozen=True, init=False)
class Graph:
    """A finite simple graph: undirected, no loops, no multi-edges.

    Build through :func:`new_graph`, which validates its input; the raw
    constructor trusts the caller to supply symmetric loop-free masks.
    """

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, adj: tuple[int, ...]) -> None:
        fields = self.__dict__
        fields["n"] = n
        fields["adj"] = adj

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield the edges (u, v) with u < v in lexicographic order."""
        for u, row in enumerate(self.adj):
            for v in _bits(row >> u + 1 << u + 1):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2


@dataclass(frozen=True)
class CommutingPartition:
    """Block structure: p0 plus nonempty parts.

    Two partitions describe the same block structure exactly when their
    :meth:`family` views agree; the order of ``parts`` is presentation only.
    """

    p0: frozenset[int]
    parts: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if not all(self.parts):
            raise ValueError("parts must be nonempty")

    def blocks(self) -> tuple[frozenset[int], ...]:
        """All blocks, p0 first; parts occupy indices 1..len(parts)."""
        return (self.p0, *self.parts)

    def family(self) -> tuple[frozenset[int], frozenset[frozenset[int]]]:
        """Order-free view used for partition equality."""
        return (self.p0, frozenset(self.parts))


@dataclass(frozen=True, init=False)
class ForbiddenTriple:
    """Witness (a, b, c): (a, b) is an edge and c is adjacent to neither.

    Normalized so that a < b; c is unconstrained apart from distinctness.
    """

    a: int
    b: int
    c: int

    def __init__(self, a: int, b: int, c: int) -> None:
        if a == b or c == a or c == b:
            raise ValueError("witness vertices must be pairwise distinct")
        if a >= b:
            raise ValueError("witness edge must be normalized with a < b")
        fields = self.__dict__
        fields["a"] = a
        fields["b"] = b
        fields["c"] = c

    def holds_in(self, g: Graph) -> bool:
        """True iff this triple actually certifies g."""
        return (
            g.has_edge(self.a, self.b)
            and not g.has_edge(self.a, self.c)
            and not g.has_edge(self.b, self.c)
        )


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
