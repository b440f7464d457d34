"""Immutable finite simple graphs and the structural primitives the rest of
the package is built on.

Vertices are the dense integers 0..n-1.  Adjacency is stored as one bitmask
per vertex (bit v of ``adj[u]`` is set iff u and v are joined), which keeps
pair queries O(1) and makes the set manipulations used by the classifiers
cheap at the scales this library targets.  ``_bits`` lists a mask's vertices
by the mask's size: a table lookup below 256, a low-bit loop for masks with
fewer than 8 bits set or sparser than one bit in 16, and a walk over the
binary digits for the rest.

The deciders' two result types live here too, so that no decider imports
another: :class:`CommutingPartition` for a graph that avoids the forbidden
pattern and :class:`ForbiddenTriple` for one that does not.  So does the
check that a partition's blocks partition the vertices, which the partition
validator and both word solvers share.

:class:`Graph` is built once per graph of an exhaustive sweep, so it fills
its instance ``__dict__`` by item assignment in a hand-written ``__init__``:
a frozen dataclass's generated one calls ``object.__setattr__`` per field,
which took twice as long, and ``dict.update`` would build a keyword dict per
call and unshare the instance dict's keys.  Equality, hashing, ``repr`` and
``replace`` stay the generated ones.  The ``__dict__`` also keeps per-object
compiles, such as the word model of :mod:`raagv.words`; ``__getstate__``
hands ``pickle`` and ``copy`` the fields alone, so equal objects pickle alike
and a copy compiles afresh on first use.
:class:`ForbiddenTriple`, built at most once per decision, keeps the
generated ``__init__`` and checks its fields in ``__post_init__``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import compress
from typing import Iterable

__all__ = ("CommutingPartition", "ForbiddenTriple", "Graph", "new_graph", "universal_vertices")


def _fields_state(self) -> dict:
    """The dataclass fields, without any compile kept in the instance dict."""
    return {f.name: getattr(self, f.name) for f in fields(self)}


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

    __getstate__ = _fields_state

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


@dataclass(frozen=True)
class CommutingPartition:
    """Block structure: p0 plus nonempty parts.

    Two partitions describe the same block structure exactly when their p0
    and their sets of parts agree; the order of ``parts`` is presentation only.
    """

    p0: frozenset[int]
    parts: tuple[frozenset[int], ...]

    __getstate__ = _fields_state  # leaves out the matrix oracle's table

    def __post_init__(self) -> None:
        if not all(self.parts):
            raise ValueError("parts must be nonempty")

    def blocks(self) -> tuple[frozenset[int], ...]:
        """All blocks, p0 first; parts occupy indices 1..len(parts)."""
        return (self.p0, *self.parts)


@dataclass(frozen=True)
class ForbiddenTriple:
    """Witness (a, b, c): (a, b) is an edge and c is adjacent to neither.

    Normalized so that a < b; c is unconstrained apart from distinctness.
    """

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        a, b, c = self.a, self.b, self.c
        if a == b or c == a or c == b:
            raise ValueError("witness vertices must be pairwise distinct")
        if a >= b:
            raise ValueError("witness edge must be normalized with a < b")

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
    k = mask.bit_count()
    if k < 8 or 16 * k < length:
        # clearing the low bit copies the whole integer, so this loop costs
        # O(k * length / 64) and wins only where k is small: below 7 to 11
        # at every length under 128, below about length / 16 far above it
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


def _block_masks(blocks: Iterable[Iterable[int]], n: int) -> list[int]:
    """The masks of the blocks, in their order (p0 first where that
    matters).  Raises ValueError unless the blocks partition 0..n-1: a
    vertex out of range, then an overlap, each found block by block in one
    walk of the block, then a vertex no block covers.  Empty blocks are
    allowed."""
    masks = []
    union = 0
    for block in blocks:
        mask = 0
        for v in block:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} is outside 0..{n - 1}")
            mask |= 1 << v
        if union & mask:
            raise ValueError("blocks overlap")
        union |= mask
        masks.append(mask)
    if union != (1 << n) - 1:
        raise ValueError("blocks do not cover the vertex set")
    return masks


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
