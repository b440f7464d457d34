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

The package's value types derive from :class:`_Record`, one immutable
record base written out here, so that importing the package neither loads
``dataclasses`` (and with it ``inspect``) nor runs generated code.  A
record's fields are its class's own annotations, in order; equality and
hashing go by the tuple of field values, ``repr`` is ``Name(field=value,
...)``, and setting or deleting an attribute raises AttributeError.  The
base's ``__init__`` takes the fields by position or keyword and then calls
``__post_init__``, where the checked records validate them.  :class:`Graph`,
built once per graph of an exhaustive sweep, and the per-word results of
:mod:`raagv.words` and :mod:`raagv.matrixrep` write their own ``__init__``,
which fills the instance ``__dict__`` in about 0.6 of the generic one's
time.  The ``__dict__`` also keeps per-object compiles, such as the word
model of :mod:`raagv.words`; ``__getstate__`` hands ``pickle`` and ``copy``
the fields alone, so equal records pickle alike and a copy compiles afresh
on first use.  A field-less subclass keeps its base's fields.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter
from typing import Iterable

__all__ = ("CommutingPartition", "ForbiddenTriple", "Graph", "new_graph", "universal_vertices")


class _Record:
    """Base of the immutable value types; see the module docstring."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)
        if names:  # else a subclass keeps its base's fields
            cls._fields = cls.__match_args__ = names
            get = attrgetter(*names)  # the tuple of the values, or one field's value alone
            cls._values = staticmethod(get if len(names) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):  # the fields after the positional ones by keyword
            rest = names[len(args):]
            if len(args) > len(names) or kwargs.keys() != set(rest):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
            args = (*args, *map(kwargs.__getitem__, rest))
        fields = self.__dict__
        for name, value in zip(names, args):
            fields[name] = value
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields once they are set; the base takes any."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> dict:
        return dict(zip(self._fields, self._values(self)))


class Graph(_Record):
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
        """Whether u and v are joined; both must lie in 0..n-1, which is not
        checked: a negative u reads a row from the end, a negative v raises
        ValueError, and a v of n or more reads False."""
        return bool(self.adj[u] >> v & 1)


class CommutingPartition(_Record):
    """Block structure: p0 plus nonempty parts.

    Two partitions describe the same block structure exactly when their p0
    and their sets of parts agree; the order of ``parts`` is presentation only.
    """

    p0: frozenset[int]
    parts: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if not all(self.parts):
            raise ValueError("parts must be nonempty")

    def blocks(self) -> tuple[frozenset[int], ...]:
        """All blocks, p0 first; parts occupy indices 1..len(parts)."""
        return (self.p0, *self.parts)


class ForbiddenTriple(_Record):
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
        """True iff this triple actually certifies g: its vertices lie in
        0..n-1, (a, b) is an edge and c is adjacent to neither."""
        a, b, c, n = self.a, self.b, self.c, g.n
        return (
            0 <= a < n and 0 <= b < n and 0 <= c < n
            and g.has_edge(a, b) and not g.has_edge(a, c) and not g.has_edge(b, c)
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
