"""Commuting partitions of a graph.

A commuting partition splits the vertices into a distinguished block p0 (the
eccentricity-one vertices) and parts P1..Pk such that every part spans no
edge and every pair of vertices from different blocks is adjacent.  A graph
admits one exactly when it avoids the three-vertex pattern "one edge plus a
vertex adjacent to neither endpoint"; on such graphs the partition is unique
as an unordered family of blocks.

This module has the greedy construction (least-vertex pivots) and
the validator for the defining conditions.  Both work on adjacency masks: a
part is valid exactly when each of its vertices is adjacent to everything
outside it and nothing inside it, one mask compare per vertex.  The pass
that makes those compares also notes the first part with a failing row;
the search for a missing cross edge starts at that part, since every block
before it (p0 included, being universal) has all its rows right.  The greedy
builder makes those compares on each part as soon as it cuts it, so it
stops at the first internal edge without cutting the rest, and it searches
for a missing cross edge only after the last cut.  It returns the parts and
the witness that cutting everything first and validating after would give;
vertex sets are built only for what it returns.  A failed greedy run is
turned into a forbidden-triple witness through its pivot, never through
another decider.  The builder's core works on the masks alone and returns
the cut masks, the first part with a failing row and the internal-edge
witness if the cut stopped at one; ``greedy_partition`` wraps that answer.
``harness.cross_check`` reads only the core's decision, so it neither builds
a result object nor searches for the missing cross edge nobody would read.
The result types come from :mod:`raagv.graphs`; ``canonical_partition``
lives in :mod:`raagv.classify` and is bound here only under the name the
benchmark traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .classify import canonical_partition  # the benchmark traces it by this name
from .graphs import (
    CommutingPartition, ForbiddenTriple, Graph, _bits, _block_masks, _low, _universal_mask,
)

__all__ = (
    "InternalEdge", "MissingCrossEdge", "Violation", "WrongP0", "greedy_partition",
    "validate_partition",
)


@dataclass(frozen=True)
class InternalEdge:
    """Edge (u, v) inside part number ``part`` (1-based; p0 is block 0)."""

    u: int
    v: int
    part: int


@dataclass(frozen=True)
class MissingCrossEdge:
    """Non-adjacent pair u in block i, v in block j, ``blocks`` = (i, j), i < j."""

    u: int
    v: int
    blocks: tuple[int, int]


@dataclass(frozen=True)
class WrongP0:
    """Vertex whose p0 membership disagrees with the eccentricity-one set."""

    vertex: int
    should_be_in_p0: bool


Violation = InternalEdge | MissingCrossEdge | WrongP0


def validate_partition(g: Graph, p: CommutingPartition) -> Violation | None:
    """Check the three conditions of a commuting partition; None means valid.

    Violations surface in a fixed deterministic order: p0 membership first
    (vertices ascending), then internal edges (parts ascending, vertex pairs
    ascending), then missing cross edges (block index pairs ascending,
    vertices ascending).

    Raises ValueError when the blocks are not a partition of g's vertex set
    (overlap or non-coverage); that is a malformed input, not a Violation.
    """
    masks = _block_masks(p.blocks(), g.n)
    ecc_one = _universal_mask(g)
    if masks[0] != ecc_one:
        v = _low(masks[0] ^ ecc_one)
        return WrongP0(v, should_be_in_p0=bool(ecc_one >> v & 1))
    # the blocks are valid iff every part vertex's row is precisely the
    # vertices outside its part.  One pass in the documented order finds the
    # first internal edge; a row that fails without one misses a cross edge.
    adj = g.adj
    full = (1 << g.n) - 1
    first = 0
    for k in range(1, len(masks)):
        mask = masks[k]
        row = full ^ mask
        for u in _bits(mask):
            if adj[u] != row:
                # an edge to a lower vertex of the part would have been named first
                inside = adj[u] & mask
                if inside:
                    return InternalEdge(u, _low(inside), k)
                first = first or k
    if not first:
        return None
    u, v, i, j = _missing_cross_edge(g, masks, first)
    return MissingCrossEdge(u, v, (i, j))


def _missing_cross_edge(g: Graph, masks: Sequence[int], first: int) -> tuple[int, int, int, int]:
    """The first missing cross edge, in :func:`validate_partition`'s order, of
    block masks that partition g with masks[0] universal and no internal
    edge: (u, v, i, j) with u in block i < j and v in block j.  ``first`` is
    the first part with a failing row, so one exists."""
    # the rows of p0 (universal) and of every part before the first failing
    # one are right, so none of them misses an edge: the search starts there.
    # The union of a part's non-neighbours finds the first block j it misses
    # with one AND per block, so a large part's vertices are tried against
    # that block alone rather than against every block before it.
    adj = g.adj
    for i in range(first, len(masks)):
        members = _bits(masks[i])
        missed = 0
        for u in members:
            missed |= ~adj[u]
        for j in range(i + 1, len(masks)):
            later = masks[j]
            if later & missed:
                for u in members:
                    hole = later & ~adj[u]
                    if hole:
                        return u, _low(hole), i, j
    raise AssertionError("a failing row without an internal edge misses a cross edge")


def greedy_partition(g: Graph) -> CommutingPartition | ForbiddenTriple:
    """Build a commuting partition greedily, or produce a witness.

    One loop cuts the parts and checks each as soon as it is cut.  The
    pivot w is the least unassigned vertex and its part is w with its
    unassigned non-neighbours; a part {w} alone, with w adjacent to every
    other vertex (n > 1), goes to p0 instead.  Every other vertex u of the
    part must have the vertices outside the part as its row.  At the first
    u with an edge inside the part, to v say, (u, v, w) is returned: u < v,
    since a lower partner would have been met first, and w is adjacent to
    neither.  A row that fails without an inside edge misses a cross edge;
    the first part holding one is noted, and after the last cut the search
    for the missing edge starts there.  Vertex sets are built only for a
    returned partition.

    This returns what cutting every part first and then checking them in
    :func:`validate_partition`'s order would.  A universal vertex is
    adjacent to every pivot, so it joins no other vertex's part, and at its
    own turn its part is itself: p0 and the parts come out the same, in the
    same order, ascending by least vertex.  The parts are checked in that
    order, so the first internal edge met is the validator's first.  The
    pivots are not checked: a pivot w's row has no inside edge, and it
    fails only by missing some x of an earlier part, whose row then fails
    too (x is not that part's pivot, which would have taken w into its
    part).  A missing cross edge from u in w's part to v in a later one
    never starts in p0, which is exactly the universal set, and u != w
    because w is adjacent to v; it gives (min(v, w), max(v, w), u).  On
    graphs that admit a commuting partition any pivot order would reach the
    same unordered block family.
    """
    p0, parts, first, inside = _greedy_cuts(g.adj)
    if not first:
        return CommutingPartition(frozenset(_bits(p0)), tuple(frozenset(_bits(m)) for m in parts))
    if inside is not None:
        return ForbiddenTriple(*inside)
    u, v, i, _ = _missing_cross_edge(g, [p0, *parts], first)
    w = _low(parts[i - 1])
    return ForbiddenTriple(min(v, w), max(v, w), u)


def _greedy_cuts(
    adj: tuple[int, ...],
) -> tuple[int, list[int], int, tuple[int, int, int] | None]:
    """The core of :func:`greedy_partition`: (p0, parts, first, inside).

    p0 and parts are the masks cut so far, first is the first part with a
    failing row (0 when every row is right, which is the decision), and
    inside is (u, v, w) when the cut stopped at an internal edge, else None.
    """
    n = len(adj)
    full = (1 << n) - 1
    p0 = 0
    parts: list[int] = []
    first = 0
    remaining = full
    while remaining:
        pivot = remaining & -remaining
        w = pivot.bit_length() - 1
        part = remaining & ~adj[w]
        remaining ^= part
        if part == pivot and adj[w] | pivot == full and n > 1:
            p0 |= pivot
            continue
        parts.append(part)
        row = full ^ part
        for u in _bits(part ^ pivot):
            if adj[u] != row:
                first = first or len(parts)
                inside = adj[u] & part
                if inside:
                    return p0, parts, first, (u, _low(inside), w)
    return p0, parts, first, None
