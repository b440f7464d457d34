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
outside it and nothing inside it, one mask compare per vertex.  The
validator's pass over those compares also notes the first part with a
failing row, and its search for a missing cross edge looks only there,
since every block before it (p0 included, being universal) has all its rows
right.  The greedy builder makes those compares on each part as soon as it
cuts it and stops at the first failing row, which names a forbidden triple
through the part's pivot; it never calls another decider.  Its core works
on the masks alone and returns the cut masks and that triple, or None;
``greedy_partition`` wraps that answer, and ``harness.cross_check`` reads
only whether the triple is None.  The result types come from
:mod:`raagv.graphs`; ``canonical_partition`` lives in :mod:`raagv.classify`
and is bound here only under the name the benchmark traces.
"""

from __future__ import annotations

from .classify import canonical_partition  # the benchmark traces it by this name
from .graphs import (
    CommutingPartition, ForbiddenTriple, Graph, _Record, _bits, _block_masks, _low,
    _universal_mask,
)

__all__ = (
    "InternalEdge", "MissingCrossEdge", "Violation", "WrongP0", "greedy_partition",
    "validate_partition",
)


class InternalEdge(_Record):
    """Edge (u, v) inside part number ``part`` (1-based; p0 is block 0)."""

    u: int
    v: int
    part: int


class MissingCrossEdge(_Record):
    """Non-adjacent pair u in block i, v in block j, ``blocks`` = (i, j), i < j."""

    u: int
    v: int
    blocks: tuple[int, int]


class WrongP0(_Record):
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
    # p0 (universal) and every part before the first failing one have all
    # their rows right, so they miss no edge, and what the first failing part
    # misses lies in a later block.  The union of its non-neighbours finds
    # the first such block with one AND per block, and only its vertices are
    # tried against that block.
    members = _bits(masks[first])
    missed = 0
    for u in members:
        missed |= ~adj[u]
    j = next(j for j in range(first + 1, len(masks)) if masks[j] & missed)
    u = next(u for u in members if masks[j] & ~adj[u])
    return MissingCrossEdge(u, _low(masks[j] & ~adj[u]), (first, j))


def greedy_partition(g: Graph) -> CommutingPartition | ForbiddenTriple:
    """Build a commuting partition greedily, or produce a witness.

    One loop cuts the parts, ascending by least vertex, and checks each as
    soon as it is cut.  The pivot w is the least unassigned vertex and its
    part is w with its unassigned non-neighbours; a part {w} alone, with w
    adjacent to every other vertex (n > 1), goes to p0 instead.  Every
    other vertex u of the part must have the vertices outside the part as
    its row.  The first u whose row differs names the witness:

    * an edge from u to v, the least inside neighbour, gives (u, v, w): a
      lower partner would have failed first, and w is adjacent to neither;
    * otherwise the least vertex x outside the part that u misses gives
      (min(w, x), max(w, x), u).  Earlier pivots are adjacent to u, which
      is not in their parts, and so are the other vertices of earlier parts
      (their rows were right) and p0 (universal); so x was unassigned, and
      it is adjacent to w, not being in w's part.

    Pivot rows need no check: one fails only by missing a non-pivot vertex
    of an earlier part, whose row failed first.  None of this uses the
    least pivot; on graphs that admit a commuting partition any pivot order
    reaches the same unordered block family.
    """
    p0, parts, witness = _greedy_cuts(g.adj)
    if witness is not None:
        return ForbiddenTriple(*witness)
    return CommutingPartition(frozenset(_bits(p0)), tuple(frozenset(_bits(m)) for m in parts))


def _greedy_cuts(adj: tuple[int, ...]) -> tuple[int, list[int], tuple[int, int, int] | None]:
    """The core of :func:`greedy_partition`: (p0, parts, witness).

    p0 and parts are the masks cut so far, and witness is the triple named
    by the first failing row, None when every row is right (the decision).
    """
    n = len(adj)
    full = (1 << n) - 1
    p0 = 0
    parts: list[int] = []
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
                inside = adj[u] & part
                if inside:
                    return p0, parts, (u, _low(inside), w)
                x = _low(row & ~adj[u])
                return p0, parts, (min(w, x), max(w, x), u)
    return p0, parts, None
