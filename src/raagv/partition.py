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
builder is one loop on masks from start to end; vertex sets are built only
for what it returns.  A failed greedy run is turned into a forbidden-triple
witness through its pivot, never through another decider.  The result types
come from :mod:`raagv.graphs`; ``canonical_partition`` lives in
:mod:`raagv.classify` and is bound here only under the name the benchmark
traces.
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
    masks = _block_masks(p, g.n)
    ecc_one = _universal_mask(g)
    if masks[0] != ecc_one:
        v = _low(masks[0] ^ ecc_one)
        return WrongP0(v, should_be_in_p0=bool(ecc_one >> v & 1))
    found = _first_violation(g, masks)
    if found is None:
        return None
    u, v, i, j = found
    return InternalEdge(u, v, i) if i == j else MissingCrossEdge(u, v, (i, j))


def _first_violation(g: Graph, masks: Sequence[int]) -> tuple[int, int, int, int] | None:
    """The first internal or missing cross edge, in :func:`validate_partition`'s
    order, of block masks that partition g, masks[0] universal: (u, v, i, j)
    with u in block i and v in block j, and j == i for an internal edge."""
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
                    return u, _low(inside), k, k
                first = first or k
    if not first:
        return None

    # the rows of p0 (universal) and of every part before the first failing
    # one are right, so none of them misses an edge: the search starts there.
    # The union of a part's non-neighbours finds the first block j it misses
    # with one AND per block, so a large part's vertices are tried against
    # that block alone rather than against every block before it.
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
    return None


def _greedy(g: Graph) -> tuple[int, list[int]]:
    """One greedy pass on masks: p0 is the eccentricity-one set, then each
    round cuts off the least unassigned vertex with its unassigned
    non-neighbors, itself included (loop-free), so at most n rounds run.
    Returns the p0 mask and the part masks in discovery order, which is
    ascending by least vertex since each part's pivot is its least vertex."""
    adj = g.adj
    p0 = _universal_mask(g)
    remaining = (1 << g.n) - 1 ^ p0
    parts: list[int] = []
    while remaining:
        part = remaining & ~adj[_low(remaining)]
        parts.append(part)
        remaining ^= part
    return p0, parts


def greedy_partition(g: Graph) -> CommutingPartition | ForbiddenTriple:
    """Build a commuting partition greedily, or produce a witness.

    The loop of :func:`_greedy` yields block masks, and each part is
    tested on them: every vertex's row must be the mask of the vertices
    outside its part.  Vertex sets are built only for a returned partition.

    Each part is cut at the least remaining vertex, its pivot, so the parts
    come out sorted by minimum vertex.  On graphs that admit a commuting
    partition any pivot order would reach the same unordered block family.
    When the blocks fail, the first violation and the pivot w of the part it
    names always make a forbidden triple.  w is adjacent to no vertex of its
    part, and to every vertex of a later part, which was still unassigned
    when w cut its part.  So an internal edge (u, v) of w's part, with u < v
    since a lower partner would have been named first, gives (u, v, w).  A
    missing cross edge from u in w's part to v in a later one never starts
    in p0, which is exactly the universal set, and u != w because w is
    adjacent to v; it gives (min(v, w), max(v, w), u).  A wrong p0 cannot
    occur.
    """
    p0, parts = _greedy(g)
    found = _first_violation(g, [p0, *parts])
    if found is None:
        return CommutingPartition(frozenset(_bits(p0)), tuple(frozenset(_bits(m)) for m in parts))
    u, v, i, j = found
    w = _low(parts[i - 1])
    if i == j:
        return ForbiddenTriple(u, v, w)
    return ForbiddenTriple(min(v, w), max(v, w), u)
