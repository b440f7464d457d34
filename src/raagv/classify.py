"""Membership in the class of graphs whose graph group embeds into
Thompson's group V, decided two independent ways.

The obstruction is a triple of vertices spanning exactly one edge: two
adjacent vertices plus a third adjacent to neither (the graph of Z^2 * Z).
A graph avoids that pattern exactly when its complement is a disjoint union
of cliques, i.e. when the graph itself is complete multipartite with some
universal vertices.  ``find_forbidden_triple`` scans for the pattern
directly; ``recognize_multipartite`` checks the complement structure as
twin classes (every vertex of a block has the same neighbourhood, and the
block is exactly the non-neighbours of each of its vertices) and hands back
the canonical commuting partition.  ``canonical_partition`` composes the
two: the recognizer's partition, or else the scan's least witness.  This
module imports only :mod:`raagv.graphs`, where both result types live.
"""

from __future__ import annotations

from .graphs import CommutingPartition, ForbiddenTriple, Graph, _bits, _low

__all__ = ("canonical_partition", "find_forbidden_triple", "is_nb", "recognize_multipartite")


def find_forbidden_triple(g: Graph) -> ForbiddenTriple | None:
    """The least witness triple, or None when the graph has none.

    Scans edges (a, b) row by row in lexicographic order and candidate third
    vertices ascending, which makes the result the lexicographically least
    valid (a, b, c) and therefore deterministic.  A row with no
    non-neighbour belongs to a universal vertex, which is in no witness.
    """
    full = (1 << g.n) - 1
    adj = g.adj
    for a, row in enumerate(adj):
        outside = full & ~row & ~(1 << a)
        if not outside:
            continue
        for b in _bits(row >> a + 1 << a + 1):
            free = outside & ~adj[b]  # b, a neighbour of a, is not outside
            if free:
                return ForbiddenTriple(a, b, _low(free))
    return None


def is_nb(g: Graph) -> bool:
    """True when g avoids the forbidden pattern entirely."""
    return find_forbidden_triple(g) is None


def recognize_multipartite(g: Graph) -> CommutingPartition | None:
    """Canonical commuting partition by twin classes, or None.

    The complement is a disjoint union of cliques exactly when every vertex v
    shares its neighbourhood with each of its non-neighbours, the block
    ``full & ~adj[v]`` (v included, the graph being loop-free).  Blocks are
    taken from the least vertex not yet covered, so they come out ordered
    by minimum vertex.  A singleton block holds a universal vertex and goes
    to p0, except on the one-vertex graph, whose sole vertex has
    eccentricity 0 and therefore stays a part.
    """
    full = (1 << g.n) - 1
    adj = g.adj
    seen = 0
    p0 = []
    parts = []
    for v, row in enumerate(adj):
        if seen >> v & 1:
            continue
        block = full & ~row
        seen |= block
        if block == 1 << v and g.n > 1:
            p0.append(v)
            continue
        members = _bits(block)
        for u in members:
            if adj[u] != row:
                return None
        parts.append(frozenset(members))
    return CommutingPartition(frozenset(p0), tuple(parts))


def canonical_partition(g: Graph) -> CommutingPartition | ForbiddenTriple:
    """The twin-class partition when one exists, else the lexicographically
    least forbidden triple."""
    part = recognize_multipartite(g)
    if part is not None:
        return part
    witness = find_forbidden_triple(g)
    if witness is None:
        raise AssertionError("recognizer rejected a triple-free graph")
    return witness
