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

The least witness is the first edge (a, b), in lexicographic order, with a
vertex c outside both rows.  The scan first tests the upper neighbours b of
each row a one by one.  Once it has rejected more than n + 16 of them, it
groups the later vertices by adjacency row and from then on tests each class
once per row a.  The budget is about what the grouping costs: a dict step
per vertex and a fixed cost of some 16 neighbour tests.  A scan that ends
within it, as on G(n, 1/2) and on every graph of up to seven vertices, whose
21 pairs all fit, never pays for the grouping, and one that runs longer has
already spent about as much.  Twins give the same answer: b qualifies
exactly when its row misses a vertex outside a's row other than a, which
depends on b's row alone.  So the least upper neighbour of a among the
members of the qualifying classes is the b the plain scan would reach first,
and c, the least vertex outside both rows, is found as before.  A universal
vertex qualifies for no a and joins no class.

Each decider is a private core on the adjacency masks, which answers in
plain ints and tuples, behind a public function that wraps the answer in its
result type.  ``harness.cross_check`` keeps only a yes or no per graph, so it
calls the cores and builds no result object; the two cores share no code.
"""

from __future__ import annotations

from .graphs import CommutingPartition, ForbiddenTriple, Graph, _bits, _low

__all__ = ("canonical_partition", "find_forbidden_triple", "is_nb", "recognize_multipartite")


def _least_triple(adj: tuple[int, ...]) -> tuple[int, int, int] | None:
    """The core of :func:`find_forbidden_triple`: (a, b, c) or None."""
    full = (1 << len(adj)) - 1
    budget = len(adj) + 16  # neighbours b to reject one by one before grouping twins
    for a, row in enumerate(adj):
        outside = full ^ row ^ 1 << a  # full & ~row & ~(1 << a): a is not in its row
        if not outside:
            continue
        upper = row >> a + 1 << a + 1
        for b in _bits(upper):
            free = outside & ~adj[b]  # b, a neighbour of a, is not outside
            if free:
                return a, b, _low(free)
        budget -= upper.bit_count()
        if budget < 0:
            return _least_by_class(adj, a + 1)
    return None


def _least_by_class(adj: tuple[int, ...], start: int) -> tuple[int, int, int] | None:
    """The least triple whose first vertex is ``start`` or later: the
    vertices from ``start`` on are grouped by adjacency row, and each row a
    tests each class once instead of each neighbour."""
    n = len(adj)
    full = (1 << n) - 1
    rows: dict[int, int] = {}
    for v in range(start, n):
        r = adj[v]
        if r | 1 << v != full:  # a universal vertex is in no witness
            rows[r] = rows.get(r, 0) | 1 << v
    classes = [(members, ~r) for r, members in rows.items()]
    for a in range(start, n):
        row = adj[a]
        outside = full ^ row ^ 1 << a
        passing = 0  # the members of every class whose row misses a vertex outside
        for members, not_row in classes:
            if outside & not_row:
                passing |= members
        if valid := passing & row >> a + 1 << a + 1:
            b = _low(valid)
            return a, b, _low(outside & ~adj[b])
    return None


def find_forbidden_triple(g: Graph) -> ForbiddenTriple | None:
    """The least witness triple, or None when the graph has none.

    Scans edges (a, b) row by row in lexicographic order and candidate third
    vertices ascending, which makes the result the lexicographically least
    valid (a, b, c) and therefore deterministic.  A row with no
    non-neighbour belongs to a universal vertex, which is in no witness.
    """
    triple = _least_triple(g.adj)
    return None if triple is None else ForbiddenTriple(*triple)


def is_nb(g: Graph) -> bool:
    """True when g avoids the forbidden pattern entirely."""
    return _least_triple(g.adj) is None


def _twin_blocks(adj: tuple[int, ...]) -> tuple[list[int], list[tuple[int, ...]]] | None:
    """The core of :func:`recognize_multipartite`: the p0 vertices and the
    members of each part, in the order the partition lists them, or None."""
    n = len(adj)
    full = (1 << n) - 1
    seen = 0
    p0 = []
    parts = []
    for v, row in enumerate(adj):
        if seen >> v & 1:
            continue
        block = full & ~row
        seen |= block
        if block == 1 << v and n > 1:
            p0.append(v)
            continue
        members = _bits(block)
        for u in members:
            if adj[u] != row:
                return None
        parts.append(members)
    return p0, parts


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
    blocks = _twin_blocks(g.adj)
    if blocks is None:
        return None
    p0, parts = blocks
    return CommutingPartition(frozenset(p0), tuple(map(frozenset, parts)))


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
