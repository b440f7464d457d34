"""Commuting partitions of a graph.

A commuting partition splits the vertices into a distinguished block p0 (the
eccentricity-one vertices) and parts P1..Pk such that every part spans no
edge and every pair of vertices from different blocks is adjacent.  A graph
admits one exactly when it avoids the three-vertex pattern "one edge plus a
vertex adjacent to neither endpoint"; on such graphs the partition is unique
as an unordered family of blocks.

This module has the greedy construction (with pluggable pivot rules), the
validator for the defining conditions, and the canonical partition from the
twin-class recognizer.  All three work on adjacency masks: a part is valid
exactly when each of its vertices is adjacent to everything outside it and
nothing inside it, one mask compare per vertex.  Construction failures are
converted into forbidden-triple witnesses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import TYPE_CHECKING, Callable, Sequence

from .graphs import Graph, _bits, _low, _mask, universal_vertices

if TYPE_CHECKING:
    from .classify import ForbiddenTriple


@dataclass(frozen=True)
class CommutingPartition:
    """Block structure: p0 plus nonempty parts.

    Two partitions describe the same block structure exactly when their
    :meth:`family` views agree; the order of ``parts`` is presentation only.
    """

    p0: frozenset[int]
    parts: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if any(not part for part in self.parts):
            raise ValueError("parts must be nonempty")

    def blocks(self) -> tuple[frozenset[int], ...]:
        """All blocks, p0 first; parts occupy indices 1..len(parts)."""
        return (self.p0, *self.parts)

    def family(self) -> tuple[frozenset[int], frozenset[frozenset[int]]]:
        """Order-free view used for partition equality."""
        return (self.p0, frozenset(self.parts))


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
    return _validate(g, p, universal_vertices(g))


def _validate(g: Graph, p: CommutingPartition, ecc_one: frozenset[int]) -> Violation | None:
    """:func:`validate_partition` against a known eccentricity-one set."""
    blocks = p.blocks()
    masks = []
    union = 0
    for block in blocks:
        for v in block:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} is outside 0..{g.n - 1}")
        mask = _mask(block)
        if union & mask:
            raise ValueError("blocks overlap")
        union |= mask
        masks.append(mask)
    full = (1 << g.n) - 1
    if union != full:
        raise ValueError("blocks do not cover the vertex set")

    if p.p0 != ecc_one:
        v = min(p.p0 ^ ecc_one)
        return WrongP0(v, should_be_in_p0=v in ecc_one)

    # p0 now holds exactly the universal vertices, so the partition is valid
    # iff every part vertex is adjacent to precisely the vertices outside its
    # part.  Only a failure needs the ordered search that names it.
    adj = g.adj
    if all(adj[v] == full & ~mask for part, mask in zip(p.parts, masks[1:]) for v in part):
        return None

    for k, (part, mask) in enumerate(zip(p.parts, masks[1:]), start=1):
        for u in sorted(part):
            # an edge to a lower vertex of the part would have been named first
            inside = adj[u] & mask
            if inside:
                return InternalEdge(u, _low(inside), k)

    later = full
    for i, (block, mask) in enumerate(zip(blocks, masks)):
        later &= ~mask
        misses = {u: later & ~adj[u] for u in sorted(block)}
        missed = reduce(or_, misses.values(), 0)
        if missed:
            j = next(j for j in range(i + 1, len(masks)) if masks[j] & missed)
            u = next(u for u, m in misses.items() if m & masks[j])
            return MissingCrossEdge(u, _low(misses[u] & masks[j]), (i, j))
    return None


PivotRule = Callable[[Sequence[int]], int]


def min_pivot(remaining: Sequence[int]) -> int:
    """Default pivot rule: the smallest remaining vertex."""
    return remaining[0]


def seeded_pivot(seed: int) -> PivotRule:
    """A pivot rule drawing uniformly from the remaining set, reproducibly."""
    rng = random.Random(seed)
    return lambda remaining: rng.choice(remaining)


@dataclass(frozen=True)
class GreedyRun:
    """Raw outcome of the block-building loop, parts in discovery order with
    the pivot that generated each one."""

    p0: frozenset[int]
    parts: tuple[frozenset[int], ...]
    pivots: tuple[int, ...]


def run_greedy(g: Graph, pivot_rule: PivotRule = min_pivot) -> GreedyRun:
    """One pass of the greedy builder: p0 is the eccentricity-one set, then
    each round splits off a pivot together with its unassigned non-neighbors.

    Always terminates in at most n rounds because the pivot itself (loop-free,
    hence a non-neighbor of itself) lands in the part it generates.
    """
    p0 = universal_vertices(g)
    remaining = (1 << g.n) - 1 & ~_mask(p0)
    parts: list[frozenset[int]] = []
    pivots: list[int] = []
    while remaining:
        candidates = _bits(remaining)
        w = pivot_rule(candidates)
        if w not in candidates:
            raise ValueError("pivot rule chose a vertex outside the remaining set")
        part = remaining & ~g.adj[w]
        parts.append(frozenset(_bits(part)))
        pivots.append(w)
        remaining ^= part
    return GreedyRun(p0, tuple(parts), tuple(pivots))


def greedy_partition(
    g: Graph, pivot_rule: PivotRule = min_pivot
) -> CommutingPartition | ForbiddenTriple:
    """Build a commuting partition greedily, or produce a witness.

    On graphs that admit a commuting partition every pivot rule reaches the
    same unordered block family; the returned partition lists parts sorted by
    minimum vertex.  When validation of the constructed blocks fails, the
    offending block is traced back to a forbidden triple: an edge inside a
    part pairs with that part's pivot, and a missing cross edge pairs the
    later block's vertex with the earlier part's pivot.
    """
    run = run_greedy(g, pivot_rule)
    candidate = CommutingPartition(run.p0, run.parts)
    violation = _validate(g, candidate, run.p0)  # run.p0 is the universal set
    if violation is None:
        return CommutingPartition(run.p0, tuple(sorted(run.parts, key=min)))

    triple = _witness_from_violation(run, violation)
    if triple is not None and triple.holds_in(g):
        return triple
    fallback = classify.find_forbidden_triple(g)
    if fallback is None:
        raise AssertionError("greedy construction failed on a triple-free graph")
    return fallback


def _witness_from_violation(run: GreedyRun, violation: Violation) -> ForbiddenTriple | None:
    if isinstance(violation, InternalEdge):
        w = run.pivots[violation.part - 1]
        u, v = violation.u, violation.v
        if w in (u, v):
            return None
        # u, v both landed in w's part, so neither is adjacent to w
        return classify.ForbiddenTriple(min(u, v), max(u, v), w)
    if isinstance(violation, MissingCrossEdge):
        i, j = violation.blocks
        if i == 0:
            return None  # p0 vertices are universal; cannot happen for greedy output
        w = run.pivots[i - 1]
        u, v = violation.u, violation.v
        if u == w:
            return None
        # v stayed unassigned when w's part formed, so (v, w) is an edge,
        # while u is adjacent to neither v nor its own pivot w
        return classify.ForbiddenTriple(min(v, w), max(v, w), u)
    return None


def canonical_partition(g: Graph) -> CommutingPartition | ForbiddenTriple:
    """The twin-class partition when one exists, else the lexicographically
    least forbidden triple."""
    part = classify.recognize_multipartite(g)
    if part is not None:
        return part
    witness = classify.find_forbidden_triple(g)
    if witness is None:
        raise AssertionError("recognizer rejected a triple-free graph")
    return witness


# Last, because classify imports this module for the partition type; the
# functions above look its names up when called.
from . import classify  # noqa: E402
