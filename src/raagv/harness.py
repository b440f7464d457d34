"""Exhaustive and randomized verification at desk scale.

``cross_check`` runs the three independent deciders (forbidden-triple scan,
greedy partitioner, twin-class recognizer) over every labeled graph of a
given order and records disagreements; the counts double as a check against
the expected number of pattern-free graphs, which equals the Bell numbers.
It keeps only a yes or no from each decider, so it calls their private mask
cores, which build no result object and, for the greedy builder, skip the
search for a missing cross edge that would only name a witness; the public
deciders wrap the same cores.  It draws every graph through the module
attribute ``enumerate_graphs``, so that a caller can wrap the generator to
time each graph.  The random generators here feed the property tests and
are deterministic in their seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from operator import or_
from typing import Iterator

from .classify import _least_triple, _twin_blocks
from .graphs import Graph, _bits, _block_masks, new_graph
from .partition import _greedy_cuts

__all__ = (
    "CrossCheckReport", "Mismatch", "cross_check", "enumerate_graphs", "graph_from_family",
    "random_graph", "random_nb_graph", "random_partition_family",
)

MAX_ENUMERATION_N = 8


def _rows(n: int, code: int) -> tuple[int, ...]:
    """Adjacency masks of the graph whose edges are the vertex pairs, in
    lexicographic order, at the set bits of code."""
    adj = [0] * n
    for i, (u, v) in enumerate(combinations(range(n), 2)):
        if code >> i & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return tuple(adj)


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled graphs on n vertices in code order.

    Each code splits into a low and a high half of its pair bits.  Both
    halves are decoded once, so a graph costs one OR per vertex.  Capped at
    n = 8; beyond that exhaustive enumeration stops being a desk job and the
    cap fails fast instead of hanging.
    """
    if not 0 <= n <= MAX_ENUMERATION_N:
        raise ValueError(f"enumeration supports 0 <= n <= {MAX_ENUMERATION_N}, got {n}")
    npairs = n * (n - 1) // 2
    low = npairs // 2
    lows = [_rows(n, code) for code in range(1 << low)]
    for high in range(1 << npairs - low):
        rows = _rows(n, high << low)
        for lo in lows:
            yield Graph(n, tuple(map(or_, rows, lo)))


@dataclass(frozen=True)
class Mismatch:
    """One graph on which the three deciders disagreed, by enumeration code."""

    code: int
    triple_free: bool
    greedy_ok: bool
    multipartite_ok: bool


@dataclass(frozen=True)
class CrossCheckReport:
    n: int
    total_graphs: int
    nb_count: int
    gp_count: int
    mismatches: tuple[Mismatch, ...]


def cross_check(n: int) -> CrossCheckReport:
    """Run all three deciders over every labeled graph on n vertices."""
    total = nb = gp = 0
    bad: list[Mismatch] = []
    code = 0
    for g in enumerate_graphs(n):
        total += 1
        adj = g.adj
        triple_free = _least_triple(adj) is None
        greedy_ok = not _greedy_cuts(adj)[2]
        multi_ok = _twin_blocks(adj) is not None
        nb += triple_free
        gp += greedy_ok
        if not (triple_free == greedy_ok == multi_ok):
            bad.append(Mismatch(code, triple_free, greedy_ok, multi_ok))
        code += 1
    return CrossCheckReport(n, total, nb, gp, tuple(bad))


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi style sample, deterministic in the seed."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = random.Random(seed)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return new_graph(n, edges)


def random_partition_family(
    n: int, seed: int
) -> tuple[frozenset[int], tuple[frozenset[int], ...]]:
    """Seeded random block structure: a (possibly empty) universal set plus
    independent parts, the parts ordered by minimum vertex.

    Singleton parts are legal; in the built graph their vertex simply comes
    out universal and is absorbed into p0 by the canonical partition.  With
    no vertices the family is empty.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n == 0:
        return frozenset(), ()
    rng = random.Random(seed)
    slots = rng.randint(1, n)
    labels = [rng.randint(0, slots) for _ in range(n)]  # label 0 = universal block
    p0 = frozenset(v for v, lab in enumerate(labels) if lab == 0)
    groups: dict[int, list[int]] = {}
    for v, lab in enumerate(labels):
        if lab:
            groups.setdefault(lab, []).append(v)
    parts = tuple(
        frozenset(vs) for vs in sorted(groups.values(), key=min)
    )
    return p0, parts


def graph_from_family(
    n: int, p0: frozenset[int], parts: tuple[frozenset[int], ...]
) -> Graph:
    """The complete-multipartite-plus-universal graph realizing the blocks:
    p0 vertices are joined to everything, parts span no internal edge, and
    all cross-block pairs are joined.  Each row is one mask: everything but
    the vertex itself for p0, everything outside the part for a part.
    Raises ValueError unless the blocks partition 0..n-1; empty parts are
    allowed."""
    masks = _block_masks((p0, *parts), n)
    full = (1 << n) - 1
    adj = [full ^ 1 << v for v in range(n)]
    for mask in masks[1:]:
        row = full ^ mask
        for v in _bits(mask):
            adj[v] = row
    return Graph(n, tuple(adj))


def random_nb_graph(n: int, seed: int) -> Graph:
    """A random pattern-free graph, built from a random block structure."""
    p0, parts = random_partition_family(n, seed)
    return graph_from_family(n, p0, parts)
