"""Exhaustive and randomized verification at desk scale.

``cross_check`` runs the three independent deciders (forbidden-triple scan,
greedy partitioner, twin-class recognizer) over every labeled graph of a
given order and records disagreements; the counts double as a check against
the expected number of pattern-free graphs, which equals the Bell numbers.
It keeps only a yes or no from each decider, so it calls their private mask
cores, which build no result object; the public deciders wrap the same
cores.  It draws every graph through the module attribute
``enumerate_graphs``, so that a caller can wrap the generator to time each
graph.  The random generators here feed the property tests and
are deterministic in their seed.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator

from .classify import _least_triple, _twin_blocks
from .graphs import Graph, _Record, new_graph
from .partition import _greedy_cuts

__all__ = (
    "CrossCheckReport", "Mismatch", "cross_check", "enumerate_graphs", "random_graph",
    "random_nb_graph",
)

MAX_ENUMERATION_N = 8


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled graphs on n vertices in code order: bit i of
    a code joins the i-th vertex pair in lexicographic order.

    Since n <= 8, each adjacency row fits in a byte, so a whole graph packs
    into one integer whose byte u is row u.  Each code splits into a low and
    a high half of its pair bits; the packed graphs of every subset of each
    half are built once per call, so a graph costs one OR, one ``to_bytes``
    and one tuple.  Capped at n = 8; beyond that exhaustive enumeration
    stops being a desk job and the cap fails fast instead of hanging.
    """
    if not 0 <= n <= MAX_ENUMERATION_N:
        raise ValueError(f"enumeration supports 0 <= n <= {MAX_ENUMERATION_N}, got {n}")
    pairs = [1 << 8 * u + v | 1 << 8 * v + u for u, v in combinations(range(n), 2)]
    low = len(pairs) // 2
    halves = []
    for masks in pairs[:low], pairs[low:]:
        ors = [0]
        for m in masks:
            ors += [x | m for x in ors]
        halves.append(ors)
    lows, highs = halves
    for high in highs:
        for lo in lows:
            yield Graph(n, tuple((high | lo).to_bytes(n, "little")))


class Mismatch(_Record):
    """One graph on which the three deciders disagreed, by enumeration code."""

    code: int
    triple_free: bool
    greedy_ok: bool
    multipartite_ok: bool


class CrossCheckReport(_Record):
    """The counts of one order's sweep and the graphs it found the deciders disagree on."""

    n: int
    total_graphs: int
    nb_count: int
    gp_count: int
    mismatches: tuple[Mismatch, ...]


def cross_check(n: int) -> CrossCheckReport:
    """Run all three deciders over every labeled graph on n vertices."""
    total = nb = gp = 0
    bad: list[Mismatch] = []
    for total, g in enumerate(enumerate_graphs(n), 1):
        adj = g.adj
        triple_free = _least_triple(adj) is None
        greedy_ok = _greedy_cuts(adj)[2] is None
        multi_ok = _twin_blocks(adj) is not None
        nb += triple_free
        gp += greedy_ok
        if not (triple_free == greedy_ok == multi_ok):
            bad.append(Mismatch(total - 1, triple_free, greedy_ok, multi_ok))
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


def random_nb_graph(n: int, seed: int) -> Graph:
    """A random pattern-free graph, deterministic in the seed.

    Each vertex draws a label from 0..slots: label 0 makes it universal, and
    the vertices of any other label form a part, which spans no edge and is
    joined to everything outside it.  A part of one vertex simply comes out
    universal.  So each row is one mask: everything but the vertex itself
    for label 0, everything outside the part otherwise.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if n == 0:
        return Graph(0, ())
    rng = random.Random(seed)
    slots = rng.randint(1, n)
    labels = [rng.randint(0, slots) for _ in range(n)]
    masks = [0] * (slots + 1)
    for v, lab in enumerate(labels):
        masks[lab] |= 1 << v
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (masks[lab] if lab else 1 << v) for v, lab in enumerate(labels)))
