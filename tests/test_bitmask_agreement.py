"""The mask-based deciders against the reference implementations in helpers.

Agreement is exact: the same universal set, the same partition with the same
part order, the same greedy run, first violation and greedy witness, on every
graph with at most six vertices and on seeded large graphs on both sides of
the class boundary.
"""

import random
from itertools import product

import pytest

from raagv import (
    CommutingPartition,
    Graph,
    greedy_partition,
    min_pivot,
    recognize_multipartite,
    seeded_pivot,
    universal_vertices,
    validate_partition,
)
from raagv.harness import enumerate_graphs, random_graph, random_nb_graph

from helpers import (
    near_misses,
    reference_greedy_partition,
    reference_recognize_multipartite,
    reference_run_greedy,
    reference_universal_vertices,
    reference_validate_partition,
    run_greedy,
)


def assert_agree(g: Graph, make_pivot=lambda: min_pivot) -> None:
    """``make_pivot`` gives each greedy run a fresh pivot rule, so seeded
    rules draw the same sequence on both sides."""
    assert universal_vertices(g) == reference_universal_vertices(g)
    assert recognize_multipartite(g) == reference_recognize_multipartite(g)
    run = run_greedy(g, make_pivot())
    assert run == reference_run_greedy(g, make_pivot())
    candidate = CommutingPartition(run.p0, run.parts)
    assert validate_partition(g, candidate) == reference_validate_partition(g, candidate)
    assert greedy_partition(g, make_pivot()) == reference_greedy_partition(g, make_pivot())


def first_remaining(remaining):
    """Picks what ``min_pivot`` picks but is a different object, so a fast
    path keyed on ``min_pivot`` itself could not hide a drift from the
    general one."""
    return remaining[0]


def test_agreement_on_every_graph_up_to_six_vertices():
    for n in range(7):
        for g in enumerate_graphs(n):
            assert_agree(g)
            assert run_greedy(g, first_remaining) == reference_run_greedy(g, first_remaining)
            assert greedy_partition(g, first_remaining) == reference_greedy_partition(g, first_remaining)


def test_agreement_with_seeded_pivots_up_to_five_vertices():
    for n in range(6):
        for code, g in enumerate(enumerate_graphs(n)):
            assert_agree(g, lambda: seeded_pivot(code))


def block_structures(n: int):
    """Every set partition of range(n), blocks ordered by minimum vertex."""
    seen = set()
    for labels in product(range(n), repeat=n):
        blocks = {}
        for v, lab in enumerate(labels):
            blocks.setdefault(lab, []).append(v)
        family = tuple(sorted(map(frozenset, blocks.values()), key=min))
        if family not in seen:
            seen.add(family)
            yield family


def test_first_violation_on_every_block_structure_up_to_four_vertices():
    # every choice of p0 (none, or any block) and both part orders, so each
    # violation kind and each tie in the documented order gets exercised
    for n in range(5):
        structures = list(block_structures(n))
        for g in enumerate_graphs(n):
            for family in structures:
                for p0 in (frozenset(), *family):
                    parts = tuple(b for b in family if b != p0)
                    for order in (parts, parts[::-1]):
                        p = CommutingPartition(p0, order)
                        assert validate_partition(g, p) == reference_validate_partition(g, p)


@pytest.mark.parametrize("n", [200, 1000])
def test_agreement_on_large_seeded_graphs(n):
    rng = random.Random(n)
    member = random_nb_graph(n, seed=n)
    for g in (random_graph(n, 0.5, seed=n), member, *near_misses(member, rng)):
        assert_agree(g, lambda: seeded_pivot(n))
