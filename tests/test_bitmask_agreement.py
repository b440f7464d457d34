"""The mask-based deciders against the reference implementations in helpers.

Agreement is exact: the same universal set, the same partition with the same
part order, the same greedy run, first violation and greedy witness, on every
graph with at most six vertices and on seeded large graphs on both sides of
the class boundary.  The one-pass greedy builder returns exactly what the
two-phase reference (every cut first, then the first failing row) returns.
The reference greedy builder also runs with seeded random pivot orders,
which must reach the canonical partition or a witness.  On every graph with
at most six vertices, ``verdict`` is the canonical partition's forbidden
triple itself, or an ``Embeddable`` that carries its partition.
"""

import random
from itertools import product

import pytest

from raagv import (
    CommutingPartition,
    Embeddable,
    ForbiddenTriple,
    Graph,
    MissingCrossEdge,
    canonical_partition,
    greedy_partition,
    is_nb,
    recognize_multipartite,
    universal_vertices,
    validate_partition,
    verdict,
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
    seeded_pivot,
)


def assert_agree(g: Graph) -> None:
    assert universal_vertices(g) == reference_universal_vertices(g)
    assert recognize_multipartite(g) == reference_recognize_multipartite(g)
    run = run_greedy(g)
    assert run == reference_run_greedy(g)
    candidate = CommutingPartition(run.p0, run.parts)
    assert validate_partition(g, candidate) == reference_validate_partition(g, candidate)
    assert greedy_partition(g) == reference_greedy_partition(g)


def test_agreement_on_every_graph_up_to_six_vertices():
    for n in range(7):
        for g in enumerate_graphs(n):
            assert_agree(g)
            # a negative verdict is the canonical partition's triple itself
            outcome, v = canonical_partition(g), verdict(g)
            if isinstance(outcome, ForbiddenTriple):
                assert v == outcome
            else:
                assert isinstance(v, Embeddable) and v.partition == outcome


def assert_any_pivot_order_works(g: Graph, seed: int) -> None:
    """A seeded pivot order gives the canonical partition, or a witness that holds."""
    outcome = reference_greedy_partition(g, seeded_pivot(seed))
    if is_nb(g):
        assert outcome == canonical_partition(g)
    else:
        assert isinstance(outcome, ForbiddenTriple) and outcome.holds_in(g)


def test_agreement_with_seeded_pivots_up_to_five_vertices():
    for n in range(6):
        for code, g in enumerate(enumerate_graphs(n)):
            assert_any_pivot_order_works(g, code)


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


def test_missing_cross_edge_starts_at_the_first_failing_part():
    # p0 is universal, and every part before the first one with a failing row
    # has all its rows right, so neither misses an edge: the validator's
    # search looks only at that part, on seeded random blocks of each graph
    rng = random.Random(6)
    found = 0
    for n in range(7):
        for g in enumerate_graphs(n):
            p0 = reference_universal_vertices(g)
            rest = sorted(set(range(n)) - p0)
            for _ in range(3):
                labels = rng.randint(1, len(rest) or 1)
                blocks: dict[int, set[int]] = {}
                for v in rest:
                    blocks.setdefault(rng.randrange(labels), set()).add(v)
                parts = [frozenset(b) for b in blocks.values()]
                rng.shuffle(parts)
                p = CommutingPartition(p0, tuple(parts))
                violation = validate_partition(g, p)
                assert violation == reference_validate_partition(g, p)
                if isinstance(violation, MissingCrossEdge):
                    outside = [set(range(n)) - part for part in parts]
                    failing = [
                        k for k, part in enumerate(parts, 1)
                        if any({v for v in range(n) if g.has_edge(u, v)} != outside[k - 1] for u in part)
                    ]
                    assert violation.blocks[0] == failing[0]
                    found += 1
    assert found > 10_000


@pytest.mark.parametrize("n", [200, 1000])
def test_agreement_on_large_seeded_graphs(n):
    rng = random.Random(n)
    member = random_nb_graph(n, seed=n)
    for g in (random_graph(n, 0.5, seed=n), member, *near_misses(member, rng)):
        assert_agree(g)
        assert_any_pivot_order_works(g, n)


@pytest.mark.parametrize("n", [300, 2000])
def test_one_pass_greedy_matches_two_phase_on_large_graphs(n):
    rng = random.Random(n + 1)
    graphs = [random_graph(n, 0.5, seed=n)]
    for seed in range(3):
        member = random_nb_graph(n, seed=seed)
        graphs += [member, *near_misses(member, rng)]
    for g in graphs:
        assert greedy_partition(g) == reference_greedy_partition(g)
