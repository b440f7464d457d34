import random

import pytest
from hypothesis import given, settings

from raagv import (
    CommutingPartition,
    ForbiddenTriple,
    InternalEdge,
    MissingCrossEdge,
    WrongP0,
    canonical_partition,
    greedy_partition,
    is_nb,
    new_graph,
    universal_vertices,
    validate_partition,
)
from raagv.harness import enumerate_graphs, random_nb_graph

from helpers import (
    block_family,
    complete_graph,
    cycle_graph,
    empty_graph,
    forbidden_pattern_graph,
    graphs,
    path_graph,
    reference_greedy_partition,
    run_greedy,
    seeded_pivot,
)


def test_greedy_on_complete_graph():
    p = greedy_partition(complete_graph(3))
    assert isinstance(p, CommutingPartition)
    assert p.p0 == {0, 1, 2}
    assert p.parts == ()


def test_greedy_on_path():
    p = greedy_partition(path_graph(3))
    assert isinstance(p, CommutingPartition)
    assert p.p0 == {1}
    assert p.parts == (frozenset({0, 2}),)


def test_greedy_on_cycle4():
    p = greedy_partition(cycle_graph(4))
    assert isinstance(p, CommutingPartition)
    assert p.p0 == frozenset()
    assert p.parts == (frozenset({0, 2}), frozenset({1, 3}))


def test_greedy_witness_on_smallest_obstruction():
    t = greedy_partition(forbidden_pattern_graph())
    assert t == ForbiddenTriple(0, 1, 2)


def test_greedy_witness_on_pentagon():
    t = greedy_partition(cycle_graph(5))
    assert isinstance(t, ForbiddenTriple)
    assert t.holds_in(cycle_graph(5))


def test_greedy_on_empty_vertex_set():
    p = greedy_partition(new_graph(0, []))
    assert isinstance(p, CommutingPartition)
    assert p.p0 == frozenset()
    assert p.parts == ()


def test_greedy_on_single_vertex():
    p = greedy_partition(new_graph(1, []))
    assert isinstance(p, CommutingPartition)
    assert p.p0 == frozenset()
    assert p.parts == (frozenset({0}),)


def test_greedy_parts_sorted_by_min_vertex():
    g = new_graph(5, [(1, 0), (1, 2), (1, 3), (4, 0), (4, 2), (4, 3)])
    p = greedy_partition(g)
    assert isinstance(p, CommutingPartition)
    assert [min(part) for part in p.parts] == sorted(min(part) for part in p.parts)


def test_greedy_agrees_with_triple_scan_exhaustively():
    for n in range(6):
        for g in enumerate_graphs(n):
            outcome = greedy_partition(g)
            if is_nb(g):
                assert isinstance(outcome, CommutingPartition)
                assert validate_partition(g, outcome) is None
            else:
                assert isinstance(outcome, ForbiddenTriple)
                assert outcome.holds_in(g)


@given(graphs(max_n=8))
@settings(max_examples=150)
def test_greedy_success_iff_pattern_free(g):
    outcome = greedy_partition(g)
    assert isinstance(outcome, CommutingPartition) == is_nb(g)


def test_no_singleton_parts_on_success_with_two_or_more_vertices():
    rng = random.Random(5)
    for trial in range(100):
        n = rng.randint(2, 11)
        g = random_nb_graph(n, seed=trial + 1000)
        p = greedy_partition(g)
        assert isinstance(p, CommutingPartition)
        assert all(len(part) >= 2 for part in p.parts)


def test_pivot_independence_on_random_members():
    for trial in range(60):
        n = trial % 10 + 1
        g = random_nb_graph(n, seed=trial)
        reference = canonical_partition(g)
        assert isinstance(reference, CommutingPartition)
        assert block_family(greedy_partition(g)) == block_family(reference)
        for seed in range(10):
            p = reference_greedy_partition(g, seeded_pivot(seed))
            assert isinstance(p, CommutingPartition)
            assert block_family(p) == block_family(reference)


def test_run_greedy_bookkeeping():
    g = cycle_graph(4)
    run = run_greedy(g)
    assert len(run.parts) == len(run.pivots) <= g.n
    for part, pivot in zip(run.parts, run.pivots):
        assert pivot in part
    covered = set(run.p0)
    for part in run.parts:
        assert not covered & part
        covered |= part
    assert covered == set(range(g.n))


@given(graphs(max_n=8))
@settings(max_examples=100)
def test_run_greedy_always_terminates_with_disjoint_cover(g):
    run = run_greedy(g)
    assert run.p0 == universal_vertices(g)
    blocks = [run.p0, *run.parts]
    seen = set()
    for block in blocks:
        assert not seen & set(block)
        seen |= set(block)
    assert seen == set(range(g.n))


def test_validate_accepts_good_partition():
    g = cycle_graph(4)
    p = CommutingPartition(frozenset(), (frozenset({0, 2}), frozenset({1, 3})))
    assert validate_partition(g, p) is None


def test_validate_reports_internal_edge():
    g = cycle_graph(4)
    p = CommutingPartition(frozenset(), (frozenset({0, 1}), frozenset({2, 3})))
    assert validate_partition(g, p) == InternalEdge(0, 1, 1)


def test_validate_reports_missing_cross_edge():
    g = new_graph(4, [(0, 2), (0, 3), (1, 2)])  # (1, 3) missing
    p = CommutingPartition(frozenset(), (frozenset({0, 1}), frozenset({2, 3})))
    v = validate_partition(g, p)
    assert v == MissingCrossEdge(1, 3, (1, 2))


def test_validate_reports_wrong_p0():
    g = path_graph(3)
    p = CommutingPartition(frozenset(), (frozenset({0, 2}), frozenset({1})))
    v = validate_partition(g, p)
    assert v == WrongP0(1, should_be_in_p0=True)

    q = CommutingPartition(frozenset({0, 1}), (frozenset({2}),))
    assert validate_partition(g, q) == WrongP0(0, should_be_in_p0=False)


def test_validate_rejects_overlap_and_non_cover():
    g = empty_graph(3)
    with pytest.raises(ValueError):
        validate_partition(g, CommutingPartition(frozenset({0}), (frozenset({0, 1, 2}),)))
    with pytest.raises(ValueError):
        validate_partition(g, CommutingPartition(frozenset(), (frozenset({0, 1}),)))
    with pytest.raises(ValueError):
        validate_partition(g, CommutingPartition(frozenset({5}), (frozenset({0, 1, 2}),)))


def test_empty_parts_rejected_at_construction():
    with pytest.raises(ValueError):
        CommutingPartition(frozenset(), (frozenset(),))


def test_canonical_partition_matches_greedy_family():
    for n in range(6):
        for g in enumerate_graphs(n):
            c = canonical_partition(g)
            p = greedy_partition(g)
            if isinstance(c, CommutingPartition):
                assert isinstance(p, CommutingPartition)
                assert block_family(c) == block_family(p)
                assert c.parts == tuple(sorted(c.parts, key=min))
            else:
                assert isinstance(p, ForbiddenTriple)
                assert c.holds_in(g)


def test_canonical_partition_single_vertex():
    p = canonical_partition(new_graph(1, []))
    assert isinstance(p, CommutingPartition)
    assert p.p0 == frozenset() and p.parts == (frozenset({0}),)
