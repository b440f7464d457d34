import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagv import (
    CommutingPartition,
    Embeddable,
    ForbiddenTriple,
    GroupDecomposition,
    canonical_partition,
    emit_presentation,
    format_decomposition,
    new_graph,
    verdict,
)
from raagv.harness import enumerate_graphs, random_nb_graph

from helpers import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    edge_count,
    empty_graph,
    forbidden_pattern_graph,
    path_graph,
    reference_canonical_form,
    reference_decompose,
    total_rank,
)


def test_reference_two_step_group():
    # the raw form keeps one free rank per part, in part order
    p = canonical_partition(cycle_graph(4))
    assert isinstance(p, CommutingPartition)
    assert reference_decompose(p) == GroupDecomposition(0, (2, 2))
    p = CommutingPartition(frozenset({0}), (frozenset({1, 2, 3}), frozenset({4})))
    assert reference_decompose(p) == GroupDecomposition(1, (3, 1))
    assert reference_canonical_form(GroupDecomposition(1, (3, 1))) == GroupDecomposition(2, (3,))
    assert reference_canonical_form(GroupDecomposition(2, (1, 3, 1, 2))) == GroupDecomposition(4, (3, 2))
    rng = random.Random(99)
    for _ in range(200):
        d = GroupDecomposition(
            rng.randint(0, 5), tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 5)))
        )
        c = reference_canonical_form(d)
        assert reference_canonical_form(c) == c
        assert total_rank(c) == total_rank(d)
        assert 1 not in c.free_ranks
        assert list(c.free_ranks) == sorted(c.free_ranks, reverse=True)


def assert_group_is_the_two_step_reference(g):
    v = verdict(g)
    assert isinstance(v, Embeddable)
    assert v.group == reference_canonical_form(reference_decompose(v.partition))


def test_verdict_group_matches_the_two_step_reference_on_every_small_graph():
    members = 0
    for n in range(7):
        for g in enumerate_graphs(n):
            if isinstance(canonical_partition(g), CommutingPartition):
                assert_group_is_the_two_step_reference(g)
                members += 1
    assert members == 1 + 1 + 2 + 5 + 15 + 52 + 203  # Bell numbers, n = 0..6


@pytest.mark.parametrize("n", [50, 300])
def test_verdict_group_matches_the_two_step_reference_on_large_members(n):
    for seed in range(20):
        assert_group_is_the_two_step_reference(random_nb_graph(n, seed))


def test_format_decomposition_examples():
    assert format_decomposition(GroupDecomposition(3, ())) == "Z^3"
    assert format_decomposition(GroupDecomposition(0, (2, 2))) == "F_2 x F_2"
    assert format_decomposition(GroupDecomposition(1, (2,))) == "Z^1 x F_2"
    assert format_decomposition(GroupDecomposition(0, ())) == "1"
    assert format_decomposition(GroupDecomposition(2, (5, 3, 2))) == "Z^2 x F_5 x F_3 x F_2"


def test_invalid_ranks_rejected():
    with pytest.raises(ValueError):
        GroupDecomposition(-1, ())
    with pytest.raises(ValueError):
        GroupDecomposition(0, (0,))


def test_verdict_on_obstruction():
    v = verdict(forbidden_pattern_graph())
    assert v == ForbiddenTriple(0, 1, 2)


def test_verdict_on_pentagon():
    assert isinstance(verdict(cycle_graph(5)), ForbiddenTriple)


def test_verdict_complete_graphs_are_free_abelian():
    for n in range(1, 9):
        v = verdict(complete_graph(n))
        assert isinstance(v, Embeddable)
        assert v.group == GroupDecomposition(n, ())
        assert format_decomposition(v.group) == f"Z^{n}"


def test_verdict_empty_graphs_are_free():
    for n in range(2, 9):
        v = verdict(empty_graph(n))
        assert isinstance(v, Embeddable)
        assert v.group == GroupDecomposition(0, (n,))
        assert format_decomposition(v.group) == f"F_{n}"


def test_verdict_bipartite():
    v = verdict(complete_bipartite(3, 3))
    assert isinstance(v, Embeddable)
    assert format_decomposition(v.group) == "F_3 x F_3"


def test_verdict_path():
    v = verdict(path_graph(3))
    assert isinstance(v, Embeddable)
    assert format_decomposition(v.group) == "Z^1 x F_2"


def test_verdict_group_is_canonical():
    rng = random.Random(4)
    for trial in range(80):
        g = random_nb_graph(rng.randint(1, 10), seed=trial + 50)
        v = verdict(g)
        assert isinstance(v, Embeddable)
        assert reference_canonical_form(v.group) == v.group


def test_rank_sum_equals_vertex_count():
    rng = random.Random(11)
    for trial in range(100):
        n = rng.randint(1, 12)
        g = random_nb_graph(n, seed=trial + 300)
        v = verdict(g)
        assert isinstance(v, Embeddable)
        assert total_rank(v.group) == n
        raw = reference_decompose(v.partition)
        assert total_rank(raw) == n


def test_presentation_one_edge():
    g = forbidden_pattern_graph()
    assert emit_presentation(g) == "⟨x0,x1,x2 | x0x1=x1x0⟩"


def test_presentation_free_group():
    assert emit_presentation(empty_graph(2)) == "⟨x0,x1 | ⟩"


def test_presentation_edges_in_lexicographic_order():
    g = new_graph(3, [(1, 2), (0, 2), (0, 1)])
    assert emit_presentation(g) == "⟨x0,x1,x2 | x0x1=x1x0,x0x2=x2x0,x1x2=x2x1⟩"


@given(st.integers(0, 6))
@settings(max_examples=20)
def test_presentation_relation_count_matches_edges(n):
    g = complete_graph(n)
    text = emit_presentation(g)
    assert text.count("=") == edge_count(g)
