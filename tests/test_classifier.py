import random

import pytest
from hypothesis import given, settings

from raagv import (
    ForbiddenTriple,
    find_forbidden_triple,
    is_nb,
    new_graph,
    recognize_multipartite,
    validate_partition,
)
from raagv.harness import enumerate_graphs, random_nb_graph

from helpers import (
    brute_is_nb,
    brute_least_triple,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    forbidden_pattern_graph,
    graphs,
    induced_subgraph,
    path_graph,
)


def test_triple_on_smallest_obstruction():
    assert find_forbidden_triple(forbidden_pattern_graph()) == ForbiddenTriple(0, 1, 2)


def test_triple_on_pentagon():
    # frozen from the brute-force scan over all ordered triples
    assert find_forbidden_triple(cycle_graph(5)) == ForbiddenTriple(0, 1, 3)


def test_triple_absent_on_path():
    assert find_forbidden_triple(path_graph(3)) is None
    assert is_nb(path_graph(3))


def test_triple_absent_on_named_members():
    for g in (complete_graph(5), empty_graph(5), complete_bipartite(3, 3), cycle_graph(4)):
        assert is_nb(g)


def test_exhaustive_agreement_with_brute_oracle_up_to_5():
    for n in range(6):
        for g in enumerate_graphs(n):
            expected = brute_least_triple(g)
            got = find_forbidden_triple(g)
            if expected is None:
                assert got is None
                assert brute_is_nb(g)
            else:
                assert got is not None
                assert (got.a, got.b, got.c) == expected
                assert not brute_is_nb(g)


@given(graphs(max_n=8))
@settings(max_examples=200)
def test_random_agreement_with_brute_oracle(g):
    assert (find_forbidden_triple(g) is None) == brute_is_nb(g)


@given(graphs(max_n=8))
def test_returned_triple_certifies_the_graph(g):
    t = find_forbidden_triple(g)
    if t is not None:
        assert t.a < t.b
        assert t.holds_in(g)


def test_witness_is_deterministic():
    g = cycle_graph(6)
    assert find_forbidden_triple(g) == find_forbidden_triple(g)


def test_triple_normalization_rejected():
    for a, b, c in [(1, 1, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)]:
        # (1, 0, 1) also breaks a < b, but distinctness is checked first
        with pytest.raises(ValueError, match="pairwise distinct"):
            ForbiddenTriple(a, b, c)
    with pytest.raises(ValueError, match="normalized with a < b"):
        ForbiddenTriple(2, 1, 0)


def test_recognize_cycle4():
    p = recognize_multipartite(cycle_graph(4))
    assert p is not None
    assert p.p0 == frozenset()
    assert p.parts == (frozenset({0, 2}), frozenset({1, 3}))


def test_recognize_path3():
    p = recognize_multipartite(path_graph(3))
    assert p is not None
    assert p.p0 == {1}
    assert p.parts == (frozenset({0, 2}),)


def test_recognize_single_vertex_part_not_p0():
    p = recognize_multipartite(new_graph(1, []))
    assert p is not None
    assert p.p0 == frozenset()
    assert p.parts == (frozenset({0}),)


def test_recognize_rejects_obstruction():
    assert recognize_multipartite(forbidden_pattern_graph()) is None


def test_recognize_bipartite():
    p = recognize_multipartite(complete_bipartite(3, 3))
    assert p is not None
    assert p.p0 == frozenset()
    assert p.parts == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))


def test_recognize_parts_ordered_by_min_vertex():
    # parts {1, 4} and {0, 2, 3}: complement components
    g = new_graph(5, [(1, 0), (1, 2), (1, 3), (4, 0), (4, 2), (4, 3)])
    p = recognize_multipartite(g)
    assert p is not None
    assert [min(part) for part in p.parts] == sorted(min(part) for part in p.parts)


def test_exhaustive_recognizer_agreement_up_to_5():
    for n in range(6):
        for g in enumerate_graphs(n):
            p = recognize_multipartite(g)
            assert (p is not None) == brute_is_nb(g)
            if p is not None:
                assert validate_partition(g, p) is None


@given(graphs(max_n=8))
@settings(max_examples=150)
def test_recognizer_matches_triple_scan(g):
    assert (recognize_multipartite(g) is not None) == is_nb(g)


def test_membership_is_hereditary():
    rng = random.Random(20260817)
    for trial in range(150):
        n = rng.randint(1, 10)
        g = random_nb_graph(n, seed=trial)
        assert is_nb(g)
        keep = [v for v in range(n) if rng.random() < 0.6]
        assert is_nb(induced_subgraph(g, keep))
