import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from raagv import (
    CommutingPartition,
    canonical_partition,
    cross_check,
    enumerate_graphs,
    is_nb,
    new_graph,
    random_graph,
    random_nb_graph,
    recognize_multipartite,
)
from raagv.cli import main

from helpers import (
    block_family,
    brute_is_nb,
    complete_graph,
    edge_count,
    graph_code,
    graph_edges,
    graph_from_code,
    near_misses,
    predicted_canonical_family,
    reference_graph_from_family,
    reference_random_partition_family,
)


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_graphs(0)) == 1
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(4)) == 64


def test_enumeration_order_endpoints():
    graphs = list(enumerate_graphs(3))
    assert edge_count(graphs[0]) == 0
    assert graphs[-1] == complete_graph(3)
    # code bit i toggles the i-th pair in lexicographic order
    assert list(graph_edges(graphs[1])) == [(0, 1)]
    assert list(graph_edges(graphs[2])) == [(0, 2)]


def test_enumeration_is_the_pair_by_pair_decode_in_code_order():
    # every code up to n = 6; at n = 7 and n = 8 the first three high halves,
    # and at n = 8 every row byte uses its top bit
    for n, count in [*((n, 1 << n * (n - 1) // 2) for n in range(7)), (7, 3 << 10), (8, 3 << 14)]:
        graphs = enumerate_graphs(n)
        for code in range(count):
            assert next(graphs) == graph_from_code(n, code), (n, code)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        list(enumerate_graphs(9))
    with pytest.raises(ValueError):
        list(enumerate_graphs(-1))


@given(st.integers(0, 6), st.data())
def test_graph_code_round_trip(n, data):
    npairs = n * (n - 1) // 2
    code = data.draw(st.integers(0, (1 << npairs) - 1))
    g = graph_from_code(n, code)
    assert graph_code(g) == code


def test_cross_check_small():
    r = cross_check(3)
    assert r.n == 3
    assert r.total_graphs == 8
    assert r.nb_count == 5
    assert r.gp_count == 5
    assert r.mismatches == ()


def test_cross_check_counts_match_independent_oracle():
    for n in range(1, 6):
        r = cross_check(n)
        expected = sum(1 for g in enumerate_graphs(n) if brute_is_nb(g))
        assert r.nb_count == expected
        assert r.gp_count == expected
        assert r.mismatches == ()
        assert r.total_graphs == 1 << (n * (n - 1) // 2)


@pytest.mark.parametrize("n, seed", [(4000, 4000), (300, 3), (150, 5), (120, 2), (60, 1), (30, 7)])
def test_first_near_miss_is_never_a_member(n, seed):
    member = random_nb_graph(n, seed)
    assert any(len(part) > 2 for part in recognize_multipartite(member).parts)
    for r in range(20):
        assert recognize_multipartite(near_misses(member, random.Random(r))[0]) is None, r


def test_random_graph_deterministic():
    assert random_graph(12, 0.4, seed=7) == random_graph(12, 0.4, seed=7)
    assert random_graph(12, 0.4, seed=7) != random_graph(12, 0.4, seed=8)


def test_random_graph_extreme_probabilities():
    assert edge_count(random_graph(6, 0.0, seed=1)) == 0
    assert random_graph(6, 1.0, seed=1) == complete_graph(6)


def test_random_graph_validation():
    with pytest.raises(ValueError):
        random_graph(3, 1.5, seed=0)
    with pytest.raises(ValueError):
        random_graph(-1, 0.5, seed=0)


def test_random_nb_graph_deterministic_and_pattern_free():
    for seed in range(80):
        n = seed % 12 + 1
        g = random_nb_graph(n, seed)
        assert g == random_nb_graph(n, seed)
        assert is_nb(g)


def test_graph_from_family_matches_pair_builder():
    # random_nb_graph builds its rows straight from the labels it draws: the
    # pair builder on the reference draw of the same family gives its graph
    assert reference_graph_from_family(0, frozenset(), ()) == random_nb_graph(0, seed=0)
    for n in range(1, 61):
        for seed in range(5):
            p0, parts = reference_random_partition_family(n, seed * 1000 + n)
            assert random_nb_graph(n, seed * 1000 + n) == reference_graph_from_family(n, p0, parts)


def test_random_family_round_trips_through_canonical_partition():
    for seed in range(150):
        n = seed % 11 + 1
        p0, parts = reference_random_partition_family(n, seed)
        g = reference_graph_from_family(n, p0, parts)
        assert g == random_nb_graph(n, seed)
        p = canonical_partition(g)
        assert isinstance(p, CommutingPartition)
        assert block_family(p) == predicted_canonical_family(n, p0, parts)


def test_random_partition_family_shape():
    rng = random.Random(0)
    for seed in range(50):
        n = rng.randint(1, 12)
        p0, parts = reference_random_partition_family(n, seed)
        members = list(p0) + [v for part in parts for v in part]
        assert sorted(members) == list(range(n))
        assert all(parts[i] for i in range(len(parts)))
        assert [min(p) for p in parts] == sorted(min(p) for p in parts)


def test_random_partition_family_of_no_vertices_is_empty(capsys):
    assert reference_random_partition_family(0, seed=1) == (frozenset(), ())
    assert random_nb_graph(0, seed=1) == new_graph(0, [])
    with pytest.raises(ValueError):
        reference_random_partition_family(-1, seed=1)
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        random_nb_graph(-1, seed=1)
    assert main(["random", "--n", "0"]) == 0
    plain = capsys.readouterr()
    assert main(["random", "--n", "0", "--nb"]) == 0
    assert capsys.readouterr() == plain == ("n 0\n", "")
