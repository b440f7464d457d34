"""Each public decider against the private mask core it wraps.

``harness.cross_check`` reads only the cores' decisions, so a core and its
wrapper must never part: the core decides exactly when the public result
has the positive type, and the public result carries exactly the core's
data, the same triple and the same blocks in the same order.  The greedy
core decides by "no failing row", which is what ``validate_partition``
tests on the blocks it cut.
"""

import pytest

from raagv import (
    CommutingPartition,
    ForbiddenTriple,
    Graph,
    MissingCrossEdge,
    cross_check,
    find_forbidden_triple,
    greedy_partition,
    harness,
    is_nb,
    recognize_multipartite,
    validate_partition,
)
from raagv.classify import _least_triple, _twin_blocks
from raagv.graphs import _bits
from raagv.harness import enumerate_graphs
from raagv.partition import _greedy_cuts

from helpers import boundary_graphs, two_phase_cuts


def assert_wraps_its_core(g: Graph) -> None:
    triple = _least_triple(g.adj)
    witness = find_forbidden_triple(g)
    assert is_nb(g) == (triple is None) == (witness is None)
    if triple is not None:
        assert (witness.a, witness.b, witness.c) == triple

    blocks = _twin_blocks(g.adj)
    part = recognize_multipartite(g)
    assert (blocks is None) == (part is None)
    if blocks is not None:
        p0, parts = blocks
        assert p0 == sorted(p0)
        assert all(members == tuple(sorted(members)) for members in parts)
        assert part == CommutingPartition(frozenset(p0), tuple(map(frozenset, parts)))

    p0_mask, cuts, first, inside = _greedy_cuts(g.adj)
    greedy = greedy_partition(g)
    assert isinstance(greedy, CommutingPartition) == (first == 0)
    full_p0, full_cuts = two_phase_cuts(g)
    assert cuts == full_cuts[: len(cuts)]
    assert p0_mask & ~full_p0 == 0
    if inside is None:
        # every part was cut: the cut masks are the full partition
        assert (p0_mask, cuts) == (full_p0, full_cuts)
        cut = CommutingPartition(frozenset(_bits(p0_mask)), tuple(frozenset(_bits(m)) for m in cuts))
        verdict = validate_partition(g, cut)
        if first == 0:
            assert verdict is None and greedy == cut
        else:
            assert isinstance(verdict, MissingCrossEdge) and verdict.blocks[0] == first
            assert isinstance(greedy, ForbiddenTriple) and greedy.holds_in(g)
    else:
        assert first != 0
        assert greedy == ForbiddenTriple(*inside)


def test_cores_agree_with_their_wrappers_on_every_graph_up_to_six_vertices():
    for n in range(7):
        for g in enumerate_graphs(n):
            assert_wraps_its_core(g)


@pytest.mark.parametrize("n", range(9))
def test_cores_agree_with_their_wrappers_across_the_boundary(n):
    for g, _ in boundary_graphs(n):
        assert_wraps_its_core(g)


def test_cross_check_draws_every_graph_through_the_module_generator(monkeypatch):
    # a caller may wrap harness.enumerate_graphs to stamp the clock per graph
    drawn = []
    generate = harness.enumerate_graphs

    def counted(n):
        for g in generate(n):
            drawn.append(g)
            yield g

    monkeypatch.setattr(harness, "enumerate_graphs", counted)
    report = cross_check(4)
    assert len(drawn) == report.total_graphs == 64
    assert (report.nb_count, report.gp_count, report.mismatches) == (15, 15, ())
