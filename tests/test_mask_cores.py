"""Each public decider against the private mask core it wraps.

``harness.cross_check`` reads only the cores' decisions, so a core and its
wrapper must never part: the core decides exactly when the public result
has the positive type, and the public result carries exactly the core's
data, the same triple and the same blocks in the same order.  The greedy
core decides by "no failing row", which is what ``validate_partition``
tests on the blocks it cut.
"""

import random

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
from raagv.harness import enumerate_graphs, random_nb_graph
from raagv.partition import _greedy_cuts

from helpers import boundary_graphs, near_misses, reference_find_forbidden_triple, two_phase_cuts


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


def behind_a_spent_budget(h: Graph) -> Graph:
    """K_{20,20} on 0..39, then h on 40 and up, each vertex of h joined to
    all 40.  The prefix starts no witness, so the least witness is h's
    shifted by 40, and rows 0, 1 and 2 reject 60 + 3 * h.n neighbours, more
    than the scan's budget of 56 + h.n, so h is scanned past it."""
    left = (1 << 20) - 1
    right = left << 20
    joined = ((1 << h.n) - 1) << 40
    prefix = (right | joined,) * 20 + (left | joined,) * 20
    return Graph(40 + h.n, prefix + tuple(row << 40 | left | right for row in h.adj))


class CountingRows(tuple):
    """Adjacency rows that count their reads by index.  The triple scan reads
    a row by index for each neighbour b it tests and, past its budget, for
    each non-neighbour c whose row it ANDs."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_the_prefix_spends_the_budget_and_then_skips_its_twins():
    # rows 0, 1 and 2 test their 20 neighbours each; rows 3..19 are twins of
    # row 2, row 20 has no upper neighbour, and rows 21..39 are its twins
    rows = CountingRows(behind_a_spent_budget(Graph(0, ())).adj)
    assert _least_triple(rows) is None
    assert rows.reads == 60


@pytest.mark.parametrize("n", range(9))
def test_triple_scan_past_its_budget_agrees_with_the_reference(n):
    # every graph of up to six vertices, then the boundary graphs at seven
    # and eight: past the budget the scan skips twin rows and takes each
    # row's cheaper side, which must name the same least witness
    hs = enumerate_graphs(n) if n <= 6 else (g for g, _ in boundary_graphs(n))
    for h in hs:
        witness = reference_find_forbidden_triple(h)
        expected = None if witness is None else (witness.a + 40, witness.b + 40, witness.c + 40)
        assert _least_triple(behind_a_spent_budget(h).adj) == expected, h


@pytest.mark.parametrize("n", [200, 1000, 4000])
def test_triple_scan_skips_twins_once_its_budget_is_spent(n):
    # the plain scan may reject n + 16 neighbours, plus the rest of the row
    # that spends the budget; a member would otherwise test every edge, over
    # n * n / 4 of them.  The interleaved K_{n/2,n/2} has one row per part,
    # each with n / 2 - 1 vertices outside: without the twin skip, every row
    # would read up to n / 2 rows
    odds = int("10" * (n // 2), 2)
    for member in (random_nb_graph(n, seed=n), Graph(n, (odds, odds >> 1) * (n // 2))):
        for g in (member, *near_misses(member, random.Random(n))):
            rows = CountingRows(g.adj)
            triple = _least_triple(rows)
            # members, and near misses that stay pattern-free, have no witness
            assert (triple is None) == (recognize_multipartite(g) is not None)
            assert triple is None or ForbiddenTriple(*triple).holds_in(g)
            assert rows.reads <= 3 * n + 16
