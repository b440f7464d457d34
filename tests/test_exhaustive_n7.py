"""Exhaustive checks of the deciders at seven vertices, on all 2,097,152
graphs.

Each is slow, so both are marked ``slow`` and left out of the default run;
select them with ``python -m pytest -m slow``.
"""

import pytest

from raagv import CommutingPartition, cross_check, find_forbidden_triple, greedy_partition
from raagv.harness import enumerate_graphs


@pytest.mark.slow
def test_all_graphs_on_seven_vertices():
    """The three deciders agree (about 12 s on one core of a 2-vCPU Xeon
    guest with Python 3.11)."""
    report = cross_check(7)
    assert report.total_graphs == 2_097_152
    assert report.nb_count == report.gp_count == 877  # Bell(7)
    assert report.mismatches == ()


@pytest.mark.slow
def test_greedy_witnesses_on_seven_vertices():
    """``cross_check`` reads only the greedy core's decision, so the public
    builder's witnesses are checked here: it returns a partition exactly
    when the triple scan finds no triple, and every witness it returns holds
    in its graph (about 18 s on the same guest)."""
    partitions = 0
    for g in enumerate_graphs(7):
        greedy = greedy_partition(g)
        if isinstance(greedy, CommutingPartition):
            assert find_forbidden_triple(g) is None, g
            partitions += 1
        else:
            assert find_forbidden_triple(g) is not None and greedy.holds_in(g), g
    assert partitions == 877
