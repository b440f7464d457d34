"""Exhaustive cross-check of the three deciders at seven vertices.

Slow (about a minute on one core), so it is marked ``slow`` and left out of
the default run; select it with ``python -m pytest -m slow``.
"""

import pytest

from raagv import cross_check


@pytest.mark.slow
def test_all_graphs_on_seven_vertices():
    report = cross_check(7)
    assert report.total_graphs == 2_097_152
    assert report.nb_count == report.gp_count == 877  # Bell(7)
    assert report.mismatches == ()
