"""The three deciders on every member of the class at order n and on every
single-pair flip of it, where the class boundary runs.

The expected counts come from the construction, not from the program.  There
are Bell(n) members.  A flip stays pattern-free exactly when it joins the two
vertices of a two-vertex part, which both become universal, or separates two
universal vertices, which become a part.  So a partition π contributes
#two-vertex blocks(π) + C(#singletons(π), 2) pattern-free flips.
"""

from collections import Counter
from math import comb

import pytest

from helpers import boundary_sweep, restricted_growth_strings

BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147)


def predicted_flips(n: int) -> int:
    total = 0
    for rgs in restricted_growth_strings(n):
        block_sizes = Counter(Counter(rgs).values())
        total += block_sizes[2] + comb(block_sizes[1], 2)
    return total


def check_boundary(n: int) -> tuple[int, int]:
    members, flips, bad = boundary_sweep(n)
    assert bad == []
    assert members == BELL[n]
    assert flips == predicted_flips(n)
    return members, flips


@pytest.mark.parametrize("n", range(9))
def test_boundary_sweep(n):
    counts = check_boundary(n)
    if n == 8:
        assert counts == (4140, 11368)


@pytest.mark.slow
def test_boundary_sweep_at_nine():
    assert check_boundary(9) == (21147, 63144)
