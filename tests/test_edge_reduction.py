"""The word solver against a reduction that never sees the partition.

``helpers.reduce_by_edges`` reduces a word from the graph's edges alone, by
the definition of a graph group: letters commute exactly when their
vertices are equal or adjacent.  The solver reads words off the commuting
partition instead, so agreement also checks the theorem that the group is
Z^|p0| x F_|P1| x ... x F_|Pk| and the partition the solver is given.  Both
the triviality flag and the normal form itself are checked: ``w`` reduces
to empty exactly when its normal form is the identity, and ``w`` times the
inverse of its normal form, written back as a word, reduces to empty.
"""

import random

import pytest

from raagv import (
    CommutingPartition, Letter, canonical_partition, find_forbidden_triple, normal_form,
)
from raagv.harness import enumerate_graphs, random_graph, random_nb_graph

from helpers import (
    cycle_graph,
    forbidden_pattern_graph,
    graph_edges,
    inverse,
    normal_form_word,
    random_word,
    reduce_by_edges,
    word,
)


def trivial_word(rng: random.Random, g, length: int) -> tuple[Letter, ...]:
    """u · u⁻¹ with relators of g inserted at random places: a letter and
    its inverse, or the commutator of an edge."""
    u = random_word(rng, g.n, length // 4)
    letters = list(u + inverse(u))
    edges = list(graph_edges(g))
    while len(letters) < length:
        s = rng.choice((1, -1))
        if edges and rng.random() < 0.5:
            a, b = rng.choice(edges)
            relator = [Letter(a, s), Letter(b, 1), Letter(a, -s), Letter(b, -1)]
        else:
            v = rng.randrange(g.n)
            relator = [Letter(v, s), Letter(v, -s)]
        at = rng.randint(0, len(letters))
        letters[at:at] = relator
    return tuple(letters)


def sample_words(rng: random.Random, g, length: int) -> list[tuple[Letter, ...]]:
    """Trivial words, the same with one letter dropped, and random words
    over a few vertices, so both answers occur."""
    out = []
    for _ in range(3):
        w = trivial_word(rng, g, length)
        at = rng.randrange(len(w))
        out += [w, w[:at] + w[at + 1 :]]
        pool = [rng.randrange(g.n) for _ in range(3)]
        out.append(tuple(Letter(rng.choice(pool), rng.choice((1, -1))) for _ in range(length)))
    return out


def assert_agree(g, w) -> bool:
    nf = normal_form(g, w)
    assert (reduce_by_edges(g, w) == ()) == nf.is_identity
    assert reduce_by_edges(g, w + inverse(normal_form_word(nf))) == ()
    return nf.is_identity


def test_agreement_on_every_pattern_free_graph_up_to_five_vertices():
    rng = random.Random(9)
    graphs = trivial = nontrivial = 0
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            if not isinstance(canonical_partition(g), CommutingPartition):
                continue
            graphs += 1
            for w in sample_words(rng, g, rng.randint(4, 40)):
                if assert_agree(g, w):
                    trivial += 1
                else:
                    nontrivial += 1
    assert graphs == 1 + 2 + 5 + 15 + 52  # Bell numbers: one graph per set partition
    assert trivial > 200 and nontrivial > 200


@pytest.mark.parametrize("seed", [1, 2])
def test_agreement_on_members_at_two_hundred_vertices(seed):
    rng = random.Random(seed)
    g = random_nb_graph(200, seed=seed)
    results = [assert_agree(g, w) for w in sample_words(rng, g, 300)]
    assert True in results and False in results


@pytest.mark.parametrize(
    "g", [forbidden_pattern_graph(), cycle_graph(5), random_graph(30, 0.5, seed=4)],
    ids=["one-edge-triple", "pentagon", "random-30"],
)
def test_commutators_on_a_graph_with_the_pattern(g):
    t = find_forbidden_triple(g)
    assert t is not None
    a, b, c = t.a, t.b, t.c
    assert reduce_by_edges(g, word([(a, 1), (b, 1), (a, -1), (b, -1)])) == ()
    assert reduce_by_edges(g, word([(c, 1), (a, 1), (c, -1), (a, -1)])) != ()


def test_reduction_of_a_square():
    # the 4-cycle 0-1-2-3: 0 and 2 commute with 1 and 3, not with each other
    g = cycle_graph(4)
    assert reduce_by_edges(g, word([(0, 1), (1, 1), (0, -1)])) == word([(1, 1)])
    assert reduce_by_edges(g, word([(0, 1), (2, 1), (0, -1)])) == word([(0, 1), (2, 1), (0, -1)])
    assert reduce_by_edges(g, word([(0, 1), (1, 1), (3, -1), (0, -1), (3, 1)])) == word([(1, 1)])
