"""The one-pass word solver and the closed-form matrix oracle against the
reference word path in helpers.

Agreement is exact: equal ``NormalForm`` and ``MatrixImage`` values, and the
same error text for the same bad input, on every pattern-free graph with at
most five vertices and on seeded large graphs.  Each word is checked twice,
so that both the call that compiles a graph or partition and the calls that
reuse the kept compile are compared with the uncached references.
"""

import random

import pytest

from raagv import CommutingPartition, Letter, canonical_partition, group_model, normal_form
from raagv.harness import enumerate_graphs, random_nb_graph
from raagv.matrixrep import evaluate_word

from helpers import (
    complete_graph,
    conjugated_generators,
    forbidden_pattern_graph,
    inverse,
    random_word,
    reference_evaluate_word,
    reference_normal_form,
)


def cancelling_word(rng: random.Random, n: int, length: int, pool: int = 6) -> tuple[Letter, ...]:
    """A random word over a few vertices, so that free reduction has work."""
    verts = [rng.randrange(n) for _ in range(pool)]
    return tuple(Letter(rng.choice(verts), rng.choice((1, -1))) for _ in range(length))


def assert_agree(g, p: CommutingPartition, w) -> None:
    nf = reference_normal_form(g, w)
    image = reference_evaluate_word(p, w)
    for _ in range(2):  # cold on a graph or partition not seen before, then warm
        assert normal_form(g, w) == nf
        assert evaluate_word(p, w) == image
    assert group_model(p).normal_form(w) == nf
    assert image.is_identity == nf.is_identity


def test_agreement_on_every_pattern_free_graph_up_to_five_vertices():
    rng = random.Random(501)
    graphs = 0
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            p = canonical_partition(g)
            if not isinstance(p, CommutingPartition):
                continue
            graphs += 1
            for _ in range(3):
                w = cancelling_word(rng, n, rng.randint(0, 24), pool=3)
                assert_agree(g, p, w)
                assert_agree(g, p, w + inverse(w))
            assert_agree(g, p, random_word(rng, n, 12))
    assert graphs == 1 + 2 + 5 + 15 + 52  # Bell numbers: one graph per set partition


@pytest.mark.parametrize("n, seed", [(200, 7), (1000, 8)])
def test_agreement_on_large_graphs(n, seed):
    rng = random.Random(seed)
    g = random_nb_graph(n, seed=seed)
    p = canonical_partition(g)
    assert isinstance(p, CommutingPartition)
    u = random_word(rng, n, 4_000)
    words = [
        random_word(rng, n, 10_000),
        cancelling_word(rng, n, 10_000, pool=40),
        u + cancelling_word(rng, n, 2_000) + inverse(u),
    ]
    for w in words:
        assert_agree(g, p, w)
    assert normal_form(g, words[2][4_000:6_000]).is_identity == normal_form(g, words[2]).is_identity


def test_closed_form_generators_match_matrix_products():
    r = 300
    p = CommutingPartition(frozenset(), (frozenset(range(r)),))
    for j, (gen, gen_inv) in enumerate(conjugated_generators(r)):
        assert evaluate_word(p, (Letter(j, 1),)).part_matrices == (gen,)
        assert evaluate_word(p, (Letter(j, -1),)).part_matrices == (gen_inv,)


def test_product_tree_on_every_bucket_length_up_to_seventeen():
    # lengths 0 and 1 and every odd tail of the pairwise tree, on one part
    rng = random.Random(17)
    p = CommutingPartition(frozenset(), (frozenset({0, 1, 2}),))
    for length in range(18):
        for _ in range(3):
            w = tuple(Letter(rng.randrange(3), rng.choice((1, -1))) for _ in range(length))
            assert evaluate_word(p, w) == reference_evaluate_word(p, w)


def test_product_tree_keeps_operand_order():
    p = CommutingPartition(frozenset(), (frozenset({0, 1}),))
    ab = (Letter(0, 1), Letter(1, 1))
    ba = ab[::-1]
    assert evaluate_word(p, ab) == reference_evaluate_word(p, ab)
    assert evaluate_word(p, ba) == reference_evaluate_word(p, ba)
    assert evaluate_word(p, ab) != evaluate_word(p, ba)


def test_product_tree_on_a_long_word():
    g = random_nb_graph(20, seed=1)
    p = canonical_partition(g)
    assert isinstance(p, CommutingPartition)
    assert_agree(g, p, random_word(random.Random(40), 20, 40_000))


def raised(f, *args) -> str:
    with pytest.raises(ValueError) as info:
        f(*args)
    return str(info.value)


def test_error_texts_and_precedence():
    bad = forbidden_pattern_graph()  # edge (0, 1), vertex 2 adjacent to neither
    good = random_nb_graph(6, seed=3)
    p0_only = complete_graph(4)  # every vertex universal: no part
    assert canonical_partition(p0_only).parts == ()
    valid = random_word(random.Random(9), 3, 1_000)
    for g in (bad, good, p0_only):
        for w in (
            (Letter(0, 1), Letter(7, 1)),
            (Letter(-1, 1),),
            (Letter(0, 2), Letter(9, 1)),
            (Letter(9, 1), Letter(0, 2)),
            valid + (Letter(7, 1),),
            valid + (Letter(1, 0), Letter(8, 1)),
            valid + (Letter(-4, -1),),
            (Letter(0, "1"),),  # ValueError, not TypeError
        ):
            text = raised(normal_form, g, w)
            assert text == raised(reference_normal_form, g, w)
            assert raised(normal_form, g, w) == text  # warm
            assert "pattern" not in text  # a bad letter is reported first
            assert raised(normal_form, g, tuple(map(tuple, w))) == text  # plain pairs too
    text = raised(normal_form, bad, (Letter(2, -1),))
    assert text == raised(reference_normal_form, bad, (Letter(2, -1),))
    assert text.endswith("found edge (0, 1) with vertex 2 adjacent to neither endpoint")


def test_oracle_errors():
    p = CommutingPartition(frozenset({0}), (frozenset({1, 2}),))
    for w in ((Letter(5, 1),), (Letter(0, 1), Letter(1, -1), Letter(5, -1))):
        text = raised(evaluate_word, p, w)
        assert text == raised(reference_evaluate_word, p, w)
        assert raised(evaluate_word, p, w) == text  # warm
        assert text == "letter vertex 5 is not covered by the partition"
    for w in ((Letter(0, 2),), (Letter(1, 0),)):
        assert raised(evaluate_word, p, w).startswith("letter sign must be +1 or -1")
