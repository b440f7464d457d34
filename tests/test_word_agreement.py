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
from raagv.matrixrep import _RUN, evaluate_word

from helpers import (
    complete_graph,
    conjugated_generators,
    forbidden_pattern_graph,
    inverse,
    random_word,
    reference_evaluate_word,
    reference_graph_from_family,
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
    # lengths 0 and 1, every single run up to _RUN = 16 letters and the first tree, on one part
    assert _RUN == 16
    rng = random.Random(17)
    p = CommutingPartition(frozenset(), (frozenset({0, 1, 2}),))
    for length in range(18):
        for _ in range(3):
            w = tuple(Letter(rng.randrange(3), rng.choice((1, -1))) for _ in range(length))
            assert evaluate_word(p, w) == reference_evaluate_word(p, w)


def interleave(rng: random.Random, runs) -> tuple[Letter, ...]:
    """A random merge of the runs that keeps each run's own order."""
    rests = [run[::-1] for run in runs if run]
    w = []
    while rests:
        run = rng.choice(rests)
        w.append(run.pop())
        if not run:
            rests.remove(run)
    return tuple(w)


def test_fold_and_tree_on_both_sides_of_the_threshold():
    # the threshold is the run length; bucket lengths: none, one, both sides of
    # one run, two runs and a letter (a tree with an odd tail), and 625 runs
    lengths = (0, 1, _RUN - 1, _RUN, _RUN + 1, 2 * _RUN + 1, 10_000)
    parts = tuple(frozenset(range(2 + 3 * i, 5 + 3 * i)) for i in range(len(lengths)))
    rng = random.Random(14)
    for _ in range(10):
        runs = [
            [Letter(rng.choice(sorted(part)), rng.choice((1, -1))) for _ in range(k)]
            for part, k in zip(parts, lengths)
        ]
        p0_letter = [Letter(rng.choice((0, 1)), rng.choice((1, -1)))]
        words = [interleave(rng, runs + [p0_letter])]
        words += [interleave(rng, [run, p0_letter]) for run in runs]  # one bucket at a time
        for w in words:
            p = CommutingPartition(frozenset({0, 1}), parts)  # a new object: cold, then warm
            image = reference_evaluate_word(p, w)
            assert evaluate_word(p, w) == image
            assert evaluate_word(p, w) == image
            assert sum(e != 0 for _, e in image.exponents) == 1


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


def test_letter_shapes_agree_with_the_references():
    # two p0 vertices, a part of 300 vertices and one of two
    p = CommutingPartition(frozenset({0, 1}), (frozenset(range(2, 302)), frozenset({302, 303})))
    g = reference_graph_from_family(304, p.p0, p.parts)
    assert canonical_partition(g) == p
    rng = random.Random(25)
    every = [Letter(v, rng.choice((1, -1))) for v in range(2, 302)]  # every vertex of the big part
    rng.shuffle(every)
    base = tuple(every) + random_word(rng, 304, 300)
    p0_cancel = [Letter(0, 1), Letter(0, -1), Letter(1, -1), Letter(0, 1), Letter(0, -1), Letter(1, 1)]
    shapes = {
        "every vertex": base,
        "plain tuples": tuple(map(tuple, base)),
        "sign True": tuple((v, True) if s == 1 else (v, s) for v, s in base),
        "sign -1.0": tuple((v, -1.0) if s == -1 else (v, s) for v, s in base),
        "p0 letters cancel": interleave(rng, [every, p0_cancel * 3]),
    }
    for name, w in shapes.items():
        nf = reference_normal_form(g, tuple(Letter(v, s) for v, s in w))  # it reads .vertex
        image = reference_evaluate_word(p, w)
        for _ in range(2):  # cold, then warm
            assert normal_form(g, w) == nf, name
            assert evaluate_word(p, w) == image, name
        assert image.is_identity == nf.is_identity
    assert normal_form(g, shapes["p0 letters cancel"]).abelian_exponents == ((0, 0), (1, 0))
    assert evaluate_word(p, shapes["p0 letters cancel"]).exponents == ((0, 0), (1, 0))


def test_both_solvers_read_a_letter_alike():
    # a letter is looked up by value: a float vertex equal to a generator is
    # that generator, and a list, which has no hash, is no letter
    p = CommutingPartition(frozenset({0}), (frozenset({1, 2}), frozenset({3, 4})))
    g = reference_graph_from_family(5, p.p0, p.parts)
    w = (Letter(0, 1), Letter(1, 1), Letter(3, -1), Letter(1, -1), Letter(2, 1))
    floats = tuple((float(v), s) for v, s in w)
    assert normal_form(g, floats) == normal_form(g, w)
    assert evaluate_word(p, floats) == evaluate_word(p, w)
    # a p0 exponent sums the generators' own signs, so it stays an int
    signs = ((0, 1.0), (0, True), (0, -1.0))
    assert repr(normal_form(g, signs).abelian_exponents) == repr(((0, 1),))
    assert repr(evaluate_word(p, signs).exponents) == repr(((0, 1),))
    for bad in (([0, 1],), w + ([3, -1],)):
        with pytest.raises(TypeError, match="unhashable"):
            normal_form(g, bad)
        with pytest.raises(TypeError, match="unhashable"):
            evaluate_word(p, bad)
    # a vertex between two generators keeps the errors it always had
    with pytest.raises(TypeError, match="tuple indices must be integers"):
        normal_form(g, w + ((1.5, 1), (9, 1)))
    assert raised(evaluate_word, p, w + ((1.5, 1),)) == "letter vertex 1.5 is not covered by the partition"
    # the part words hold the model's own letters, equal to those passed in
    nf = normal_form(g, tuple(map(tuple, w)))
    assert nf == normal_form(g, w) and nf.part_words == ((Letter(2, 1),), (Letter(3, -1),))
    letters = vars(vars(g)["_word_model"])["_letters"]
    assert all(x is letters[x][1] for part_word in nf.part_words for x in part_word)


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
