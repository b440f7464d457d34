import gc
import operator
import random
import sys
import weakref

import pytest
from hypothesis import given, settings

from raagv import (
    CommutingPartition,
    Graph,
    Letter,
    canonical_partition,
    format_word,
    group_model,
    is_trivial,
    new_graph,
    normal_form,
    parse_word,
    validate_partition,
)
from raagv import words
from raagv.harness import random_nb_graph
from raagv.matrixrep import IDENTITY, evaluate_word

from helpers import (
    abstract_words,
    block_family,
    conjugated_generators,
    cycle_graph,
    forbidden_pattern_graph,
    free_reduce,
    inverse,
    mat_mul,
    matrix_is_trivial,
    path_graph,
    project,
    random_word,
    word,
)


def W(text, n=20):
    return parse_word(text, n)


def test_free_reduce_cancels_simple_pair():
    assert free_reduce(W("1 -1")) == ()


def test_free_reduce_cascades():
    assert free_reduce(W("1 2 -2 -1")) == ()
    assert free_reduce(W("1 2 3 -3 -2 4")) == W("1 4")


def test_free_reduce_keeps_reduced_words():
    assert free_reduce(W("1 2 -1")) == W("1 2 -1")
    assert free_reduce(W("1 1")) == W("1 1")


@given(abstract_words())
def test_free_reduce_is_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r


@given(abstract_words())
def test_free_reduce_leaves_no_cancelling_pair(w):
    r = free_reduce(w)
    for x, y in zip(r, r[1:]):
        assert not (x.vertex == y.vertex and x.sign == -y.sign)
    assert (len(w) - len(r)) % 2 == 0
    assert len(r) <= len(w)


@given(abstract_words())
def test_word_times_inverse_reduces_to_identity(w):
    assert free_reduce(w + inverse(w)) == ()


def test_project_filters_subsequence():
    w = W("1 3 -1 2")
    assert project(w, {0, 2}) == W("1 3 -1")
    assert project(w, {1}) == W("2")
    assert project(w, set()) == ()


def test_normal_form_path_abelian_exponent():
    nf = normal_form(path_graph(3), W("2 2", n=3))
    assert nf.abelian_exponents == ((1, 2),)
    assert nf.part_words == ((),)
    assert not nf.is_identity


def test_normal_form_lists_all_p0_vertices():
    nf = normal_form(path_graph(3), ())
    assert nf.abelian_exponents == ((1, 0),)
    assert nf.is_identity


def test_adjacent_commutator_is_trivial():
    g = cycle_graph(4)
    assert is_trivial(g, W("1 2 -1 -2", n=4))


def test_same_part_commutator_is_nontrivial():
    g = cycle_graph(4)
    assert not is_trivial(g, W("1 3 -1 -3", n=4))


def test_wrong_graph_is_rejected():
    with pytest.raises(ValueError):
        normal_form(forbidden_pattern_graph(), W("1", n=3))


def test_letters_validated():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        normal_form(g, (Letter(7, 1),))
    with pytest.raises(ValueError):
        normal_form(g, (Letter(0, 2),))
    with pytest.raises(ValueError):
        word([(0, 0)])


def test_parse_word_round_trip():
    w = W("1 3 -1 -3")
    assert format_word(w) == "1 3 -1 -3"
    assert parse_word(format_word(w), 20) == w


def test_parse_word_rejections():
    with pytest.raises(ValueError):
        parse_word("0", 3)
    with pytest.raises(ValueError):
        parse_word("4", 3)
    with pytest.raises(ValueError):
        parse_word("x", 3)
    # int() takes the first four of these; the word syntax takes none
    for token in ("1_0", "\u0663", "+\u0663", "\uff11", "+-1", "--1", "1.0", "0x1"):
        with pytest.raises(ValueError, match="is not a signed integer"):
            parse_word(token, 12)


def test_parse_word_beyond_the_int_digit_limit():
    # int() refuses strings of over 4300 digits; the length is judged first
    for digits in ("9" * 4300, "9" * 4301):
        with pytest.raises(ValueError) as info:
            parse_word(digits, 3)
        assert str(info.value) == (
            f"generator {'9' * 32}... ({len(digits)} characters) exceeds the vertex count 3"
        )
    assert parse_word("-" + "0" * 5000 + "2", 3) == (Letter(1, -1),)
    assert parse_word("+007 -0003", 7) == (Letter(6, 1), Letter(2, -1))
    with pytest.raises(ValueError, match="0 is invalid"):
        parse_word("-" + "0" * 5000, 3)


def test_parse_word_error_echo_is_capped():
    texts = {
        "9" * 32: f"generator {'9' * 32} exceeds the vertex count 3",
        "-00" + "9" * 33: f"generator {'9' * 32}... (33 characters) exceeds the vertex count 3",
        "x" * 32: f"word token '{'x' * 32}' is not a signed integer",
        "1" + "x" * 32: f"word token '1{'x' * 31}'... (33 characters) is not a signed integer",
    }
    for token, text in texts.items():
        with pytest.raises(ValueError) as info:
            parse_word("1 " + token, 3)
        assert str(info.value) == text


def test_empty_word_is_trivial():
    assert is_trivial(cycle_graph(4), ())


def test_triviality_is_a_congruence():
    rng = random.Random(60)
    for trial in range(60):
        n = rng.randint(1, 8)
        g = random_nb_graph(n, seed=trial + 2100)
        w1 = random_word(rng, n, rng.randint(0, 8))
        w2 = random_word(rng, n, rng.randint(0, 8))
        if is_trivial(g, w1) and is_trivial(g, w2):
            assert is_trivial(g, w1 + w2)
        assert is_trivial(g, w1 + inverse(w1))
        assert is_trivial(g, w2 + inverse(w2))


def test_commutators_by_adjacency():
    rng = random.Random(61)
    for trial in range(60):
        n = rng.randint(2, 9)
        g = random_nb_graph(n, seed=trial + 2200)
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        comm = word([(u, 1), (v, 1), (u, -1), (v, -1)])
        assert is_trivial(g, comm) == g.has_edge(u, v)


# ------------------------------------- the compile kept on each graph object

class _Unhashable(Graph):
    def __hash__(self):
        raise AssertionError("the compile is found by identity, not by hashing the graph")


def test_each_graph_object_compiles_once(monkeypatch):
    runs = []
    monkeypatch.setattr(words, "canonical_partition", lambda g: runs.append(g) or canonical_partition(g))
    g = random_nb_graph(30, seed=2401)
    copy, twin = Graph(g.n, tuple(g.adj)), _Unhashable(g.n, tuple(g.adj))
    assert copy == g and copy is not g and (twin.n, twin.adj) == (g.n, g.adj)
    w = random_word(random.Random(2401), 30, 200)
    first = normal_form(g, w)
    assert normal_form(g, w) == first and is_trivial(g, w) == first.is_identity
    for other in (copy, twin):
        assert normal_form(other, w) == first and normal_form(other, w) == first
    assert runs == [g, copy, twin] and [r is g for r in runs] == [True, False, False]  # one compile per object


def test_pattern_error_is_the_same_cold_and_warm():
    g = new_graph(6, [(1, 4), (2, 3), (2, 5), (3, 5)])  # edge (1, 4), vertex 0 adjacent to neither
    texts = []
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            normal_form(g, W("1 2", n=6))
        texts.append(str(info.value))
        with pytest.raises(ValueError, match="outside 0..5"):
            normal_form(g, (Letter(0, 1), Letter(6, 1)))  # a bad letter still wins
        with pytest.raises(ValueError, match="sign must be"):
            is_trivial(g, (Letter(0, 0),))
    assert texts[0] == texts[1]
    assert texts[0].endswith("found edge (1, 4) with vertex 0 adjacent to neither endpoint")


def test_the_compiles_die_with_their_objects():
    g = random_nb_graph(25, seed=2402)
    p = canonical_partition(g)
    w = random_word(random.Random(2402), 25, 50)
    normal_form(g, w)
    evaluate_word(p, w)
    model = vars(g)["_word_model"]
    kept = model, vars(model)["_letters"], vars(p)["_oracle_table"]
    normal_form(g, w)
    evaluate_word(p, w)
    assert all(map(operator.is_, (model, vars(model)["_letters"], vars(p)["_oracle_table"]), kept))
    # a dict takes no weak reference, so the letter table is watched through
    # one of its keys: the table holds it three times (as the key and in the
    # entries of both signs of its vertex), so its count drops by three
    key = next(iter(kept[1]))
    held = sys.getrefcount(key)
    refs = weakref.ref(g), weakref.ref(p), weakref.ref(model)
    del g, p, model, kept
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
    assert sys.getrefcount(key) == held - 3


def test_oracle_table_keeps_each_part_order():
    a, b = frozenset({0, 1}), frozenset({2, 3, 4})
    p, q = CommutingPartition(frozenset(), (a, b)), CommutingPartition(frozenset(), (b, a))
    assert block_family(p) == block_family(q) and p != q
    w = W("2 3 -2 1 5 5", n=5)
    for _ in range(2):  # cold, then warm
        mp, mq = evaluate_word(p, w).part_matrices, evaluate_word(q, w).part_matrices
        assert mp == mq[::-1] and mp[0] != mp[1]


# ------------------------------------------------- matrix model internals

def test_conjugated_generator_closed_form():
    # frozen: A^j B A^-j computed by hand multiplication
    gens = conjugated_generators(3)
    assert gens[0][0] == ((1, 0), (2, 1))
    assert gens[1][0] == ((5, -8), (2, -3))
    assert gens[2][0] == ((9, -32), (2, -7))
    for gen, gen_inv in gens:
        assert mat_mul(gen, gen_inv) == IDENTITY
        (a, b), (c, d) = gen
        assert a * d - b * c == 1


def test_matrix_evaluation_of_identity_word():
    p = canonical_partition(cycle_graph(4))
    assert isinstance(p, CommutingPartition)
    img = evaluate_word(p, ())
    assert img.is_identity


def test_matrix_rejects_uncovered_vertex():
    p = CommutingPartition(frozenset({0}), (frozenset({1, 2}),))
    with pytest.raises(ValueError):
        evaluate_word(p, (Letter(5, 1),))


@pytest.mark.parametrize(
    "p0, parts, text",
    [
        ((), ({5},), "vertex 5 is outside 0..0"),  # one vertex held, so n = 1
        ((0,), ({0},), "blocks overlap"),  # 0 in p0 and in part 0
        ((0,), ({0, 1},), "blocks overlap"),  # p0 exponents would miss a letter on 0
        ((0,), ({0, 5},), "vertex 5 is outside 0..2"),  # a block's range error before its overlap
    ],
)
def test_solvers_reject_blocks_that_are_no_partition(p0, parts, text):
    p = CommutingPartition(frozenset(p0), tuple(map(frozenset, parts)))
    g = new_graph(len(p0) + sum(map(len, parts)), [])
    for call in (
        lambda: validate_partition(g, p),  # the validator's own text
        lambda: group_model(p),
        lambda: evaluate_word(p, (Letter(0, 1), Letter(0, 1))),
    ):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == text


def test_matrix_oracle_agrees_on_random_words():
    rng = random.Random(62)
    checked = 0
    for trial in range(120):
        n = rng.randint(1, 10)
        g = random_nb_graph(n, seed=trial + 2300)
        p = canonical_partition(g)
        assert isinstance(p, CommutingPartition)
        for _ in range(5):
            w = random_word(rng, n, rng.randint(0, 16))
            assert is_trivial(g, w) == matrix_is_trivial(p, w)
            checked += 1
    assert checked >= 500


@given(abstract_words(max_vertex=5, max_len=16))
@settings(max_examples=120)
def test_matrix_oracle_on_free_group_words(w):
    # empty graph on 6 vertices: one part, plain free group
    g = new_graph(6, [])
    p = canonical_partition(g)
    assert is_trivial(g, w) == matrix_is_trivial(p, w)
    assert is_trivial(g, w) == (free_reduce(w) == ())
