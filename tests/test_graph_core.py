import copy
import pickle
import random

import pytest
from hypothesis import given

from raagv import (
    CommutingPartition,
    CrossCheckReport,
    Embeddable,
    ForbiddenTriple,
    Graph,
    GroupDecomposition,
    GroupModel,
    InternalEdge,
    LabelMap,
    Letter,
    Mismatch,
    MissingCrossEdge,
    NormalForm,
    WrongP0,
    canonical_partition,
    group_model,
    new_graph,
    normal_form,
    universal_vertices,
)
from raagv.graphs import _bits
from raagv.harness import random_graph, random_nb_graph
from raagv.matrixrep import MatrixImage, evaluate_word

from helpers import (
    complement,
    complete_graph,
    connected_components,
    cycle_graph,
    eccentricity,
    edge_count,
    empty_graph,
    graph_edges,
    graphs,
    is_clique,
    path_graph,
    random_word,
    reference_bits,
    reference_edges,
    slow_eccentricity,
)


def test_new_graph_rejects_loops():
    with pytest.raises(ValueError):
        new_graph(3, [(1, 1)])


def test_new_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        new_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        new_graph(2, [(-1, 0)])
    with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
        new_graph(-1, [])


def test_new_graph_collapses_duplicates():
    g = new_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert edge_count(g) == 1
    assert list(graph_edges(g)) == [(0, 1)]


_PARTITION = CommutingPartition(frozenset({0}), (frozenset({1, 2}),))
_MISMATCH = Mismatch(5, True, False, True)


# Each value type: its fields in order, the repr they give, and for the four
# checked types, fields that fail the check with the check's message.
RECORDS = [
    (Graph, {"n": 3, "adj": (2, 1, 0)}, "Graph(n=3, adj=(2, 1, 0))", None),
    (
        CommutingPartition, {"p0": frozenset({0}), "parts": (frozenset({1, 2}),)},
        "CommutingPartition(p0=frozenset({0}), parts=(frozenset({1, 2}),))",
        ({"parts": (frozenset(),)}, "parts must be nonempty"),
    ),
    (
        ForbiddenTriple, {"a": 0, "b": 2, "c": 1}, "ForbiddenTriple(a=0, b=2, c=1)",
        ({"a": 3}, "normalized with a < b"),
    ),
    (LabelMap, {"labels": ("a", "b")}, "LabelMap(labels=('a', 'b'))", ({"labels": ("a", "a")}, "unique")),
    (
        GroupDecomposition, {"abelian_rank": 1, "free_ranks": (3, 2)},
        "GroupDecomposition(abelian_rank=1, free_ranks=(3, 2))",
        ({"abelian_rank": -1}, "nonnegative"),
    ),
    (
        Embeddable, {"partition": _PARTITION, "group": GroupDecomposition(1, (2,))},
        f"Embeddable(partition={_PARTITION!r}, group=GroupDecomposition(abelian_rank=1, free_ranks=(2,)))",
        None,
    ),
    (InternalEdge, {"u": 1, "v": 2, "part": 1}, "InternalEdge(u=1, v=2, part=1)", None),
    (
        MissingCrossEdge, {"u": 0, "v": 3, "blocks": (1, 2)},
        "MissingCrossEdge(u=0, v=3, blocks=(1, 2))", None,
    ),
    (WrongP0, {"vertex": 3, "should_be_in_p0": True}, "WrongP0(vertex=3, should_be_in_p0=True)", None),
    (
        Mismatch, {"code": 5, "triple_free": True, "greedy_ok": False, "multipartite_ok": True},
        "Mismatch(code=5, triple_free=True, greedy_ok=False, multipartite_ok=True)", None,
    ),
    (
        CrossCheckReport,
        {"n": 3, "total_graphs": 8, "nb_count": 5, "gp_count": 5, "mismatches": (_MISMATCH,)},
        f"CrossCheckReport(n=3, total_graphs=8, nb_count=5, gp_count=5, mismatches=({_MISMATCH!r},))",
        None,
    ),
    (
        NormalForm, {"abelian_exponents": ((0, 1),), "part_words": ((Letter(1, 1),), ())},
        "NormalForm(abelian_exponents=((0, 1),), part_words=((Letter(vertex=1, sign=1),), ()))",
        None,
    ),
    (
        GroupModel, {"owner": (-1, 0, 0), "p0": (0,), "part_count": 1},
        "GroupModel(owner=(-1, 0, 0), p0=(0,), part_count=1)", None,
    ),
    (
        MatrixImage, {"exponents": ((0, -2),), "part_matrices": (((1, 2), (0, 1)),)},
        "MatrixImage(exponents=((0, -2),), part_matrices=(((1, 2), (0, 1)),))", None,
    ),
]


@pytest.mark.parametrize("cls, fields, text, invalid", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, fields, text, invalid):
    value = cls(*fields.values())
    first, *rest = fields.items()  # the first field by position, the others by keyword
    assert value == cls(**fields) == cls(first[1], **dict(rest))
    assert vars(value) == fields and list(vars(value)) == list(fields)
    # the hash of the field tuple, as a frozen dataclass has it, so set and dict order stay
    assert hash(value) == hash(cls(**fields)) == hash(tuple(fields.values()))
    assert value != tuple(fields.values())
    assert repr(value) == text and cls.__match_args__ == tuple(fields)
    with pytest.raises(TypeError):
        cls(*fields.values(), 0)
    with pytest.raises(TypeError):
        cls(**fields, extra=0)
    for name in fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 5)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.other = 5
    assert vars(value) == fields
    copies = [pickle.loads(pickle.dumps(value, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in (*copies, copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value and hash(copied) == hash(value)
        assert vars(copied) == fields
    if invalid is not None:  # the check runs for fields given by keyword or by position
        bad, message = invalid
        with pytest.raises(ValueError, match=message):
            cls(**{**fields, **bad})
        with pytest.raises(ValueError, match=message):
            cls(*{**fields, **bad}.values())


def test_graph_is_immutable():
    g = new_graph(2, [(0, 1)])
    with pytest.raises(AttributeError, match="^cannot assign to field 'n'$"):
        g.n = 5
    assert g == new_graph(2, [(0, 1)])


# Graph has a hand-written constructor and ForbiddenTriple the record base's;
# both keep what they had as frozen dataclasses.
@pytest.mark.parametrize(
    "value, fields, text",
    [
        (Graph(3, (2, 1, 0)), {"n": 3, "adj": (2, 1, 0)}, "Graph(n=3, adj=(2, 1, 0))"),
        (ForbiddenTriple(0, 2, 1), {"a": 0, "b": 2, "c": 1}, "ForbiddenTriple(a=0, b=2, c=1)"),
    ],
    ids=["Graph", "ForbiddenTriple"],
)
def test_result_constructors_keep_dataclass_behaviour(value, fields, text):
    by_keywords = type(value)(**fields)
    assert value == by_keywords and hash(value) == hash(by_keywords)
    assert vars(value) == fields
    assert repr(value) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 5)
    assert type(value)(**vars(value)) == value
    copied = pickle.loads(pickle.dumps(value))
    assert copied == value and hash(copied) == hash(value)


def test_triple_replace_revalidates():
    t = ForbiddenTriple(0, 2, 1)
    with pytest.raises(ValueError, match="pairwise distinct"):
        ForbiddenTriple(**{**vars(t), "a": t.b})
    with pytest.raises(ValueError, match="normalized with a < b"):
        ForbiddenTriple(**{**vars(t), "a": 3})
    assert ForbiddenTriple(**{**vars(t), "c": 3}) == ForbiddenTriple(0, 2, 3)
    g = new_graph(2, [])
    assert Graph(**{**vars(g), "adj": (2, 1)}) == new_graph(2, [(0, 1)])


@pytest.mark.parametrize(
    "triple, g",
    [
        (ForbiddenTriple(0, 1, 5), new_graph(2, [(0, 1)])),
        (ForbiddenTriple(-1, 2, 0), new_graph(4, [(0, 1), (2, 3)])),  # row -1 would read row 3
        (ForbiddenTriple(0, 1, -1), new_graph(4, [(0, 1), (2, 3)])),  # a negative shift would raise
        (ForbiddenTriple(0, 4, 2), new_graph(4, [(0, 1), (2, 3)])),
    ],
    ids=["c-past-n", "negative-a", "negative-c", "b-past-n"],
)
def test_triple_outside_the_graph_certifies_nothing(triple, g):
    assert not triple.holds_in(g)


def test_word_model_cache_lives_in_the_graph_dict():
    g = new_graph(3, [(0, 1), (0, 2)])
    w = (Letter(1, 1), Letter(0, 1), Letter(1, -1))
    assert "_word_model" not in vars(g)
    first = normal_form(g, w)
    model = vars(g)["_word_model"]
    assert normal_form(g, w) == first and vars(g)["_word_model"] is model
    assert g == new_graph(3, [(0, 1), (0, 2)]) and hash(g) == hash(Graph(3, g.adj))


def test_kept_compiles_stay_out_of_pickles_and_copies():
    g = random_nb_graph(60, seed=1)
    p = canonical_partition(g)
    model = group_model(p)
    rng = random.Random(4)
    ws = [random_word(rng, g.n, k) for k in (0, 3, 40)]
    solved = [(normal_form(g, w), evaluate_word(p, w), model.normal_form(w)) for w in ws]
    fresh = (
        Graph(g.n, g.adj),
        CommutingPartition(p.p0, p.parts),
        GroupModel(model.owner, model.p0, model.part_count),
    )
    for value, new in zip((g, p, model), fresh):
        assert len(vars(value)) == len(vars(new)) + 1  # the compile is kept
        assert pickle.dumps(value) == pickle.dumps(new)
        for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert vars(copied) == vars(new)
    g2, p2, model2 = (pickle.loads(pickle.dumps(value)) for value in (g, p, model))
    assert [(normal_form(g2, w), evaluate_word(p2, w), model2.normal_form(w)) for w in ws] == solved


def test_eccentricity_path():
    g = path_graph(3)
    assert [eccentricity(g, v) for v in range(3)] == [2, 1, 2]


def test_eccentricity_single_vertex_is_zero():
    assert eccentricity(new_graph(1, []), 0) == 0


def test_eccentricity_disconnected_is_unreachable():
    g = new_graph(2, [])
    assert eccentricity(g, 0) is None
    assert eccentricity(g, 1) is None


def test_eccentricity_cycle():
    g = cycle_graph(5)
    assert all(eccentricity(g, v) == 2 for v in range(5))


def test_eccentricity_out_of_range():
    with pytest.raises(ValueError):
        eccentricity(new_graph(2, []), 2)


@given(graphs(max_n=7))
def test_eccentricity_matches_slow_bfs(g):
    for v in range(g.n):
        assert eccentricity(g, v) == slow_eccentricity(g, v)


def bits_cases():
    """Masks on every side of the choices ``_bits`` makes by size."""
    yield from range(512)
    for length in (63, 64, 65):
        top = 1 << length - 1
        yield from (top, top | 1, (top << 1) - 1, top | 0x5555)
    # the loop is kept while bit_count < 8 or 16 * bit_count < bit_length
    for length in range(9, 64):
        for count in (1, 7, 8, 9, length - 1, length):
            yield (1 << length - 1) | (1 << count - 1) - 1
    for length in (64, 65, 127, 128, 129, 1000, 4096):
        for count in (length // 16 - 1, length // 16, length // 16 + 1):
            yield (1 << length - 1) | (1 << count - 1) - 1
    yield from (0, 1 << 65535, (1 << 65536) - 1)
    rng = random.Random(11)
    for length in (70, 300, 1000, 5000):
        for density in (1 / 64, 1 / 16, 1 / 15, 1 / 4, 1 / 2, 1):
            yield sum(1 << v for v in range(length) if rng.random() < density)


def test_bits_matches_reference_loop():
    for mask in bits_cases():
        assert _bits(mask) == reference_bits(mask), (mask.bit_length(), mask.bit_count())


@given(graphs())
def test_edges_match_reference_walk(g):
    assert list(graph_edges(g)) == list(reference_edges(g))


def test_edges_match_reference_walk_at_n300():
    # rows near the top are sparse and near the bottom dense, so both of
    # the walks _bits chooses between above 255 run
    g = random_graph(300, 0.3, seed=1)
    assert list(graph_edges(g)) == list(reference_edges(g))


def test_universal_vertices_path():
    assert universal_vertices(path_graph(3)) == {1}


def test_universal_vertices_complete():
    assert universal_vertices(complete_graph(4)) == {0, 1, 2, 3}


def test_universal_vertices_small_graphs_empty():
    assert universal_vertices(new_graph(1, [])) == frozenset()
    assert universal_vertices(new_graph(0, [])) == frozenset()


def test_universal_vertices_star():
    g = new_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert universal_vertices(g) == {0}


@given(graphs(max_n=7))
def test_universal_iff_adjacent_to_all_others(g):
    # independent route: a direct adjacency scan, no breadth-first search
    uni = universal_vertices(g)
    for v in range(g.n):
        adjacent_to_all = g.n >= 2 and all(
            g.has_edge(v, u) for u in range(g.n) if u != v
        )
        assert (v in uni) == adjacent_to_all


def test_complement_of_cycle4_is_perfect_matching():
    co = complement(cycle_graph(4))
    assert sorted(graph_edges(co)) == [(0, 2), (1, 3)]


@given(graphs(max_n=8))
def test_complement_is_an_involution(g):
    assert complement(complement(g)) == g


@given(graphs(max_n=8))
def test_complement_has_complementary_edges(g):
    co = complement(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.has_edge(u, v) != co.has_edge(u, v)


def test_components_two_triangles():
    g = new_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert connected_components(g) == [(0, 1, 2), (3, 4, 5)]


def test_components_ordering_by_minimum_vertex():
    g = new_graph(5, [(1, 3), (2, 4)])
    assert connected_components(g) == [(0,), (1, 3), (2, 4)]


def test_components_empty_graph():
    assert connected_components(new_graph(0, [])) == []


@given(graphs(max_n=7))
def test_components_partition_and_separate(g):
    comps = connected_components(g)
    seen = [v for comp in comps for v in comp]
    assert sorted(seen) == list(range(g.n))
    owner = {v: i for i, comp in enumerate(comps) for v in comp}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                assert owner[u] == owner[v]
    # within a component, BFS from the first vertex reaches every member
    for comp in comps:
        reached = {comp[0]}
        frontier = [comp[0]]
        while frontier:
            nxt = [
                w
                for u in frontier
                for w in range(g.n)
                if g.has_edge(u, w) and w not in reached
            ]
            reached.update(nxt)
            frontier = nxt
        assert reached == set(comp)


def test_is_clique_vacuous_cases():
    g = empty_graph(4)
    assert is_clique(g, [])
    assert is_clique(g, [2])


def test_is_clique_triangle_and_path():
    g = new_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert is_clique(g, [0, 1, 2])
    assert not is_clique(g, [0, 1, 3])
    assert is_clique(g, [2, 3])


def test_is_clique_out_of_range():
    with pytest.raises(ValueError):
        is_clique(empty_graph(2), [0, 5])
