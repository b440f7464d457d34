"""The one-pass parser, the graph6 codec and the row walks against the
references in helpers.

``parse_edge_list`` must return the same graph and labels as the two-pass
reference, or raise ``ParseError`` with the same message, on fuzzed text.
The graph6 codec must agree with the per-bit reference wherever that one
works: n <= 62 and input that does not start with ``~``.  The triple scan,
the edge-list writer and the presentation writer must give exactly the
reference output on every graph with at most six vertices and on seeded
large near misses.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagv import (
    LabelMap,
    ParseError,
    emit_edge_list,
    emit_graph6,
    emit_presentation,
    find_forbidden_triple,
    parse_edge_list,
    parse_graph6,
)
from raagv.harness import enumerate_graphs, random_graph, random_nb_graph

from helpers import (
    near_misses,
    reference_emit_edge_list,
    reference_emit_graph6,
    reference_emit_presentation,
    reference_find_forbidden_triple,
    reference_parse_edge_list,
    reference_parse_graph6,
)


def outcome(parse, text: str):
    try:
        g, labels = parse(text)
    except ParseError as exc:
        return "error", str(exc)
    return g.n, g.adj, labels.labels


# Fragments the fuzzed texts are made of: directives, default and
# non-default labels (``01`` and ``+1`` read as integers but are not the
# vertex numbers ``str`` writes), comments, and separators that split lines
# (``\r``) or only tokens (``\x0c``, ``\x1f``, U+2028, the ideographic space).
PIECES = (
    "n", "e", "0", "1", "2", "3", "4", "01", "+1", "a", "b", "x",
    " ", " ", "\t", "\n", "\n", "\r", "\r\n", "\x0c", "\x1f", "\u2028", "　", "#",
    "e 0 1\n", "e 1 2\n", "e 2 0\n", "e 3 3\n", "e a b\n", "e b x\n", "n 2\n",
)
HEADERS = ("", "n 0\n", "n 2\n", "n 3\n", "n 5\n", "# c\nn 4 # four\n", "\n n\x1f3\r")


def fuzz_text(rng: random.Random) -> str:
    return rng.choice(HEADERS) + "".join(rng.choices(PIECES, k=rng.randrange(25)))


fuzzed_texts = st.builds(
    lambda header, pieces: header + "".join(pieces),
    st.sampled_from(HEADERS),
    st.lists(st.sampled_from(PIECES), max_size=30),
)


@settings(max_examples=500, deadline=None)
@given(fuzzed_texts)
def test_parser_agrees_with_reference_on_fuzzed_text(text):
    assert outcome(parse_edge_list, text) == outcome(reference_parse_edge_list, text)


def test_parser_agrees_with_reference_on_seeded_fuzz():
    rng = random.Random(2024)
    routes = set()
    for _ in range(20_000):
        text = fuzz_text(rng)
        got = outcome(parse_edge_list, text)
        assert got == outcome(reference_parse_edge_list, text), text
        routes.add(got[0] if got[0] == "error" else "graph")
    assert routes == {"error", "graph"}


def test_syntax_error_beats_an_earlier_loop():
    text = "n 3\ne 1 1\ne 0 2\nx 1\n"
    with pytest.raises(ParseError, match=r"^line 4: unknown directive 'x'$"):
        parse_edge_list(text)
    assert outcome(parse_edge_list, text) == outcome(reference_parse_edge_list, text)


def test_label_count_beats_an_earlier_loop():
    text = "n 2\ne 0 0\ne a b\n"
    with pytest.raises(ParseError, match=r"^line 3: label 'b' is the 3-th distinct label"):
        parse_edge_list(text)
    assert outcome(parse_edge_list, text) == outcome(reference_parse_edge_list, text)


def test_first_loop_is_named_after_the_pass():
    text = "n 4\ne 0 1\ne 2 2\ne 1 3\ne 3 3\n"
    with pytest.raises(ParseError, match=r"^line 3: loop edge on '2'$"):
        parse_edge_list(text)


def test_late_non_default_label_takes_the_label_path():
    # the first two edge lines read as vertex numbers; "x" on the third
    # renumbers every label in order of first appearance
    g, labels = parse_edge_list("n 4\ne 1 0\ne 0 2\ne x 2\n")
    assert labels.labels == ("1", "0", "2", "x")
    assert g.adj == (0b0010, 0b0101, 0b1010, 0b0100)
    text = "n 4\ne 1 0\ne 0 2\ne x 2\n"
    assert outcome(parse_edge_list, text) == outcome(reference_parse_edge_list, text)


def test_label_whitespace_rule_matches_isspace():
    # LabelMap rejects a label exactly when it is empty or holds a character
    # for which str.isspace() is true
    for cp in range(0x110000):
        c = chr(cp)
        if c.isspace():
            for label in (c, f"a{c}b"):
                with pytest.raises(ValueError, match="empty or contains whitespace"):
                    LabelMap((label,))
    assert LabelMap(("a​b", "\x00", "、")).labels == ("a​b", "\x00", "、")
    with pytest.raises(ValueError, match="empty or contains whitespace"):
        LabelMap(("",))


def large_graphs(n: int):
    """G(n, 1/2), a pattern-free member and its two near misses."""
    rng = random.Random(n)
    member = random_nb_graph(n, seed=n)
    return (random_graph(n, 0.5, seed=n), member, *near_misses(member, rng))


def test_row_walks_agree_on_every_graph_up_to_six_vertices():
    for n in range(7):
        for g in enumerate_graphs(n):
            assert find_forbidden_triple(g) == reference_find_forbidden_triple(g)
            assert emit_edge_list(g) == reference_emit_edge_list(g)
            assert emit_presentation(g) == reference_emit_presentation(g)


@pytest.mark.parametrize("n", [200, 1000])
def test_row_walks_agree_on_large_near_misses(n):
    for g in large_graphs(n):
        assert find_forbidden_triple(g) == reference_find_forbidden_triple(g)
        assert emit_edge_list(g) == reference_emit_edge_list(g)


def test_large_round_trips_agree_with_reference():
    for g in large_graphs(200):
        assert emit_presentation(g) == reference_emit_presentation(g)
        assert parse_edge_list(emit_edge_list(g)) == (g, LabelMap.default(g.n))
        labels = LabelMap(tuple(f"v{v}" for v in range(g.n)))
        text = emit_edge_list(g, labels)
        assert text == reference_emit_edge_list(g, labels)
        assert parse_edge_list(text) == reference_parse_edge_list(text)


# ----------------------------------------------------------------- graph6

def g6_outcome(data):
    """What both codecs say about ``data``: the graph or the error text."""
    got = []
    for parse in (parse_graph6, reference_parse_graph6):
        try:
            got.append(parse(data))
        except ParseError as exc:
            got.append(("error", str(exc)))
    assert got[0] == got[1], data
    return got[0]


def test_graph6_agrees_with_reference_on_every_graph_up_to_six_vertices():
    for n in range(7):
        for g in enumerate_graphs(n):
            text = emit_graph6(g)
            assert text == reference_emit_graph6(g)
            assert g6_outcome(text) == g


def test_graph6_agrees_with_reference_on_seeded_graphs_up_to_62_vertices():
    rng = random.Random(62)
    for seed in range(1000):
        n = rng.randint(7, 62)
        g = random_graph(n, rng.random(), seed) if seed % 2 else random_nb_graph(n, seed)
        text = emit_graph6(g)
        assert text == reference_emit_graph6(g)
        assert g6_outcome(text) == g6_outcome(text.encode()) == g


# what a mutation puts into a graph6 string: printable graph6 bytes (`~` too,
# but never first), whitespace, control and out-of-range bytes, non-ASCII text
G6_CHARS = [chr(c) for c in range(63, 127)] * 2 + list(" \t\n\r\x00\x1f>@_`}é€")


def fuzz_graph6(rng: random.Random, bases: list[str]) -> str:
    if rng.random() < 0.2:
        return "".join(rng.choices(G6_CHARS, k=rng.randrange(6)))
    chars = list(rng.choice(bases))
    for _ in range(rng.randrange(4)):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0:
            chars.insert(i, rng.choice(G6_CHARS))
        elif chars:
            i = min(i, len(chars) - 1)
            if op == 1:
                del chars[i]
            else:
                chars[i] = rng.choice(G6_CHARS)
    return "".join(chars)


def test_graph6_agrees_with_reference_on_seeded_fuzz():
    rng = random.Random(6)
    sizes = [rng.randrange(13) for _ in range(490)] + [rng.randrange(13, 63) for _ in range(10)]
    bases = [emit_graph6(random_graph(n, rng.random(), seed)) for seed, n in enumerate(sizes)]
    seen = 0
    routes = set()
    while seen < 100_000:
        text = fuzz_graph6(rng, bases)
        if text.startswith("~"):
            continue
        seen += 1
        got = g6_outcome(text)
        if text.isascii():
            assert g6_outcome(text.encode()) == got
        else:
            assert g6_outcome(text.encode()) == ("error", "graph6 input is not ASCII")
        routes.add(" ".join(got[1].split()[:2]) if isinstance(got, tuple) else "graph")
    assert routes == {"graph", "empty graph6", "graph6 byte", "graph6 body", "graph6 padding"}


graph6_like = st.builds(
    lambda head, body: head + body,
    st.sampled_from(["", "~", "~~", "~??", "~~?????"]),
    st.text(st.characters(min_codepoint=62, max_codepoint=127), max_size=40),
)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.binary(max_size=40), st.text(max_size=40), graph6_like, graph6_like.map(str.encode)))
def test_graph6_raises_only_parse_error_and_accepted_input_round_trips(data):
    try:
        g = parse_graph6(data)
    except ParseError:
        return
    assert emit_graph6(g) == (data if isinstance(data, str) else data.decode("ascii"))


@pytest.mark.parametrize("n", [63, 64, 1000, 4000])
def test_graph6_round_trips_beyond_the_single_byte_size(n):
    rng = random.Random(n)
    member = random_nb_graph(n, seed=n)
    cases = [member, *near_misses(member, rng)]
    if n <= 1000:
        cases.append(random_graph(n, 0.5, seed=n))
    for g in cases:
        text = emit_graph6(g)
        assert text[:4] == "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
        assert len(text) == 4 + (n * (n - 1) // 2 + 5) // 6
        assert parse_graph6(text) == parse_graph6(text.encode()) == g
