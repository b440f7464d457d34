import io
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagv import (
    Graph,
    LabelMap,
    ParseError,
    emit_dot,
    emit_edge_list,
    emit_graph6,
    new_graph,
    parse_edge_list,
    parse_graph6,
    recognize_multipartite,
)
from raagv import cli
from raagv.cli import main
from raagv.graphio import MAX_VERTICES
from raagv.harness import (
    MAX_ENUMERATION_N, CrossCheckReport, Mismatch, enumerate_graphs, random_graph, random_nb_graph,
)
from raagv.partition import CommutingPartition

from helpers import (
    cycle_graph,
    edge_count,
    forbidden_pattern_graph,
    graph_edges,
    graphs,
    near_misses,
    reference_emit_dot,
    reference_parse_edge_list,
)


# ------------------------------------------------------------- edge lists

def test_parse_numeric_edge_list():
    g, labels = parse_edge_list("n 4\ne 0 1\ne 2 3\n")
    assert g == new_graph(4, [(0, 1), (2, 3)])
    assert labels.is_default()


def test_parse_with_comments_and_blanks():
    text = "# a square\n\nn 4  # order\ne 0 1\n  \ne 1 2\ne 2 3\ne 3 0\n"
    g, _ = parse_edge_list(text)
    assert g == cycle_graph(4)


def test_parse_symbolic_labels_first_appearance_order():
    g, labels = parse_edge_list("n 3\ne b a\ne c a\n")
    assert labels.labels == ("b", "a", "c")
    assert g == new_graph(3, [(0, 1), (2, 1)])


def test_parse_numeric_out_of_range_treated_as_labels():
    g, labels = parse_edge_list("n 2\ne 5 7\n")
    assert labels.labels == ("5", "7")
    assert g == new_graph(2, [(0, 1)])


@pytest.mark.parametrize("token", ["+1", "01", "1_0"])
def test_parse_non_canonical_numbers_are_labels(token):
    # int() accepts each token, but none is the vertex number str() writes,
    # so the line goes through label assignment instead of crashing
    g, labels = parse_edge_list(f"n 12\ne {token} 2\n")
    assert labels.labels[:2] == (token, "2")
    assert g == new_graph(12, [(0, 1)])


def test_parse_plus_one_on_small_graph():
    g, labels = parse_edge_list("n 3\ne +1 2\n")
    assert labels.labels == ("+1", "2", "_2")
    assert g == new_graph(3, [(0, 1)])


def test_parse_vertex_count_limit():
    g, labels = parse_edge_list(f"n {MAX_VERTICES}\ne 0 1\n")
    assert g.n == MAX_VERTICES and edge_count(g) == 1
    with pytest.raises(ParseError, match="line 2: vertex count .* exceeds the limit"):
        parse_edge_list(f"# big\nn {MAX_VERTICES + 1}\n")


def test_parse_isolated_vertices_get_default_labels():
    g, labels = parse_edge_list("n 3\ne x y\n")
    assert edge_count(g) == 1
    assert labels.labels[:2] == ("x", "y")
    assert labels.labels[2] == "2"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("e 0 1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("n 2\ne 0 1\nn 2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("n 2\nv 0 1\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("n 3\ne 1 1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("n 2\ne a b\ne a c\n")
    with pytest.raises(ParseError):
        parse_edge_list("")
    with pytest.raises(ParseError, match="line 1"):
        parse_edge_list("n -2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("n 2\ne 0\n")


def test_edge_list_round_trip_exhaustive_small():
    for n in range(5):
        for g in enumerate_graphs(n):
            back, labels = parse_edge_list(emit_edge_list(g))
            assert back == g
            assert labels.is_default()


def test_edge_list_round_trip_with_labels():
    labels = LabelMap(("left", "mid", "right"))
    g = new_graph(3, [(0, 1), (1, 2)])
    back, back_labels = parse_edge_list(emit_edge_list(g, labels))
    assert back == g
    assert back_labels == labels


def test_emit_edge_list_label_size_mismatch():
    with pytest.raises(ValueError):
        emit_edge_list(new_graph(2, []), LabelMap(("a",)))


@pytest.mark.parametrize("names", [("a", "b"), ("a", "b", "c", "d")])
def test_emit_dot_label_size_mismatch(names):
    # fewer labels than vertices, then more: the same error as emit_edge_list
    for emit in (emit_edge_list, emit_dot):
        with pytest.raises(ValueError, match="^label map size does not match the graph$"):
            emit(new_graph(3, [(0, 1)]), labels=LabelMap(names))


def test_label_map_validation():
    with pytest.raises(ValueError):
        LabelMap(("a", "a"))
    with pytest.raises(ValueError):
        LabelMap(("a b",))
    with pytest.raises(ValueError):
        LabelMap(("",))
    # the parser would read "e a#b c" as "e a": a label with # cannot round-trip
    with pytest.raises(ValueError, match=r"^label 'a#b' contains '#', which starts a comment$"):
        LabelMap(("a#b", "c", "d"))


def test_default_label_maps_equal_the_checked_map():
    # both build their map of str(v) labels without __post_init__'s checks
    for n in (0, 1, 2, 150):
        checked = LabelMap(tuple(map(str, range(n))))
        assert LabelMap.default(n) == checked
        assert parse_edge_list(f"n {n}\n")[1] == checked


# a comment sign, DOT's quote and escape, a space, digits that read as vertex
# numbers and the letters of the two directives
LABEL_CHARS = 'ab01en_#"\\ '


@given(graphs(max_n=6), st.data())
@settings(max_examples=300)
def test_every_accepted_label_map_round_trips(g, data):
    label = st.text(LABEL_CHARS, min_size=1, max_size=3)
    names = data.draw(st.lists(label, min_size=g.n, max_size=g.n, unique=True))
    try:
        labels = LabelMap(tuple(names))
    except ValueError:
        assert any(" " in s or "#" in s for s in names)
        return
    back, back_labels = parse_edge_list(emit_edge_list(g, labels))

    def labelled_edges(graph, label_map):
        return {frozenset((label_map.label(u), label_map.label(v))) for u, v in graph_edges(graph)}

    assert back.n == g.n
    assert labelled_edges(back, back_labels) == labelled_edges(g, labels)


# ----------------------------------------------------------------- graph6

def test_graph6_frozen_strings():
    assert emit_graph6(new_graph(2, [(0, 1)])) == "A_"
    assert emit_graph6(new_graph(2, [])) == "A?"
    assert emit_graph6(cycle_graph(4)) == "Cl"
    assert emit_graph6(new_graph(0, [])) == "?"


def test_graph6_parse_frozen_strings():
    assert parse_graph6("A_") == new_graph(2, [(0, 1)])
    assert parse_graph6(b"A?") == new_graph(2, [])
    assert parse_graph6("Cl") == cycle_graph(4)


def test_graph6_round_trip_exhaustive_small():
    for n in range(6):
        for g in enumerate_graphs(n):
            assert parse_graph6(emit_graph6(g)) == g


def test_graph6_round_trip_random_larger():
    rng = random.Random(17)
    for trial in range(120):
        n = rng.randint(0, 30)
        g = random_graph(n, rng.random(), seed=trial)
        assert parse_graph6(emit_graph6(g)) == g


def size_digits(n: int, count: int) -> str:
    """n as ``count`` big-endian 6-bit graph6 digits."""
    return "".join(chr(63 + (n >> 6 * i & 63)) for i in reversed(range(count)))


def test_graph6_size_boundaries():
    # n = 62 is the last single-byte size, n = 63 the first `~` one
    assert emit_graph6(new_graph(62, [])) == "}" + "?" * 316
    assert emit_graph6(new_graph(63, [])) == "~??~" + "?" * 326
    for n in (62, 63):
        g = random_graph(n, 0.5, seed=n)
        assert parse_graph6(emit_graph6(g)) == g
    for text in ("~", "~?", "~??", "~~", "~~?", "~~?????"):
        with pytest.raises(ParseError, match=r"^graph6 size header is truncated$"):
            parse_graph6(text)
    for text, k, n in [
        ("~???", 4, 0),
        ("~??}", 4, 62),
        ("~~??????", 8, 0),
        ("~~" + size_digits(258047, 6), 8, 258047),
    ]:
        with pytest.raises(ParseError, match=f"^graph6 size form of {k} bytes is longer than n = {n} needs$"):
            parse_graph6(text)
    limit = f"exceeds the limit of {MAX_VERTICES}"
    with pytest.raises(ParseError, match=f"^graph6 vertex count 258048 {limit}$"):
        parse_graph6("~~" + size_digits(258048, 6))
    with pytest.raises(ValueError, match=f"^graph6 vertex count 65537 {limit}$"):
        emit_graph6(Graph(65537, (0,) * 65537))


def test_graph6_size_and_body_length_are_checked_before_allocation():
    n = MAX_VERTICES
    required = (n * (n - 1) // 2 + 5) // 6
    cases = [
        ("~" + size_digits(n + 1, 3), f"graph6 vertex count {n + 1} exceeds the limit of {n}"),
        ("~" + size_digits(n, 3) + "?", f"graph6 body has 1 bytes where {required} are required for n = {n}"),
    ]
    for text, message in cases:
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                parse_graph6(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == message
        assert peak < 64 * 1024  # a table of n entries alone would take 512 kB


def test_graph6_parse_errors():
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError):
        parse_graph6("A")  # truncated body
    with pytest.raises(ParseError):
        parse_graph6("A__")  # trailing bytes
    with pytest.raises(ParseError):
        parse_graph6("A" + chr(20))  # byte below 63
    with pytest.raises(ParseError):
        parse_graph6("~???")  # a longer size form than n = 0 needs
    with pytest.raises(ParseError):
        parse_graph6("B@")  # nonzero padding bits for n = 3
    with pytest.raises(ParseError):
        parse_graph6(b"\xff\xfe")


@given(graphs(max_n=8))
@settings(max_examples=100)
def test_graph6_round_trip_property(g):
    assert parse_graph6(emit_graph6(g)) == g


# -------------------------------------------------------------------- DOT

def test_dot_contains_edges_and_isolated_nodes():
    text = emit_dot(forbidden_pattern_graph())
    assert "0 -- 1;" in text
    assert "2 [label=" in text


def test_dot_partition_clusters():
    g = cycle_graph(4)
    p = CommutingPartition(frozenset(), (frozenset({0, 2}), frozenset({1, 3})))
    text = emit_dot(g, p)
    assert text.count("subgraph cluster_") == 2


def test_dot_p0_cluster_is_distinguished():
    g = new_graph(3, [(0, 1), (0, 2)])
    p = CommutingPartition(frozenset({0}), (frozenset({1, 2}),))
    text = emit_dot(g, p)
    assert text.count("subgraph cluster_") == 2
    assert 'label="P0"' in text


def test_dot_escapes_quotes_and_backslashes_in_labels():
    g = new_graph(3, [(0, 1), (1, 2)])
    labels = LabelMap(('a"b', "c\\", "d"))
    lines = emit_dot(g, labels=labels).split("\n")
    assert '  0 [label="a\\"b"];' in lines
    assert '  1 [label="c\\\\"];' in lines  # the closing quote stays a quote
    p = CommutingPartition(frozenset({1}), (frozenset({0, 2}),))
    assert emit_dot(g, p, labels) == reference_emit_dot(g, p, labels)


def test_dot_matches_reference_walk():
    cases = [(new_graph(0, []), None), (forbidden_pattern_graph(), None)]
    for n, seed in ((12, 1), (70, 2), (300, 3)):
        member = random_nb_graph(n, seed)
        cases += [(member, recognize_multipartite(member)), (random_graph(n, 0.5, seed), None)]
    for g, p in cases:
        labels = LabelMap(tuple(f"v{g.n - v}" for v in range(g.n)))
        # split: a failing compare of strings this long diffs them for minutes
        for names in (None, labels):
            assert emit_dot(g, p, names).split("\n") == reference_emit_dot(g, p, names).split("\n")


# -------------------------------------------------------------------- CLI

@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.el"
    path.write_text("n 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n")
    return str(path)


@pytest.fixture()
def obstruction_file(tmp_path):
    path = tmp_path / "fig.el"
    path.write_text("n 3\ne a b\n")
    return str(path)


def test_cli_classify_embeddable(c4_file, capsys):
    assert main(["classify", c4_file]) == 0
    out = capsys.readouterr().out
    assert "embeddable: yes" in out
    assert "group: F_2 x F_2" in out


def test_cli_classify_json_golden(c4_file, capsys):
    assert main(["classify", c4_file, "--json"]) == 0
    out = capsys.readouterr().out
    assert out == (
        '{"embeddable": true, "witness": null, '
        '"partition": {"p0": [], "parts": [[0, 2], [1, 3]]}, '
        '"group": {"abelian_rank": 0, "free_ranks": [2, 2]}, '
        '"canonical": "F_2 x F_2"}\n'
    )
    assert json.loads(out)["embeddable"] is True


def test_cli_classify_witness_json(obstruction_file, capsys):
    assert main(["classify", obstruction_file, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "embeddable": False,
        "witness": {"edge": [0, 1], "nonadjacent": 2},
        "partition": None,
        "group": None,
        "canonical": None,
    }


def test_cli_classify_json_is_byte_stable(c4_file, capsys):
    main(["classify", c4_file, "--json"])
    first = capsys.readouterr().out
    main(["classify", c4_file, "--json"])
    assert capsys.readouterr().out == first


def test_cli_calls_share_no_parsed_options(c4_file, capsys):
    # the argument parser is built once per process; each call must still
    # start from the defaults, not from the options of the call before
    assert main(["classify", c4_file, "--json"]) == 0
    assert capsys.readouterr().out.startswith("{")
    assert main(["classify", c4_file]) == 0
    assert capsys.readouterr().out.startswith("embeddable: yes\n")
    assert main(["random", "--n", "3", "--p", "1.0"]) == 0
    assert main(["random", "--n", "3"]) == 0
    full, default = capsys.readouterr().out.split("n 3\n")[1:]
    assert full == "e 0 1\ne 0 2\ne 1 2\n" and default != full


def test_cli_classify_uses_labels(obstruction_file, capsys):
    assert main(["classify", obstruction_file]) == 1
    out = capsys.readouterr().out
    assert "edge (a, b)" in out


def test_cli_partition(c4_file, capsys):
    assert main(["partition", c4_file]) == 0
    out = capsys.readouterr().out
    assert "P1 = {0, 2}" in out and "P2 = {1, 3}" in out


def test_cli_partition_witness_golden(obstruction_file, capsys):
    assert main(["partition", obstruction_file]) == 1
    assert capsys.readouterr().out == (
        "witness: edge (a, b), vertex 2 adjacent to neither\n"
    )


def test_cli_decompose_witness_golden(obstruction_file, capsys):
    assert main(["decompose", obstruction_file]) == 1
    assert capsys.readouterr().out == (
        "not a direct product of free groups\n"
        "witness: edge (a, b), vertex 2 adjacent to neither\n"
        "presentation: ⟨x0,x1,x2 | x0x1=x1x0⟩\n"
        "generators: x0=a x1=b x2=2\n"
    )


def test_cli_decompose(c4_file, capsys):
    assert main(["decompose", c4_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "F_2 x F_2"
    assert out[1].startswith("presentation: ")


def test_cli_word_trivial(c4_file, capsys):
    assert main(["word", c4_file, "1 2 -1 -2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "trivial"


def test_cli_word_nontrivial_split_args(c4_file, capsys):
    assert main(["word", c4_file, "1", "3", "-1", "-3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "nontrivial"
    assert "part {0, 2}: 1 3 -1 -3" in out


def test_cli_word_on_obstruction_exits_2(obstruction_file, capsys):
    assert main(["word", obstruction_file, "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_word_bad_token(c4_file, capsys):
    assert main(["word", c4_file, "0"]) == 2
    assert main(["word", c4_file, "9"]) == 2


def test_cli_word_rejects_what_only_int_accepts(c4_file, capsys):
    for token in ("1_0", "\u0663", "\uff13"):  # 10, Arabic-Indic 3, fullwidth 3
        assert main(["word", c4_file, token]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: word token {token!r} is not a signed integer\n"


def test_cli_word_batch_prints_each_line_as_a_single_word_call(c4_file, capsys, monkeypatch):
    lines = ["1 2 -1 -2", "", "1 3 -1 -3"]  # the empty line is the empty word
    expected = ""
    for line in lines:
        assert main(["word", c4_file, line]) == 0
        expected += capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["word", c4_file, "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected and captured.err == ""
    assert expected.count("trivial\n") == 3 and "part {0, 2}: 1 3 -1 -3\n" in expected


def test_cli_word_batch_stops_at_the_first_bad_line(c4_file, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 -1\n1 x\n9\n"))
    assert main(["word", c4_file, "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "trivial\npart {0, 2}: 1\npart {1, 3}: 1\n"
    assert captured.err == "error: line 2: word token 'x' is not a signed integer\n"


def test_cli_word_batch_on_obstruction_fails_before_reading(obstruction_file, capsys, monkeypatch):
    assert main(["word", obstruction_file, "1"]) == 2
    expected = capsys.readouterr()
    stdin = io.StringIO("1\n")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["word", obstruction_file, "-"]) == 2
    assert capsys.readouterr() == expected
    assert stdin.tell() == 0
    assert main(["word", obstruction_file, "1", "-"]) == 2  # "-" among others is a bad token
    assert capsys.readouterr().err == "error: word token '-' is not a signed integer\n"


def test_cli_graph6_format(tmp_path, capsys):
    path = tmp_path / "c4.g6"
    path.write_text("Cl\n")
    assert main(["classify", str(path), "--format", "graph6"]) == 0
    assert "F_2 x F_2" in capsys.readouterr().out


@pytest.mark.parametrize("raw", [b"Cl\xff\n", "C\u00e9\n".encode()], ids=["not-utf8", "utf8"])
def test_cli_non_ascii_graph6_file_exits_2(tmp_path, capsys, raw):
    path = tmp_path / "bad.g6"
    path.write_bytes(raw)
    assert main(["classify", str(path), "--format", "graph6"]) == 2
    assert capsys.readouterr() == ("", "error: graph6 input is not ASCII\n")


@pytest.mark.parametrize(
    "raw, code, err",
    [(b"\x1f Cl\r\n\x0c", 0, ""), (b"C\rl\n", 2, "error: graph6 byte 10 outside the printable range 63..126\n")],
    ids=["ascii-space-at-the-ends", "inner-carriage-return"],
)
def test_cli_graph6_file_is_read_as_text(tmp_path, capsys, raw, code, err):
    path = tmp_path / "c4.g6"
    path.write_bytes(raw)
    assert main(["classify", str(path), "--format", "graph6"]) == code
    assert capsys.readouterr().err == err


def test_cli_classify_reads_graph6_and_edge_lists_alike(tmp_path, capsys):
    member = random_nb_graph(300, seed=3)
    near_miss = near_misses(member, random.Random(3))[0]
    for g, code in ((member, 0), (near_miss, 1)):
        (tmp_path / "g.el").write_text(emit_edge_list(g))
        (tmp_path / "g.g6").write_text(emit_graph6(g) + "\n")
        for extra in ([], ["--json"]):
            assert main(["classify", str(tmp_path / "g.el"), *extra]) == code
            from_edge_list = capsys.readouterr()
            assert main(["classify", str(tmp_path / "g.g6"), "--format", "graph6", *extra]) == code
            assert capsys.readouterr() == from_edge_list
            assert from_edge_list.err == ""


@pytest.mark.parametrize(
    "text", ["n 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n", "n 3\ne a b\n", "# K2\nn 2\ne x y\n"]
)
def test_cli_reads_an_edge_list_saved_with_a_byte_order_mark(tmp_path, capsys, text):
    plain = tmp_path / "plain.el"
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / "marked.el"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    commands = (["classify", "--json"], ["partition"], ["decompose"], ["word", "1 2 -1"])
    for command, *rest in commands:
        code = main([command, str(plain), *rest])
        printed = capsys.readouterr()
        assert main([command, str(marked), *rest]) == code
        assert capsys.readouterr() == printed


FAR_EDGES = b"n 3\n" + b"e 0 1\n" * 2000  # 12,004 bytes


@pytest.mark.parametrize(
    "raw, err",
    [
        (b"n 3\ne 0 \xff1\ne 1 2\n", "byte 0xff in position 8: invalid start byte"),
        (b"\xef\xbb\xbfn 3\ne \xfe 1\n", "byte 0xfe in position 6: invalid start byte"),
        (FAR_EDGES[:10001] + b"\x80" + FAR_EDGES[10001:], "byte 0x80 in position 10001: invalid start byte"),
        ("n 2\ne é x\ne x é".encode()[:-1], "byte 0xc3 in position 15: unexpected end of data"),
    ],
    ids=["line-2", "after-a-byte-order-mark", "past-8-KiB", "truncated-at-the-end"],
)
def test_cli_edge_list_that_is_not_utf8_exits_2(tmp_path, capsys, raw, err):
    # the position counts bytes from the start of the file, after a byte-order mark
    path = tmp_path / "bad.el"
    path.write_bytes(raw)
    for command, *rest in (["classify"], ["partition"], ["decompose"], ["word", "1"]):
        assert main([command, str(path), *rest]) == 2
        assert capsys.readouterr() == ("", f"error: 'utf-8' codec can't decode {err}\n")



@pytest.mark.parametrize(
    "text, line",
    [("n 3\n\x0c\ne 0 1\ne 1\n", 4), ("n 3\ne 0 1\u2028\ne 1\n", 3), ("n 3\r\ne 0 1\re 1\r\n", 3)],
    ids=["form-feed-line", "line-separator-after-an-edge", "carriage-returns"],
)
def test_cli_edge_list_errors_name_the_line_grep_names(tmp_path, capsys, text, line):
    # lines end at CR LF, CR or LF only, as grep -n and text-mode open count them
    path = tmp_path / "bad.el"
    path.write_bytes(text.encode())
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: line {line}: edge line must be exactly 'e <u> <v>'\n"
    with pytest.raises(ParseError, match=f"^line {line}: "):
        parse_edge_list(text)


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_other_unicode_line_separators_are_in_line_whitespace(sep):
    g, labels = parse_edge_list(f"n 3{sep}\ne 0{sep}1\ne 1 2{sep}# c{sep}e 0 2\n")
    assert g.adj == (0b010, 0b101, 0b010)
    assert labels == LabelMap.default(3)


def test_cli_loads_and_classifies_once_per_call(c4_file, obstruction_file, capsys, monkeypatch):
    calls = []
    load, decide = cli._load_graph, cli.verdict
    monkeypatch.setattr(cli, "_load_graph", lambda path, fmt: calls.append("load") or load(path, fmt))
    monkeypatch.setattr(cli, "verdict", lambda g: calls.append("verdict") or decide(g))
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 -1 -2\n\n1 3 -1 -3\n"))
    runs = [
        (["classify", c4_file], 0),
        (["classify", c4_file, "--json"], 0),
        (["partition", c4_file], 0),
        (["decompose", c4_file], 0),
        (["word", c4_file, "1 3 -1 -3"], 0),
        (["word", c4_file, "-"], 0),
        (["classify", obstruction_file], 1),
        (["partition", obstruction_file], 1),
        (["decompose", obstruction_file], 1),
        (["word", obstruction_file, "1"], 2),
    ]
    for argv, code in runs:
        calls.clear()
        assert main(argv) == code
        assert calls == ["load", "verdict"], argv
    assert capsys.readouterr().out.count("trivial\n") == 4  # one word, then three from stdin
    calls.clear()
    assert main(["random", "--n", "3"]) == 0
    assert calls == []


@pytest.mark.parametrize(
    "g", [cycle_graph(4), forbidden_pattern_graph(), random_nb_graph(70, seed=5)], ids=["c4", "pattern", "n70"]
)
def test_cli_reads_graph6_with_the_optional_header(tmp_path, capsys, g):
    plain = tmp_path / "plain.g6"
    plain.write_text(emit_graph6(g) + "\n")
    headed = tmp_path / "headed.g6"
    headed.write_text(">>graph6<<" + emit_graph6(g) + "\n")
    for command, *rest in (["classify"], ["classify", "--json"], ["partition"], ["decompose"]):
        code = main([command, str(plain), "--format", "graph6", *rest])
        printed = capsys.readouterr()
        assert main([command, str(headed), "--format", "graph6", *rest]) == code
        assert capsys.readouterr() == printed
    # the codec itself stays the strict inverse of emit_graph6
    with pytest.raises(ParseError):
        parse_graph6(">>graph6<<" + emit_graph6(g))


@pytest.mark.parametrize(
    "raw, err",
    [
        (b">>graph6<<\n", "empty graph6 input"),
        (b">>graph6<<>>graph6<<Cl\n", "graph6 byte 62 outside the printable range 63..126"),
        (b">>graph6<< Cl\n", "graph6 byte 32 outside the printable range 63..126"),
    ],
    ids=["alone", "twice", "then-space"],
)
def test_cli_graph6_header_is_taken_once_and_needs_a_graph(tmp_path, capsys, raw, err):
    path = tmp_path / "bad.g6"
    path.write_bytes(raw)
    assert main(["classify", str(path), "--format", "graph6"]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


FUZZ_SOURCES = [
    ("labelled.el", [], b"# a path and a square\nn 8\ne a b\ne b c\ne d e\ne e f\ne f g\ne g d\ne b x\n"),
    ("numeric.el", [], b"n 5\ne 0 1\ne 1 2\ne 2 3\ne 3 0\ne 4 0\ne 4 1\ne 4 2\ne 4 3\n"),
    ("member.g6", ["--format", "graph6"], (emit_graph6(random_nb_graph(12, seed=2)) + "\n").encode()),
]
FUZZ_BYTES = b"0123456789 \n\r\t#-_~?@Aaenx\xef\xbb\xbf\xff"
FUZZ_COMMANDS = (["classify"], ["classify", "--json"], ["partition"], ["decompose"], ["word", "1 2 -1 -2"], ["word", "-"])
WORD_TOKENS = ("1", "-1", "2", "-2", "3", "5", "x", "0")


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One or two byte flips, insertions, deletions or truncations."""
    raw = bytearray(data)
    for _ in range(rng.choice((1, 1, 2))):
        kind, at = rng.randrange(4), rng.randrange(len(raw) + 1)
        if kind == 0 and at < len(raw):
            raw[at] ^= 1 << rng.randrange(8)
        elif kind == 1:
            raw.insert(at, rng.choice(FUZZ_BYTES))
        elif kind == 2 and at < len(raw):
            del raw[at]
        elif kind == 3:
            del raw[at:]
    return bytes(raw)


def test_cli_survives_mutated_files(tmp_path, capsys, monkeypatch):
    rng = random.Random(19)
    cases = 0
    for name, fmt, data in FUZZ_SOURCES:
        for i in range(17):
            path = tmp_path / f"{i}-{name}"
            path.write_bytes(mutate(data, rng))
            lines = (" ".join(rng.choices(WORD_TOKENS, k=3)) for _ in range(3))
            monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
            verdict_codes = set()
            for command, *rest in FUZZ_COMMANDS:
                code = main([command, str(path), *fmt, *rest])
                out, err = capsys.readouterr()
                cases += 1
                assert code in (0, 1, 2), (path.read_bytes(), command)
                if code == 2:
                    assert err.startswith("error: ") and err.count("\n") == 1, (path.read_bytes(), command, err)
                else:
                    assert err == "", (path.read_bytes(), command, err)
                if command != "word":
                    verdict_codes.add(code)
            # the four verdict commands read the same file, so they agree
            assert len(verdict_codes) == 1, (path.read_bytes(), verdict_codes)
    assert cases == 306


def test_cli_enumerate(capsys):
    assert main(["enumerate", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "15" in out


def test_cli_enumerate_json(capsys):
    assert main(["enumerate", "--max-n", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["nb_count"] for r in payload] == [1, 2, 5]
    assert all(r["mismatches"] == [] for r in payload)


def test_cli_enumerate_json_golden(capsys):
    assert main(["enumerate", "--max-n", "3", "--json"]) == 0
    assert capsys.readouterr().out == (
        '[{"n": 1, "total_graphs": 1, "nb_count": 1, "gp_count": 1, "mismatches": []}, '
        '{"n": 2, "total_graphs": 2, "nb_count": 2, "gp_count": 2, "mismatches": []}, '
        '{"n": 3, "total_graphs": 8, "nb_count": 5, "gp_count": 5, "mismatches": []}]\n'
    )


def test_cli_enumerate_json_prints_a_mismatch_field_by_field(capsys, monkeypatch):
    report = CrossCheckReport(1, 2, 1, 1, (Mismatch(1, True, False, True),))
    monkeypatch.setattr(cli, "cross_check", lambda n: report)
    assert main(["enumerate", "--max-n", "1", "--json"]) == 1
    assert capsys.readouterr().out == (
        '[{"n": 1, "total_graphs": 2, "nb_count": 1, "gp_count": 1, "mismatches": '
        '[{"code": 1, "triple_free": true, "greedy_ok": false, "multipartite_ok": true}]}]\n'
    )


def test_cli_enumerate_past_the_cap_fails_before_any_sweep(capsys, monkeypatch):
    swept = []
    monkeypatch.setattr(cli, "cross_check", lambda n: swept.append(n))
    n = MAX_ENUMERATION_N + 1
    assert main(["enumerate", "--max-n", str(n)]) == 2
    assert swept == []
    with pytest.raises(ValueError) as info:
        next(enumerate_graphs(n))
    assert capsys.readouterr() == ("", f"error: {info.value}\n")


def test_cli_enumerate_below_zero_fails_before_any_sweep(capsys, monkeypatch):
    swept = []
    monkeypatch.setattr(cli, "cross_check", lambda n: swept.append(n))
    assert main(["enumerate", "--max-n", "-1"]) == 2
    assert capsys.readouterr() == ("", f"error: enumeration supports 0 <= n <= {MAX_ENUMERATION_N}, got -1\n")
    assert main(["enumerate", "--max-n", "0"]) == 0  # the bare header: no order to sweep
    assert capsys.readouterr().err == ""
    assert swept == []


@pytest.mark.parametrize("nb", [[], ["--nb"]])
def test_cli_random_past_the_vertex_limit_builds_nothing(capsys, monkeypatch, nb):
    built = []
    monkeypatch.setattr(cli, "random_graph", lambda n, p, seed: built.append(n) or new_graph(0, []))
    monkeypatch.setattr(cli, "random_nb_graph", lambda n, seed: built.append(n) or new_graph(0, []))
    assert main(["random", "--n", str(MAX_VERTICES + 1), *nb]) == 2
    assert capsys.readouterr() == ("", f"error: vertex count 65537 exceeds the limit of {MAX_VERTICES}\n")
    assert main(["random", "--n", str(MAX_VERTICES), *nb]) == 0  # the limit itself is built
    assert built == [MAX_VERTICES]


def test_cli_random_deterministic(capsys):
    assert main(["random", "--n", "6", "--p", "0.3", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    main(["random", "--n", "6", "--p", "0.3", "--seed", "5"])
    assert capsys.readouterr().out == first
    g, _ = parse_edge_list(first)
    assert g.n == 6


def test_cli_random_nb(capsys):
    from raagv import is_nb

    assert main(["random", "--n", "9", "--seed", "3", "--nb"]) == 0
    g, _ = parse_edge_list(capsys.readouterr().out)
    assert is_nb(g)


def test_cli_unknown_subcommand(capsys):
    assert main(["bogus"]) == 2


def test_cli_unknown_flag(capsys):
    assert main(["classify", "--frobnicate", "x"]) == 2


def test_cli_missing_file(capsys):
    assert main(["classify", "/nonexistent/file.el"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.el"
    path.write_text("m 3\n")
    assert main(["classify", str(path)]) == 2


@pytest.mark.parametrize("text", ["n 3\ne +1 2\n", "n 12\ne 01 2\n"])
def test_cli_non_canonical_numbers_classify(tmp_path, capsys, text):
    f = tmp_path / "g.el"
    f.write_text(text)
    assert main(["classify", str(f)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("embeddable: no\nwitness: edge (")


def test_cli_hostile_header_exits_2(tmp_path, capsys):
    f = tmp_path / "huge.el"
    f.write_text("n 1000000000\ne 0 1\n")
    assert main(["classify", str(f)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: line 1: vertex count 1000000000 exceeds the limit of {MAX_VERTICES}\n"


@pytest.mark.parametrize(
    "count, message",
    [
        ("1_0", "vertex count '1_0' is not an integer"),
        ("٣", "vertex count '٣' is not an integer"),
        ("9" * 5000, f"vertex count {'9' * 32}... (5000 characters) exceeds the limit of {MAX_VERTICES}"),
    ],
    ids=["underscore", "non-ascii-digit", "5000-digits"],
)
def test_header_count_is_ascii_digits_and_echoes_32_characters(tmp_path, capsys, count, message):
    text = f"n {count}\n"
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert str(err.value) == f"line 1: {message}"
    f = tmp_path / "count.el"
    f.write_text(text, encoding="utf-8")
    assert main(["classify", str(f)]) == 2
    assert capsys.readouterr() == ("", f"error: line 1: {message}\n")


LONG = "x" * 100_000
LONG_ECHO = f"{'x' * 32!r}... (100000 characters)"


@pytest.mark.parametrize(
    "text, message",
    [
        (f"{LONG}\n", f"line 1: expected header 'n <count>', got {LONG_ECHO}"),
        (f"n 2\n{LONG} 0 1\n", f"line 2: unknown directive {LONG_ECHO}"),
        (f"n 3\ne 0 1\ne {LONG} {LONG}\n", f"line 3: loop edge on {LONG_ECHO}"),
        (f"n 1\ne a {LONG}\n", f"line 2: label {LONG_ECHO} is the 2-th distinct label but the graph has only 1 vertices"),
    ],
    ids=["header", "directive", "loop", "label-count"],
)
def test_edge_list_errors_echo_32_characters_of_a_long_token(text, message):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert str(err.value) == message
    with pytest.raises(ParseError) as err:
        reference_parse_edge_list(text)
    assert str(err.value) == message


def parse_peak(text: str) -> int:
    """The traced peak of parsing ``text``, which is made before tracing starts."""
    tracemalloc.start()
    try:
        parse_edge_list(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_canonical_edge_list_is_parsed_without_a_list_of_its_lines():
    # the body walk holds one chunk's tokens and the masks, about a fifth
    # of this 1.7 MB text; a list of every line took 7 times
    text = emit_edge_list(random_nb_graph(600, seed=1))
    assert parse_peak(text) <= len(text)


def test_indented_or_commented_edge_list_is_parsed_without_a_list_of_its_lines():
    # a chunk read line by line holds its own lines only, so these copies
    # peak at about a fifth of their text too; so do the label pass's walk,
    # on a copy with every label renamed and on one whose last line alone,
    # naming a 601st vertex, sends the default pass there
    text = emit_edge_list(random_nb_graph(600, seed=1))
    indented = "".join(" " + line for line in text.splitlines(True))
    renamed = re.sub(r"^e (\d+) (\d+)$", r"e v\1 v\2", text, flags=re.M)
    late_label = text.replace("n 600", "n 601", 1) + "e 0 x\n"
    for copy in (indented, "# comment\n" + text, renamed, late_label):
        assert parse_peak(copy) <= len(copy)


def test_header_only_edge_list_allocates_no_table_of_bits():
    # the label index and the label map take about 9 MB at MAX_VERTICES;
    # a table of every label's bit would take about n * n / 16 = 268 MB
    assert parse_peak(f"n {MAX_VERTICES}\n") < 16 << 20
