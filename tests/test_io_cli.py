import json
import random

import pytest
from hypothesis import given, settings

from raagv import (
    LabelMap,
    ParseError,
    emit_dot,
    emit_edge_list,
    emit_graph6,
    new_graph,
    parse_edge_list,
    parse_graph6,
)
from raagv.cli import main
from raagv.graphio import MAX_VERTICES
from raagv.harness import enumerate_graphs, random_graph
from raagv.partition import CommutingPartition

from helpers import cycle_graph, forbidden_pattern_graph, graphs


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
    assert g.n == MAX_VERTICES and g.edge_count() == 1
    with pytest.raises(ParseError, match="line 2: vertex count .* exceeds the limit"):
        parse_edge_list(f"# big\nn {MAX_VERTICES + 1}\n")


def test_parse_isolated_vertices_get_default_labels():
    g, labels = parse_edge_list("n 3\ne x y\n")
    assert g.edge_count() == 1
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


def test_label_map_validation():
    with pytest.raises(ValueError):
        LabelMap(("a", "a"))
    with pytest.raises(ValueError):
        LabelMap(("a b",))
    with pytest.raises(ValueError):
        LabelMap(("",))


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


def test_graph6_size_cap():
    with pytest.raises(ValueError):
        emit_graph6(new_graph(63, []))


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
        parse_graph6("~???")  # multi-byte size form
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


def test_cli_graph6_format(tmp_path, capsys):
    path = tmp_path / "c4.g6"
    path.write_text("Cl\n")
    assert main(["classify", str(path), "--format", "graph6"]) == 0
    assert "F_2 x F_2" in capsys.readouterr().out


def test_cli_enumerate(capsys):
    assert main(["enumerate", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "15" in out


def test_cli_enumerate_json(capsys):
    assert main(["enumerate", "--max-n", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["nb_count"] for r in payload] == [1, 2, 5]
    assert all(r["mismatches"] == [] for r in payload)


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
