"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s``) and fails loudly if its bound is missed.  Expected counts are
recomputed here, never assumed.
"""

import random
import subprocess
import sys
import time

from raagv import (
    CommutingPartition,
    Embeddable,
    ForbiddenTriple,
    GroupDecomposition,
    canonical_partition,
    cross_check,
    emit_edge_list,
    emit_graph6,
    emit_presentation,
    format_decomposition,
    is_nb,
    parse_edge_list,
    parse_graph6,
    random_nb_graph,
    verdict,
)
from raagv.harness import enumerate_graphs, random_graph
from raagv.partition import greedy_partition
from raagv.words import is_trivial

from helpers import (
    block_family,
    complete_graph,
    cycle_graph,
    empty_graph,
    forbidden_pattern_graph,
    induced_subgraph,
    matrix_is_trivial,
    random_word,
    reference_greedy_partition,
    seeded_pivot,
)

_reports = {}


def _sweep_cross_check():
    _reports.clear()
    for n in range(1, 7):
        _reports[n] = cross_check(n)


def _check(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_deciders_agree_on_all_small_graphs():
    start = time.perf_counter()
    _sweep_cross_check()
    elapsed = time.perf_counter() - start
    total = sum(r.total_graphs for r in _reports.values())
    mismatches = sum(len(r.mismatches) for r in _reports.values())
    ok = mismatches == 0 and elapsed < 10.0
    _check(
        1,
        ok,
        f"three deciders agree on all {total} graphs with n <= 6 "
        f"({mismatches} mismatches) in {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_2_pattern_free_counts():
    if len(_reports) != 6:
        _sweep_cross_check()
    expected = (1, 2, 5, 15, 52, 203)
    got = tuple(_reports[n].nb_count for n in range(1, 7))
    also = tuple(_reports[n].gp_count for n in range(1, 7))
    ok = got == expected and also == expected
    _check(2, ok, f"pattern-free counts for n = 1..6 are {got}, expected {expected}")


def test_criterion_3_named_examples():
    problems = []

    v = verdict(forbidden_pattern_graph())
    if v != ForbiddenTriple(0, 1, 2):
        problems.append(f"one-edge-plus-isolated-vertex verdict wrong: {v}")

    if not isinstance(verdict(cycle_graph(5)), ForbiddenTriple):
        problems.append("pentagon should not be embeddable")

    for n in range(1, 9):
        v = verdict(complete_graph(n))
        if not (
            isinstance(v, Embeddable)
            and v.group == GroupDecomposition(n, ())
            and format_decomposition(v.group) == f"Z^{n}"
        ):
            problems.append(f"complete graph on {n} is not Z^{n}")

    for n in range(2, 9):
        v = verdict(empty_graph(n))
        if not (
            isinstance(v, Embeddable)
            and v.group == GroupDecomposition(0, (n,))
            and format_decomposition(v.group) == f"F_{n}"
        ):
            problems.append(f"empty graph on {n} is not F_{n}")

    text = emit_presentation(forbidden_pattern_graph())
    if text.count("=") != 1:
        problems.append(f"presentation {text!r} should have exactly one relation")

    _check(3, not problems, "; ".join(problems) or "named graph families decompose as expected")


def test_criterion_4_pivot_rule_independence():
    graphs_checked = 0
    runs = 0
    for i in range(1000):
        n = i % 12 + 1
        g = random_nb_graph(n, seed=i)
        reference = canonical_partition(g)
        assert isinstance(reference, CommutingPartition)
        family = block_family(reference)
        p = greedy_partition(g)
        if not (isinstance(p, CommutingPartition) and block_family(p) == family):
            _check(
                4,
                False,
                f"greedy_partition on graph seed {i} (n = {n}) disagrees with the canonical partition",
            )
        for rule_seed in range(100):
            p = reference_greedy_partition(g, seeded_pivot(rule_seed))
            runs += 1
            if not (isinstance(p, CommutingPartition) and block_family(p) == family):
                _check(
                    4,
                    False,
                    f"pivot rule {rule_seed} on graph seed {i} (n = {n}) "
                    f"disagrees with the canonical partition",
                )
        graphs_checked += 1
    _check(
        4,
        graphs_checked == 1000 and runs == 100_000,
        f"{runs} greedy runs over {graphs_checked} graphs (100 pivot rules each) "
        "all reproduce the canonical block family",
    )


def test_criterion_5_word_problem_against_matrix_model():
    rng = random.Random(20260817)
    start = time.perf_counter()
    words_checked = 0
    disagreements = 0
    for trial in range(500):
        n = rng.randint(1, 10)
        g = random_nb_graph(n, seed=trial + 10_000)
        p = canonical_partition(g)
        assert isinstance(p, CommutingPartition)
        for _ in range(20):
            w = random_word(rng, n, rng.randint(0, 20))
            if is_trivial(g, w) != matrix_is_trivial(p, w):
                disagreements += 1
            words_checked += 1
    elapsed = time.perf_counter() - start
    ok = words_checked >= 10_000 and disagreements == 0 and elapsed < 30.0
    _check(
        5,
        ok,
        f"normal-form triviality matches exact matrix evaluation on "
        f"{words_checked} random words ({disagreements} disagreements) "
        f"in {elapsed:.2f}s (limit 30s)",
    )


def test_criterion_6_round_trips_and_stable_json(tmp_path):
    problems = []

    for n in range(7):
        for g in enumerate_graphs(n):
            back, _ = parse_edge_list(emit_edge_list(g))
            if back != g:
                problems.append(f"edge-list round trip failed on n={n} code graph")
                break
            if parse_graph6(emit_graph6(g)) != g:
                problems.append(f"graph6 round trip failed on n={n} code graph")
                break

    rng = random.Random(7)
    for trial in range(1000):
        n = rng.randint(0, 30)
        g = random_graph(n, rng.random(), seed=trial + 40_000)
        back, _ = parse_edge_list(emit_edge_list(g))
        if back != g or parse_graph6(emit_graph6(g)) != g:
            problems.append(f"random round trip failed at trial {trial}")
            break

    for name, text in (
        ("square.el", "n 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n"),
        ("obstruction.el", "n 3\ne a b\n"),
    ):
        path = tmp_path / name
        path.write_text(text)
        outs = [
            subprocess.run(
                [sys.executable, "-m", "raagv", "classify", str(path), "--json"],
                capture_output=True,
            ).stdout
            for _ in range(2)
        ]
        if outs[0] != outs[1] or not outs[0]:
            problems.append(f"classify --json on {name} is not byte-stable")

    _check(
        6,
        not problems,
        "; ".join(problems)
        or "both formats round-trip on all graphs with n <= 6 plus 1000 random "
        "graphs (n <= 30), and classify --json output is byte-identical across runs",
    )


def test_criterion_7_class_closed_under_vertex_deletion():
    rng = random.Random(424242)
    for trial in range(1000):
        n = rng.randint(1, 12)
        g = random_nb_graph(n, seed=trial + 70_000)
        keep = [v for v in range(n) if rng.random() < rng.random() + 0.3]
        sub = induced_subgraph(g, keep)
        if not is_nb(sub):
            _check(
                7,
                False,
                f"deleting vertices from pattern-free graph seed {trial + 70_000} "
                f"left the class (kept {keep})",
            )
    _check(7, True, "1000 random pattern-free graphs stay pattern-free under random vertex deletions")
