"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:

    python3 -m unittest discover -s bench -v
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path
from unittest import mock

import inputs
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """(details line, result line) of a finished run."""
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    details, res = result(proc)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(details["fail_ratio"], 0.0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in res["metrics"].items()},
                        {m["name"]: m["unit"] for m in spec},
                    )
                    for m in res["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))
                    if trace:
                        self.assertTrue(details["children_within_cli_main"])

    def test_work_counts_repeat_for_a_fixed_seed(self):
        counts = (
            "classify.find_forbidden_triple.edges_scanned",
            "classify.recognize_multipartite.reject_ratio",
            "matrixrep.evaluate_word.max_entry_bits",
            "cli.output_bytes",
        )
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (result(bench(workload, 1, seed=5))[1]["metrics"] for _ in range(2))
                for name in counts:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_without_the_program_sources_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("sweep", 0, cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class WrongAnswerTest(unittest.TestCase):
    """A deliberately wrong expected answer must show up as failed ops."""

    @classmethod
    def setUpClass(cls):
        run.load_program()
        import workloads

        cls.workloads = workloads

    def run_corrupted(self, cls, corrupt) -> tuple[dict, dict]:
        setup = cls.setup

        def corrupted_setup(self, rng):
            setup(self, rng)
            corrupt(self)

        out = io.StringIO()
        with mock.patch.object(cls, "setup", corrupted_setup), redirect_stdout(out):
            code = run.main(["--workload", cls.name, "--seed", "2", "--seconds", "0.3", "--size", "tiny"])
        self.assertEqual(code, 0)
        lines = out.getvalue().strip().splitlines()
        return json.loads(lines[-2]), json.loads(lines[-1])

    def assert_failures_reported(self, details: dict, res: dict) -> None:
        self.assertGreater(res["failed"], 0)
        self.assertFalse(res["correct"])
        self.assertGreater(details["fail_ratio"], 0)
        self.assertEqual(details["fail_ratio"], res["failed"] / res["attempted"])

    def test_classify_files(self):
        def corrupt(w):
            w.requests[0].json["embeddable"] = not w.requests[0].json["embeddable"]

        self.assert_failures_reported(*self.run_corrupted(self.workloads.ClassifyFiles, corrupt))

    def test_word_certify(self):
        def corrupt(w):
            gi, word, trivial = w.ops[0]
            w.ops[0] = (gi, word, not trivial)

        self.assert_failures_reported(*self.run_corrupted(self.workloads.WordCertify, corrupt))

    def test_sweep(self):
        def corrupt(w):
            w.bell += 1

        self.assert_failures_reported(*self.run_corrupted(self.workloads.Sweep, corrupt))


class ReferenceTest(unittest.TestCase):
    """The benchmark's own answers against brute force on small graphs."""

    def test_least_witness_and_pattern_freeness(self):
        rng = random.Random(0)
        for _ in range(300):
            n = rng.randrange(2, 8)
            if rng.random() < 0.5:
                adj = inputs.random_adjacency(rng, n)
            else:
                blocks = inputs.random_blocks(rng, n, parts=max(1, n // 3), singletons=int(n >= 5), p0=n % 2)
                adj = blocks.adjacency()
            edge = lambda u, v: bool(adj[u] >> v & 1)
            brute = min(
                (
                    (a, b, c)
                    for a, b in combinations(range(n), 2)
                    if edge(a, b)
                    for c in range(n)
                    if c not in (a, b) and not edge(a, c) and not edge(b, c)
                ),
                default=None,
            )
            self.assertEqual(inputs.least_witness(n, adj), brute)
            self.assertEqual(inputs.is_pattern_free(n, adj), brute is None)

    def test_near_miss_witness(self):
        rng = random.Random(1)
        for _ in range(50):
            blocks = inputs.random_blocks(rng, 40, parts=3, singletons=2, p0=3)
            adj = blocks.adjacency()
            witness = inputs.join_inside_largest_part(blocks, adj)
            self.assertEqual(inputs.least_witness(40, adj), witness)

    def test_word_triviality_by_construction(self):
        rng = random.Random(2)
        owner = inputs.random_blocks(rng, 12, parts=3, singletons=1, p0=2).owner()
        for trivial in (True, False):
            w = inputs.make_word(rng, owner, 40, trivial)
            # nontrivial words are u g u^-1: odd length, trivial ones even
            self.assertEqual(len(w) % 2 == 0, trivial)


class StatisticsTest(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        value, pct = run.tail([float(x) for x in range(30, 0, -1)])
        self.assertEqual(value, 20.0)
        self.assertAlmostEqual(pct, 100 * 20 / 30)

    def test_best_of_passes_keeps_each_ops_fastest_time(self):
        run.load_program()
        import workloads

        best = workloads.best_of_passes(None, [3.0, 1.0, 2.0])
        self.assertEqual(workloads.best_of_passes(best, [2.0, 4.0, 2.0]), [2.0, 1.0, 2.0])


if __name__ == "__main__":
    unittest.main()
