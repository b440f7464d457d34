"""Benchmark for raagv: end-to-end and per-layer metrics on three workloads.

Run from the repository root; it needs nothing beyond the standard library
and the package sources under ``src``:

    python3 bench/run.py --workload classify_files --seed 1 --seconds 35 --trace 0

Workloads, each a closed loop with one caller in one process (BENCHMARK.json
says why each was chosen):

* ``classify_files``: in-process ``cli.main`` calls on generated files,
  mostly ``classify --json`` on edge lists with n from 40 to 120, some
  small graph6 and edge-list files, ``decompose`` and ``random --nb``.
* ``word_certify``: ``words.normal_form`` on (graph, word) requests, certified
  by ``matrixrep.evaluate_word``; short words, and long words of 4*10^3
  to 4.55*10^3 letters.
* ``sweep``: ``harness.cross_check(5)`` over all 1024 graphs on five vertices.

A run makes whole passes over its workload's ops.  A latency sample is an
op's best time over the passes (``workloads`` says why), and ``ops_per_s``
is one over the mean sample.

With ``--trace 0`` the run measures the end-to-end metrics with nothing
traced.  With ``--trace 1`` it replays the same inputs, once without and once
with a span around every call into a layer's public function, and reports
the per-layer metrics and the tracing overhead; the spans are written to
``.bench_work/trace_<workload>.tsv``.  Per-layer figures are per pass over
the workload's inputs, so the work counts repeat exactly for a fixed seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the details: ``fail_ratio``, the percentile and sample count behind
``latency_tail_s``, the set-up times and, when traced, the overhead.
Generated inputs live in ``.bench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graphio.parse_edge_list.calls": "count",
    "graphio.parse_edge_list.busy_s": "s",
    "graphio.parse_edge_list.mb_per_s": "MB/s",
    "graphio.parse_graph6.busy_s": "s",
    "graphio.emit_edge_list.busy_s": "s",
    "graphs.universal_vertices.busy_s": "s",
    "classify.recognize_multipartite.calls": "count",
    "classify.recognize_multipartite.busy_s": "s",
    "classify.recognize_multipartite.reject_ratio": "ratio",
    "classify.find_forbidden_triple.calls": "count",
    "classify.find_forbidden_triple.busy_s": "s",
    "classify.find_forbidden_triple.edges_scanned": "count",
    "partition.canonical_partition.busy_s": "s",
    "partition.greedy_partition.calls": "count",
    "partition.greedy_partition.busy_s": "s",
    "partition.validate_partition.busy_s": "s",
    "groups.verdict.calls": "count",
    "groups.verdict.busy_s": "s",
    "groups.emit_presentation.busy_s": "s",
    "words.normal_form.calls": "count",
    "words.normal_form.busy_s": "s",
    "words.normal_form.letters_per_s": "letters/s",
    "matrixrep.evaluate_word.calls": "count",
    "matrixrep.evaluate_word.busy_s": "s",
    "matrixrep.evaluate_word.letters_per_s": "letters/s",
    "matrixrep.evaluate_word.max_entry_bits": "bits",
    "harness.enumerate_graphs.busy_s": "s",
    "harness.cross_check.busy_s": "s",
    "cli.main.busy_s": "s",
    "cli.startup_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class ProgramMissing(RuntimeError):
    pass


def load_program() -> None:
    """Put the checkout's ``src`` first on the import path and import raagv
    from there, never from an installed copy."""
    pkg = ROOT / "src" / "raagv"
    if not (pkg / "__init__.py").is_file():
        raise ProgramMissing(f"the raagv sources are missing: no {pkg / '__init__.py'}")
    sys.path.insert(0, str(ROOT / "src"))
    import raagv

    if Path(raagv.__file__).resolve().parent != pkg.resolve():
        raise ProgramMissing(f"raagv was imported from {raagv.__file__}, not from {pkg}")


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has ten
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(samples)
    rank = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kilobytes on Linux


def end_to_end(res, setups: list[float]) -> tuple[dict, dict]:
    value, pct = tail(res.latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(res.latencies) / sum(res.latencies),
        "latency_p50_s": statistics.median(res.latencies),
        "latency_tail_s": value,
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "passes": res.passes,
        "latency_samples": len(res.latencies),
        "latency_sample": res.sample,
        "latency_tail_percentile": round(pct, 2),
        "busy_s": res.busy,
        "setup_runs_s": setups,
    }
    return metrics, details


def per_layer(tracer, res) -> tuple[dict, dict]:
    busy, calls = tracer.busy()
    counts = tracer.counts
    passes = res.passes

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds else 0.0

    metrics = {}
    for name in PER_LAYER:
        layer, _, quantity = name.rpartition(".")
        if quantity == "busy_s":
            metrics[name] = busy[layer] / passes
        elif quantity == "calls":
            metrics[name] = calls[layer] / passes
    metrics.update(
        {
            "graphio.parse_edge_list.mb_per_s": rate(
                counts["parse_bytes"] / 1e6, busy["graphio.parse_edge_list"]
            ),
            "classify.recognize_multipartite.reject_ratio": rate(
                counts["recognize_rejects"], calls["classify.recognize_multipartite"]
            ),
            "classify.find_forbidden_triple.edges_scanned": counts["edges_scanned"] / passes,
            "words.normal_form.letters_per_s": rate(counts["nf_letters"], busy["words.normal_form"]),
            "matrixrep.evaluate_word.letters_per_s": rate(
                counts["ev_letters"], busy["matrixrep.evaluate_word"]
            ),
            "matrixrep.evaluate_word.max_entry_bits": counts["max_entry_bits"],
            "cli.startup_s": statistics.median(res.startup) if res.startup else 0.0,
            "cli.output_bytes": res.output_bytes / passes,
            "trace.overhead_ratio": rate(res.traced_s - res.untraced_s, res.untraced_s),
        }
    )
    details = {
        "passes": passes,
        "spans": len(tracer.start),
        "spans_written": res.first_pass_spans,
        "untraced_s": res.untraced_s,
        "traced_s": res.traced_s,
        "children_within_cli_main": tracer.children_within_parent("cli.main"),
    }
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("classify_files", "word_certify", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="summed op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, ROOT)
    t0 = time.perf_counter()
    try:
        setups = [workload.timed_setup() for _ in range(1 if args.trace else SETUP_REPEATS)]
        if args.trace:
            tracer = Tracer()
            res = workload.trace(args.seconds, tracer)
            metrics, details = per_layer(tracer, res)
            consistent = details["children_within_cli_main"]
            trace_file = WORK / f"trace_{args.workload}.tsv"
            tracer.write(trace_file, res.first_pass_spans)
            details["trace_file"] = str(trace_file.relative_to(ROOT))
            units = PER_LAYER
        else:
            res = workload.run(args.seconds)
            metrics, details = end_to_end(res, setups)
            consistent = True
            units = END_TO_END
    finally:
        workload.cleanup()
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "attempted": res.attempted,
        "failed": res.failed,
        "fail_ratio": res.failed / res.attempted,
        "wall_s": time.perf_counter() - t0,
        **details,
    }
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": res.failed == 0 and consistent,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
