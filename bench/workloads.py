"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs a closed
loop with one caller in ``run`` (the next op starts when the previous one has
ended) and replays the same inputs under the tracer in ``trace``.  Every op
is checked against the answer known from how its input was built; checks
run between ops and are not timed.  A run makes whole passes over the
workload's ops until the summed op time reaches the requested seconds, so
every run measures the same mix of ops.

Every latency sample is an op's best time over the passes.  On a shared
2-vCPU KVM guest (Xeon, Sapphire Rapids) the speed of a pure-Python loop
flips between a fast and a slow mode, about 1.45 times slower, every 15 to
100 ms, and the share of slow time drifts by 20 % and more within minutes.
An op of a few milliseconds, repeated a hundred times or more, runs in the
fast mode at least once, so over ten seeds its best time spread by 5 to 10 %
there while the mean speed moved by a third.  Ops that outlast many mode
changes follow the drift whatever statistic is taken: ``python -m raagv``
subprocesses (over 100 ms each, start-up alone) spread by up to 21 %.  So
every workload calls the program in-process, on inputs sized to keep each
op near ten milliseconds or less and each pass short.  No statistic helps in the stretches,
tens of seconds long, when the host stays slow throughout: a run that falls
wholly inside one reads up to 1.6 times slower.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
import traceback
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from raagv import cli, harness, matrixrep, words
from raagv.graphs import Graph
from raagv.partition import CommutingPartition

import inputs
from tracing import Tracer

OP_TIMEOUT_S = 60  # far above any op's cost; keeps a hung op inside the run's time limit


@dataclass
class RunResult:
    latencies: list[float]  # seconds per op, one sample per entry
    attempted: int
    failed: int
    busy: float
    passes: int
    sample: str  # what one latency sample is


def best_of_passes(best: list[float] | None, times: list[float]) -> list[float]:
    """Each op's best time so far, given its time in one more pass."""
    return times if best is None else list(map(min, best, times))


@dataclass
class TraceResult:
    attempted: int
    failed: int
    passes: int
    untraced_s: float  # the replayed work without spans
    traced_s: float  # the same work with spans
    output_bytes: int = 0
    startup: list[float] = field(default_factory=list)
    first_pass_spans: int = 0  # passes repeat the same calls; only the first is written out

    def end_pass(self, tracer: Tracer) -> None:
        self.passes += 1
        if self.passes == 1:
            self.first_pass_spans = len(tracer.start)


def _program_env(src: Path) -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=f"{src}{os.pathsep}{path}" if path else str(src),
        PYTHONIOENCODING="utf-8",
    )


def run_child(argv: list[str], env: dict[str, str], cwd: Path, capture: bool) -> tuple[float, int, bytes]:
    """(seconds from launch to exit, exit status, stdout) of a child process.

    The waits block instead of polling, because the sleeps of a polling wait
    would round the measured time up by as much as 50 ms.  A timer kills a
    child that outlives OP_TIMEOUT_S; its status is then negative.
    """
    pipe = subprocess.PIPE if capture else None
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=pipe, stderr=pipe, env=env, cwd=cwd) as proc:
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out, _ = proc.communicate()
        finally:
            timer.cancel()
    return time.perf_counter() - t0, proc.returncode, out or b""


def _pf_blocks(rng: random.Random, n: int) -> inputs.Blocks:
    return inputs.random_blocks(
        rng, n, parts=max(2, n // 30), singletons=2 if n >= 40 else 1, p0=max(1, n // 20)
    )


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, root: Path) -> None:
        self.seed = seed
        self.size = size
        self.root = root
        self.src = root / "src"
        self.workdir = root / ".bench_work" / self.name
        self.env = _program_env(self.src)

    def timed_setup(self) -> float:
        """Build every input from the seed and time a cold start of the
        program's import, as a user's first command pays it."""
        t0 = time.perf_counter()
        self.setup(random.Random(f"{self.name}/{self.seed}"))
        _, code, _ = run_child([sys.executable, "-c", "import raagv.cli"], self.env, self.root, capture=False)
        if code != 0:
            raise RuntimeError(f"importing raagv in a child process exited with {code}")
        return time.perf_counter() - t0

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def setup(self, rng: random.Random) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> RunResult:
        raise NotImplementedError

    def trace(self, seconds: float, tracer: Tracer) -> TraceResult:
        raise NotImplementedError


# --------------------------------------------------------------- classify_files


@dataclass
class Request:
    argv: list[str]
    code: int  # expected exit status
    json: dict | None = None  # expected ``classify --json`` object
    digest: str | None = None  # sha256 of the expected stdout
    random_n: int | None = None  # ``random --nb``: n of the pattern-free graph
    seen: str | None = None  # ``random --nb``: digest of the first verified output


# (command, graph kind, n, file format).  Kinds: "pf" pattern-free,
# "nm" near miss (one pair joined inside the largest part, least witness
# late in edge order), "gnp" G(n, 1/2) (witness on the first edge).
# Most requests are ``classify --json`` on edge lists of n = 40 to 120, where
# parsing is the largest share; n stops at 120 so that no request takes much
# over 10 ms in-process and a pass stays near 0.2 s, so that a 35 s run
# repeats every request some 150 times (see above and ``SWEEP_PLAN``).  Four
# small files (n <= 62) and three each of ``decompose`` and ``random --nb``
# make up the rest.  With 37 requests the median falls among the mid-size
# files and the tail (ten requests beyond it) among the largest near misses,
# pattern-free files and decompose requests.
CLASSIFY_CYCLE = {
    "full": (
        *(("classify", kind, n, "el") for n in range(40, 121, 10) for kind in ("pf", "nm", "gnp")),
        ("classify", "pf", 30, "g6"),
        ("classify", "gnp", 62, "g6"),
        ("classify", "gnp", 60, "el"),
        ("classify", "nm", 40, "el"),
        *(("decompose", "pf", n, "el") for n in (60, 90, 120)),
        *(("random", "pf", n, None) for n in (60, 90, 120)),
    ),
    "tiny": (
        ("classify", "pf", 40, "el"),
        ("classify", "nm", 40, "el"),
        ("classify", "gnp", 30, "g6"),
        ("decompose", "pf", 30, "el"),
        ("random", "pf", 30, None),
    ),
}


class ClassifyFiles(Workload):
    """One op is one ``cli.main(argv)`` call on a generated file, in-process
    with its output captured; the traced run also launches each request as a
    ``python -m raagv ...`` subprocess to measure the start-up it adds."""

    name = "classify_files"

    def setup(self, rng: random.Random) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.requests = []
        for i, (command, kind, n, fmt) in enumerate(CLASSIFY_CYCLE[self.size]):
            if command == "random":
                argv = ["random", "--n", str(n), "--nb", "--seed", str(rng.randrange(10**6))]
                self.requests.append(Request(argv, 0, random_n=n))
                continue
            if kind == "gnp":
                adj = inputs.random_adjacency(rng, n)
                witness = inputs.least_witness(n, adj)
                while witness is None:
                    adj = inputs.random_adjacency(rng, n)
                    witness = inputs.least_witness(n, adj)
            else:
                blocks = _pf_blocks(rng, n)
                adj = blocks.adjacency()
                witness = inputs.join_inside_largest_part(blocks, adj) if kind == "nm" else None
            path = self.workdir / f"{i:02d}-{kind}-{n}.{fmt}"
            text = inputs.graph6_text(n, adj) if fmt == "g6" else inputs.edge_list_text(n, adj)
            path.write_text(text, encoding="utf-8")
            fmt_args = ["--format", "graph6"] if fmt == "g6" else []
            if command == "decompose":
                req = Request(["decompose", str(path), *fmt_args], 0, digest=inputs.decompose_digest(blocks, adj))
            elif witness is None:
                req = Request(["classify", "--json", str(path), *fmt_args], 0, json=inputs.classify_json_positive(blocks))
            else:
                req = Request(["classify", "--json", str(path), *fmt_args], 1, json=inputs.classify_json_negative(witness))
            self.requests.append(req)

    def check(self, req: Request, code: int | None, out: bytes) -> bool:
        ok = self._check(req, code, out)
        if not ok:
            print(f"failed: raagv {' '.join(req.argv)} (exit {code})", file=sys.stderr)
        return ok

    def _check(self, req: Request, code: int | None, out: bytes) -> bool:
        if code != req.code:
            return False
        if req.json is not None:
            try:
                return out.endswith(b"\n") and out.count(b"\n") == 1 and json.loads(out) == req.json
            except ValueError:
                return False
        digest = hashlib.sha256(out).hexdigest()
        if req.digest is not None:
            return digest == req.digest
        if req.seen is not None:
            return digest == req.seen
        parsed = inputs.read_edge_list(out.decode("utf-8", "replace"))
        ok = parsed is not None and parsed[0] == req.random_n and inputs.is_pattern_free(*parsed)
        if ok:
            req.seen = digest
        return ok

    def _subprocess(self, req: Request) -> tuple[float, int, bytes]:
        return run_child([sys.executable, "-m", "raagv", *req.argv], self.env, self.root, capture=True)

    @staticmethod
    def _in_process(main, argv: list[str]) -> tuple[float, int | None, bytes]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        except Exception:
            traceback.print_exc()
            code = None
        return time.perf_counter() - t0, code, out.getvalue().encode("utf-8")

    def run(self, seconds: float) -> RunResult:
        best = None
        failed = passes = 0
        busy = 0.0
        while passes == 0 or busy < seconds:
            times = []
            for req in self.requests:
                t, code, out = self._in_process(cli.main, req.argv)
                times.append(t)
                failed += not self.check(req, code, out)
            best = best_of_passes(best, times)
            busy += sum(times)
            passes += 1
        return RunResult(
            best, passes * len(self.requests), failed, busy, passes,
            f"best of {passes} passes of one in-process cli.main call",
        )

    def trace(self, seconds: float, tracer: Tracer) -> TraceResult:
        """Per request: the subprocess, then ``cli.main`` in-process without
        and with spans.  Whole passes over the requests until ``seconds``."""
        res = TraceResult(0, 0, 0, 0.0, 0.0)
        t0 = time.perf_counter()
        while res.passes == 0 or time.perf_counter() - t0 < seconds:
            for req in self.requests:
                t_sub, code, out = self._subprocess(req)
                ok = self.check(req, code, out)
                t_un, code, out = self._in_process(cli.main, req.argv)
                ok &= self.check(req, code, out)
                tracer.request_id = res.attempted
                with tracer.installed() as wrapped:
                    t_tr, code, out = self._in_process(wrapped["cli.main"], req.argv)
                tracer.flush()
                ok &= self.check(req, code, out)
                res.attempted += 1
                res.failed += not ok
                res.untraced_s += t_un
                res.traced_s += t_tr
                res.output_bytes += len(out)
                res.startup.append(t_sub - t_un)
            res.end_pass(tracer)
        return res


# ----------------------------------------------------------------- word_certify

# Short words run on pattern-free graphs of these sizes, one trivial and
# one nontrivial word per graph per pass; the graphs stop at n = 150 so that
# each short op (mostly the rebuilt canonical partition) stays near 5 ms.
# Long words run on graphs with four parts, spread evenly through the pass.
# Their cost grows faster than their length (10^4 letters take some 25 ms,
# 8*10^4 over a second); at 4*10^3 letters they take about 8 ms, above
# every short op, and a pass about 0.25 s, so that a 35 s run repeats
# every op over a hundred times (see above; with words of 10^4 letters, 55
# passes, ops_per_s and the tail spread by over 20 % over ten seeds).  With
# 22 short and 12 long ops, the median falls among the short words and the
# tail (ten ops beyond it) among the long ones.
WORD_PLAN = {
    "full": {
        "short_n": (50, 150, 75, 125, 100, 60, 90, 110, 140, 70, 130),
        "short_len": (20, 60),
        "long_n": (48, 56),
        "long_len": tuple((4_000 + 50 * i, i % 2 == 0) for i in range(12)),
    },
    "tiny": {
        "short_n": (12, 20, 16),
        "short_len": (10, 20),
        "long_n": (12,),
        "long_len": ((200, True), (400, False)),
    },
}


class WordCertify(Workload):
    """One op is ``words.normal_form`` on (graph, word), certified by
    ``matrixrep.evaluate_word`` on the block structure the graph was built
    from.  Both must give the triviality known from the word's construction."""

    name = "word_certify"

    def setup(self, rng: random.Random) -> None:
        plan = WORD_PLAN[self.size]
        self.graphs: list[tuple[Graph, CommutingPartition]] = []
        owners = []
        for n in plan["short_n"]:
            self._add_graph(
                inputs.random_blocks(rng, n, parts=max(2, n // 12), singletons=1, p0=max(1, n // 20)),
                owners,
            )
        short_ops = []
        for gi in range(len(self.graphs)):
            for trivial in (True, False):
                length = rng.randint(*plan["short_len"])
                short_ops.append((gi, inputs.make_word(rng, owners[gi], length, trivial), trivial))
        long_ops = []
        for i, (length, trivial) in enumerate(plan["long_len"]):
            gi = len(self.graphs)
            n = plan["long_n"][i % len(plan["long_n"])]
            self._add_graph(inputs.random_blocks(rng, n, parts=4, singletons=0, p0=2), owners)
            long_ops.append((gi, inputs.make_word(rng, owners[gi], length, trivial), trivial))
        stride = len(short_ops) // len(long_ops)
        plan_ops = []
        for i, op in enumerate(long_ops):
            plan_ops += short_ops[i * stride : (i + 1) * stride] + [op]
        plan_ops += short_ops[len(long_ops) * stride :]
        self.ops = [
            (gi, tuple(words.Letter(v, s) for v, s in w), trivial) for gi, w, trivial in plan_ops
        ]

    def _add_graph(self, b: inputs.Blocks, owners: list) -> None:
        p0, parts = b.canonical()
        known = CommutingPartition(frozenset(p0), tuple(frozenset(p) for p in parts))
        self.graphs.append((Graph(b.n, tuple(b.adjacency())), known))
        owners.append(b.owner())

    def _op(self, normal_form, evaluate_word, op) -> tuple[float, bool]:
        gi, w, trivial = op
        g, known = self.graphs[gi]
        t0 = time.perf_counter()
        try:
            nf = normal_form(g, w)
            image = evaluate_word(known, w)
        except Exception:
            t = time.perf_counter() - t0
            traceback.print_exc()
            return t, False
        t = time.perf_counter() - t0
        return t, nf.is_identity == trivial and image.is_identity == trivial

    def run(self, seconds: float) -> RunResult:
        best = None
        failed = passes = 0
        busy = 0.0
        while passes == 0 or busy < seconds:
            times = []
            for op in self.ops:
                t, ok = self._op(words.normal_form, matrixrep.evaluate_word, op)
                times.append(t)
                failed += not ok
            best = best_of_passes(best, times)
            busy += sum(times)
            passes += 1
        return RunResult(
            best, passes * len(self.ops), failed, busy, passes,
            f"best of {passes} passes of one normal_form plus evaluate_word",
        )

    def trace(self, seconds: float, tracer: Tracer) -> TraceResult:
        """Whole passes over the ops, each op once without and once with spans."""
        res = TraceResult(0, 0, 0, 0.0, 0.0)
        t0 = time.perf_counter()
        while res.passes == 0 or time.perf_counter() - t0 < seconds:
            for op in self.ops:
                t_un, ok = self._op(words.normal_form, matrixrep.evaluate_word, op)
                tracer.request_id = res.attempted
                with tracer.installed() as wrapped:
                    t_tr, ok_tr = self._op(wrapped["words.normal_form"], wrapped["matrixrep.evaluate_word"], op)
                tracer.flush()
                res.attempted += 1
                res.failed += not (ok and ok_tr)
                res.untraced_s += t_un
                res.traced_s += t_tr
            res.end_pass(tracer)
        return res


# ------------------------------------------------------------------------ sweep

# (n, graphs per latency sample, dividing 2^(n(n-1)/2)).  n = 5: a sweep of
# its 1024 graphs takes under 0.1 s, so a run repeats every slice some 400
# times.  The 32,768 graphs of n = 6 take 2.5 s a sweep, a dozen passes a
# run: in a busy period of the host, runs of n = 5 and n = 6 taken in turn
# read 19,200 to 22,000 and 11,400 to 18,000 graphs/s.
SWEEP_PLAN = {"full": (5, 16), "tiny": (4, 8)}


def bell(n: int) -> int:
    """Bell number by the Bell triangle: the count of pattern-free labeled
    graphs on n vertices (one per set partition)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


class Sweep(Workload):
    """One op is one graph put through the three deciders by
    ``harness.cross_check(n)``, which visits every labeled graph on n
    vertices."""

    name = "sweep"

    def setup(self, rng: random.Random) -> None:
        # The input is every graph on n vertices, so the seed selects nothing.
        self.n, self.slice = SWEEP_PLAN[self.size]
        self.total = 1 << (self.n * (self.n - 1) // 2)
        self.bell = bell(self.n)
        harness.cross_check(self.n - 2)

    def errors(self, report) -> int:
        """Wrong graph decisions a report shows, at most one pass's graphs."""
        wrong = (
            len(report.mismatches)
            + abs(report.nb_count - self.bell)
            + abs(report.gp_count - self.bell)
            + abs(report.total_graphs - self.total)
        )
        return min(wrong, self.total)

    def run(self, seconds: float) -> RunResult:
        """Time every graph by stamping the clock each time cross_check draws
        the next graph from ``harness.enumerate_graphs``.  A single graph
        takes tens of microseconds, below the clock's and the scheduler's
        noise, so one latency sample is the mean over a slice of consecutive
        graphs, taken from the pass where that slice ran fastest."""
        stamps = array("d")
        enumerate_graphs = harness.enumerate_graphs

        def stamped(n):
            stamps.append(time.perf_counter())
            for g in enumerate_graphs(n):
                yield g
                stamps.append(time.perf_counter())

        best = None
        failed = passes = 0
        busy = 0.0
        harness.enumerate_graphs = stamped
        try:
            while passes == 0 or busy < seconds:
                del stamps[:]
                t0 = time.perf_counter()
                report = harness.cross_check(self.n)
                busy += time.perf_counter() - t0
                if len(stamps) != self.total + 1:
                    raise RuntimeError("cross_check no longer draws its graphs from harness.enumerate_graphs")
                best = best_of_passes(
                    best, [(stamps[j + self.slice] - stamps[j]) / self.slice for j in range(0, self.total, self.slice)]
                )
                failed += self.errors(report)
                passes += 1
        finally:
            harness.enumerate_graphs = enumerate_graphs
        return RunResult(
            best, passes * self.total, failed, busy, passes,
            f"best of {passes} passes of the mean per graph over {self.slice} consecutive graphs",
        )

    def trace(self, seconds: float, tracer: Tracer) -> TraceResult:
        """Whole sweeps, each once without and once with spans."""
        res = TraceResult(0, 0, 0, 0.0, 0.0)
        t0 = time.perf_counter()
        while res.passes == 0 or time.perf_counter() - t0 < seconds:
            t1 = time.perf_counter()
            untraced = harness.cross_check(self.n)
            res.untraced_s += time.perf_counter() - t1
            tracer.request_id = res.passes
            with tracer.installed() as wrapped:
                t1 = time.perf_counter()
                traced = wrapped["harness.cross_check"](self.n)
                res.traced_s += time.perf_counter() - t1
            tracer.flush()
            res.attempted += self.total
            res.failed += max(self.errors(untraced), self.errors(traced))
            res.end_pass(tracer)
        return res


WORKLOADS = {w.name: w for w in (ClassifyFiles, WordCertify, Sweep)}
