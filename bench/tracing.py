"""Spans around calls into the program's public layer functions.

The benchmark replaces each traced function, in every ``raagv`` module that
holds a reference to it, with a wrapper that records a span: name, start,
end, parent span and request id.  Calls the program makes between its own
layers therefore nest as they do in the code.  Spans live in flat arrays in
memory and are written out once, when the run ends.

A few layers also report work counts.  The wrapper only keeps a reference to
the call's arguments and result; the counts are computed in :meth:`Tracer.flush`
after the request, so that no span pays for them.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

# (module, function) pairs whose calls open a span, named "<module>.<function>".
TRACED = (
    ("graphio", "parse_edge_list"),
    ("graphio", "parse_graph6"),
    ("graphio", "emit_edge_list"),
    ("graphs", "universal_vertices"),
    ("classify", "recognize_multipartite"),
    ("classify", "find_forbidden_triple"),
    ("partition", "canonical_partition"),
    ("partition", "greedy_partition"),
    ("partition", "validate_partition"),
    ("groups", "verdict"),
    ("groups", "emit_presentation"),
    ("words", "normal_form"),
    ("matrixrep", "evaluate_word"),
    ("harness", "enumerate_graphs"),
    ("harness", "cross_check"),
    ("cli", "main"),
)

# Layers whose arguments and results feed a work count.
OBSERVED = {
    "graphio.parse_edge_list",
    "classify.recognize_multipartite",
    "classify.find_forbidden_triple",
    "words.normal_form",
    "matrixrep.evaluate_word",
}

GENERATORS = {"harness.enumerate_graphs"}


def edge_rank(adj: tuple[int, ...], a: int, b: int) -> int:
    """1-based position of edge (a, b), a < b, in lexicographic edge order."""
    before = sum((adj[u] >> (u + 1)).bit_count() for u in range(a))
    return before + (adj[a] >> (a + 1) & ((1 << (b - a - 1)) - 1)).bit_count() + 1


class Tracer:
    """Span store plus the work counts derived from observed calls."""

    def __init__(self) -> None:
        self.names = [f"{m}.{f}" for m, f in TRACED]
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.current = -1
        self.request_id = -1
        self.pending: list[tuple[str, tuple, Any]] = []
        self.counts = {
            "parse_bytes": 0,
            "recognize_rejects": 0,
            "edges_scanned": 0,
            "nf_letters": 0,
            "ev_letters": 0,
            "max_entry_bits": 0,
        }

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_id.append(name_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self.current)
        self.request.append(self.request_id)
        self.current = sid
        return sid

    def _wrap(self, name_id: int, fn: Callable) -> Callable:
        name = self.names[name_id]
        observed = name in OBSERVED
        tracer = self

        if name in GENERATORS:

            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = tracer._open(name_id)
                    tracer.start[sid] = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.end[sid] = time.perf_counter()
                        tracer.current = tracer.parent[sid]
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            sid = tracer._open(name_id)
            tracer.start[sid] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = time.perf_counter()
                tracer.current = tracer.parent[sid]
            if observed:
                tracer.pending.append((name, args, result))
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[dict[str, Callable]]:
        """Swap every traced function for its wrapper in all loaded ``raagv``
        modules, yielding the wrappers by span name; restore on exit."""
        mods = [m for k, m in sys.modules.items() if k == "raagv" or k.startswith("raagv.")]
        swapped = []
        wrappers = {}
        for name_id, (mod_name, fn_name) in enumerate(TRACED):
            fn = getattr(sys.modules[f"raagv.{mod_name}"], fn_name)
            wrapper = self._wrap(name_id, fn)
            wrappers[self.names[name_id]] = wrapper
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        swapped.append((mod, attr, fn))
        try:
            yield wrappers
        finally:
            for mod, attr, fn in swapped:
                setattr(mod, attr, fn)

    def flush(self) -> None:
        """Turn the observed calls of the finished request into work counts."""
        c = self.counts
        for name, args, result in self.pending:
            if name == "graphio.parse_edge_list":
                c["parse_bytes"] += len(args[0].encode())
            elif name == "classify.recognize_multipartite":
                c["recognize_rejects"] += result is None
            elif name == "classify.find_forbidden_triple":
                g = args[0]
                if result is None:
                    c["edges_scanned"] += sum(m.bit_count() for m in g.adj) // 2
                else:
                    c["edges_scanned"] += edge_rank(g.adj, result.a, result.b)
            elif name == "words.normal_form":
                c["nf_letters"] += len(args[1])
            elif name == "matrixrep.evaluate_word":
                c["ev_letters"] += len(args[1])
                bits = max(abs(x).bit_length() for m in result.part_matrices for row in m for x in row)
                c["max_entry_bits"] = max(c["max_entry_bits"], bits)
        self.pending.clear()

    def busy(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total span time and span count per name."""
        busy = dict.fromkeys(self.names, 0.0)
        calls = dict.fromkeys(self.names, 0)
        for i, name_id in enumerate(self.name_id):
            name = self.names[name_id]
            busy[name] += self.end[i] - self.start[i]
            calls[name] += 1
        return busy, calls

    def children_within_parent(self, parent_name: str) -> bool:
        """For every span called ``parent_name``, its direct children's time
        adds up to no more than its own."""
        pid = self.names.index(parent_name)
        child_time: dict[int, float] = {}
        for i, p in enumerate(self.parent):
            if p >= 0 and self.name_id[p] == pid:
                child_time[p] = child_time.get(p, 0.0) + self.end[i] - self.start[i]
        return all(t <= self.end[p] - self.start[p] for p, t in child_time.items())

    def write(self, path: Path, count: int) -> None:
        """Write the first ``count`` spans as tab-separated text."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\trequest\n")
            names = self.names
            for i in range(count):
                fh.write(
                    f"{i}\t{names[self.name_id[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.request[i]}\n"
                )
