"""Command-line interface.

Subcommands:

* ``classify <file>``: embeddability verdict; exit 0 embeddable, 1 not.
* ``partition <file>``: commuting partition or witness triple.
* ``decompose <file>``: canonical group text plus a presentation.
* ``word <file> <w>``: triviality of a word (signed 1-based generators);
  ``word <file> -`` reads one word per line from stdin.
* ``enumerate --max-n <k>``: cross-check report for every order up to k.
* ``random --n <n> [--p <p>] [--seed <s>] [--nb]``: emit a random graph.

Input errors and unknown flags exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache
from typing import Sequence

from .graphio import MAX_VERTICES, LabelMap, emit_edge_list, parse_edge_list, parse_graph6
from .graphs import CommutingPartition, Graph
from .groups import Embeddable, emit_presentation, format_decomposition, verdict
from .harness import MAX_ENUMERATION_N, cross_check, random_graph, random_nb_graph
from .words import format_word, group_model, parse_word


def _load_graph(path: str, fmt: str) -> tuple[Graph, LabelMap]:
    if fmt == "graph6":
        # read as text mode and str.strip read ASCII: CR is a newline, space goes from the ends
        with open(path, "rb") as fh:
            g = parse_graph6(fh.read().replace(b"\r", b"\n").strip(b"\t\n\v\f\x1c\x1d\x1e\x1f "))
        return g, LabelMap.default(g.n)
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _fmt_set(vertices, labels: LabelMap) -> str:
    return "{" + ", ".join(labels.label(v) for v in sorted(vertices)) + "}"


def _fmt_partition(p: CommutingPartition, labels: LabelMap) -> list[str]:
    lines = [f"P0 = {_fmt_set(p.p0, labels)}"]
    lines.extend(
        f"P{k} = {_fmt_set(part, labels)}" for k, part in enumerate(p.parts, start=1)
    )
    return lines


def _fmt_witness(t, labels: LabelMap) -> str:
    return (
        f"witness: edge ({labels.label(t.a)}, {labels.label(t.b)}), "
        f"vertex {labels.label(t.c)} adjacent to neither"
    )


def _classify_json(v) -> str:
    if isinstance(v, Embeddable):
        payload = {
            "embeddable": True,
            "witness": None,
            "partition": {
                "p0": sorted(v.partition.p0),
                "parts": [sorted(part) for part in v.partition.parts],
            },
            "group": asdict(v.group),
            "canonical": format_decomposition(v.group),
        }
    else:
        t = v.witness
        payload = {
            "embeddable": False,
            "witness": {"edge": [t.a, t.b], "nonadjacent": t.c},
            "partition": None,
            "group": None,
            "canonical": None,
        }
    return json.dumps(payload)


def _cmd_classify(args) -> int:
    g, labels = _load_graph(args.file, args.format)
    v = verdict(g)
    if args.json:
        print(_classify_json(v))
        return 0 if isinstance(v, Embeddable) else 1
    if isinstance(v, Embeddable):
        print("embeddable: yes")
        for line in _fmt_partition(v.partition, labels):
            print(line)
        print(f"group: {format_decomposition(v.group)}")
        return 0
    print("embeddable: no")
    print(_fmt_witness(v.witness, labels))
    return 1


def _cmd_partition(args) -> int:
    g, labels = _load_graph(args.file, args.format)
    v = verdict(g)
    if isinstance(v, Embeddable):
        for line in _fmt_partition(v.partition, labels):
            print(line)
        return 0
    print(_fmt_witness(v.witness, labels))
    return 1


def _cmd_decompose(args) -> int:
    g, labels = _load_graph(args.file, args.format)
    v = verdict(g)
    code = 0
    if isinstance(v, Embeddable):
        print(format_decomposition(v.group))
    else:
        print("not a direct product of free groups")
        print(_fmt_witness(v.witness, labels))
        code = 1
    print(f"presentation: {emit_presentation(g)}")
    if not labels.is_default():
        legend = " ".join(f"x{v}={labels.label(v)}" for v in range(g.n))
        print(f"generators: {legend}")
    return code


def _stdin_words(n: int):
    for i, line in enumerate(sys.stdin, start=1):
        try:
            yield parse_word(line, n)
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from None


def _cmd_word(args) -> int:
    g, labels = _load_graph(args.file, args.format)
    # "-" alone: one word per line from stdin, read only once the model is built
    ws = _stdin_words(g.n) if args.word == ["-"] else [parse_word(" ".join(args.word), g.n)]
    v = verdict(g)
    # group_model raises ValueError on the witness of a graph with the pattern
    model = group_model(v.partition if isinstance(v, Embeddable) else v.witness)
    heads = [f"part {_fmt_set(part, labels)}: " for part in v.partition.parts]
    for w in ws:
        nf = model.normal_form(w)
        print("trivial" if nf.is_identity else "nontrivial")
        if nf.abelian_exponents:
            shown = " ".join(f"{labels.label(v)}:{e:+d}" for v, e in nf.abelian_exponents)
            print(f"p0 exponents: {shown}")
        for head, pw in zip(heads, nf.part_words):
            print(head + (format_word(pw) if pw else "1"))
    return 0


def _cmd_enumerate(args) -> int:
    if args.max_n > MAX_ENUMERATION_N:  # before the sweeps below the cap, not after them
        raise ValueError(f"enumeration supports 0 <= n <= {MAX_ENUMERATION_N}, got {args.max_n}")
    reports = [cross_check(n) for n in range(1, args.max_n + 1)]
    if args.json:
        print(json.dumps([asdict(r) for r in reports]))
    else:
        print(f"{'n':>3} {'graphs':>10} {'pattern-free':>13} {'partitionable':>14} {'mismatches':>11}")
        for r in reports:
            print(
                f"{r.n:>3} {r.total_graphs:>10} {r.nb_count:>13} "
                f"{r.gp_count:>14} {len(r.mismatches):>11}"
            )
    return 0 if all(not r.mismatches for r in reports) else 1


def _cmd_random(args) -> int:
    if args.n > MAX_VERTICES:  # no reader would take the graph back
        raise ValueError(f"vertex count {args.n} exceeds the limit of {MAX_VERTICES}")
    if args.nb:
        g = random_nb_graph(args.n, args.seed)
    else:
        g = random_graph(args.n, args.p, args.seed)
    sys.stdout.write(emit_edge_list(g))
    return 0


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file", help="graph file to read")
    sub.add_argument(
        "--format",
        choices=("edgelist", "graph6"),
        default="edgelist",
        help="input format (default: edgelist)",
    )


@cache  # built once per process; parse_args returns a fresh namespace each call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raagv",
        description="Embeddability of graph groups into Thompson's group V.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="decide embeddability of the graph group")
    _add_input_options(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("partition", help="print the commuting partition or a witness")
    _add_input_options(p)
    p.set_defaults(func=_cmd_partition)

    p = subs.add_parser("decompose", help="print the group decomposition and presentation")
    _add_input_options(p)
    p.set_defaults(func=_cmd_decompose)

    p = subs.add_parser("word", help="decide triviality of a word in the graph group")
    _add_input_options(p)
    p.add_argument(
        "word",
        nargs="+",
        help="signed 1-based generator numbers, e.g. '1 3 -1 -3'; "
        "'-' alone reads one word per line from stdin",
    )
    p.set_defaults(func=_cmd_word)

    p = subs.add_parser("enumerate", help="cross-check all deciders on small graphs")
    p.add_argument("--max-n", type=int, required=True, help="largest vertex count")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser("random", help="emit a random graph in edge-list format")
    p.add_argument("--n", type=int, required=True, help="vertex count")
    p.add_argument("--p", type=float, default=0.5, help="edge probability (default 0.5)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--nb", action="store_true", help="sample a pattern-free graph instead")
    p.set_defaults(func=_cmd_random)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
