"""Command-line interface.

Subcommands:

* ``classify <file>``: embeddability verdict; exit 0 embeddable, 1 not.
* ``partition <file>``: commuting partition or witness triple.
* ``decompose <file>``: canonical group text plus a presentation.
* ``word <file> <w>``: triviality of a word (signed 1-based generators);
  ``word <file> -`` reads one word per line from stdin.
* ``enumerate --max-n <k>``: cross-check report for every order up to k.
* ``random --n <n> [--p <p>] [--seed <s>] [--nb]``: emit a random graph.

The four file subcommands share one path in ``main``: it loads the graph
(a graph6 file may open with the spec's ``>>graph6<<`` header), takes its
verdict once and hands both to the subcommand.  ``partition`` prints the
partition or the witness, and ``classify`` prints the same lines between its
verdict and group lines.  Input errors and unknown flags exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache
from typing import Sequence

from .graphio import MAX_VERTICES, LabelMap, emit_edge_list, parse_edge_list, parse_graph6
from .graphs import Graph
from .groups import Embeddable, Verdict, emit_presentation, format_decomposition, verdict
from .harness import MAX_ENUMERATION_N, cross_check, random_graph, random_nb_graph
from .words import format_word, group_model, parse_word


def _load_graph(path: str, fmt: str) -> tuple[Graph, LabelMap]:
    if fmt == "graph6":
        # read as text mode and str.strip read ASCII: CR is a newline, space goes from the ends
        with open(path, "rb") as fh:
            data = fh.read().replace(b"\r", b"\n").strip(b"\t\n\v\f\x1c\x1d\x1e\x1f ")
        # the spec's optional header, with no end of line after it
        g = parse_graph6(data.removeprefix(b">>graph6<<"))
        return g, LabelMap.default(g.n)
    # utf-8-sig drops a byte-order mark that some editors write at the start
    with open(path, encoding="utf-8-sig") as fh:
        return parse_edge_list(fh.read())


def _fmt_set(vertices, labels: LabelMap) -> str:
    return "{" + ", ".join(labels.label(v) for v in sorted(vertices)) + "}"


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
        payload = {
            "embeddable": False,
            "witness": {"edge": [v.a, v.b], "nonadjacent": v.c},
            "partition": None,
            "group": None,
            "canonical": None,
        }
    return json.dumps(payload)


def _cmd_partition(args, g: Graph, labels: LabelMap, v: Verdict) -> int:
    """Print the partition lines or the witness line; return the exit status."""
    if isinstance(v, Embeddable):
        print(f"P0 = {_fmt_set(v.partition.p0, labels)}")
        for k, part in enumerate(v.partition.parts, start=1):
            print(f"P{k} = {_fmt_set(part, labels)}")
        return 0
    print(_fmt_witness(v, labels))
    return 1


def _cmd_classify(args, g: Graph, labels: LabelMap, v: Verdict) -> int:
    if args.json:
        print(_classify_json(v))
        return 0 if isinstance(v, Embeddable) else 1
    print(f"embeddable: {'yes' if isinstance(v, Embeddable) else 'no'}")
    code = _cmd_partition(args, g, labels, v)
    if isinstance(v, Embeddable):
        print(f"group: {format_decomposition(v.group)}")
    return code


def _cmd_decompose(args, g: Graph, labels: LabelMap, v: Verdict) -> int:
    if isinstance(v, Embeddable):
        print(format_decomposition(v.group))
    else:
        print("not a direct product of free groups")
        print(_fmt_witness(v, labels))
    print(f"presentation: {emit_presentation(g)}")
    if not labels.is_default():
        legend = " ".join(f"x{u}={labels.label(u)}" for u in range(g.n))
        print(f"generators: {legend}")
    return 0 if isinstance(v, Embeddable) else 1


def _stdin_words(n: int):
    for i, line in enumerate(sys.stdin, start=1):
        try:
            yield parse_word(line, n)
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from None


def _cmd_word(args, g: Graph, labels: LabelMap, v: Verdict) -> int:
    # "-" alone: one word per line from stdin, read only once the model is built
    ws = _stdin_words(g.n) if args.word == ["-"] else [parse_word(" ".join(args.word), g.n)]
    # group_model raises ValueError on the witness of a graph with the pattern
    model = group_model(v.partition if isinstance(v, Embeddable) else v)
    heads = [f"part {_fmt_set(part, labels)}: " for part in v.partition.parts]
    for w in ws:
        nf = model.normal_form(w)
        print("trivial" if nf.is_identity else "nontrivial")
        if nf.abelian_exponents:
            shown = " ".join(f"{labels.label(u)}:{e:+d}" for u, e in nf.abelian_exponents)
            print(f"p0 exponents: {shown}")
        for head, pw in zip(heads, nf.part_words):
            print(head + (format_word(pw) if pw else "1"))
    return 0


def _cmd_enumerate(args) -> int:
    if not 0 <= args.max_n <= MAX_ENUMERATION_N:  # before any sweep, not after those in range
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
        if "file" not in args:  # enumerate and random read no graph
            return args.func(args)
        g, labels = _load_graph(args.file, args.format)
        return args.func(args, g, labels, verdict(g))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
