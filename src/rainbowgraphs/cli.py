"""Command-line surface: construct, check, count, search, export.

Exit codes: 0 success, 1 at least one check failed, 2 usage or input
error. stdout carries data only; diagnostics and timing go to stderr.
Every verb has a machine-readable mode via --json with stable field
names. --threads (default: the RAINBOWGRAPHS_THREADS environment
variable) must be >= 1; the work currently runs serially.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from random import Random

from . import checkers, graph_io
from .colored_graph import EdgeColoredGraph
from .constructions import d_star, hypercube, lower_bound_graph
from .corpus import random_proper_graph
from .rainbow import (count_per_edge, enumerate_rainbow_cycles,
                      enumerate_rainbow_paths)
from .search import SearchProblem, probe_color_count, solve

_THREADS_ENV = "RAINBOWGRAPHS_THREADS"


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get(_THREADS_ENV, "1")))
    except ValueError:
        return 1


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_graph(path: str) -> EdgeColoredGraph:
    if path == "-":
        return graph_io.parse_graph_file(sys.stdin.read())
    with open(path, encoding="utf-8") as fh:
        return graph_io.parse_graph_file(fh.read())


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowgraphs",
        description="Toolkit for rainbow paths and cycles in properly "
                    "edge-colored graphs.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("construct", help="emit a lower-bound construction")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--ell", type=int,
                      help="diagonal construction parameter (block size 2^(ell-1))")
    what.add_argument("--cube", type=int, metavar="D",
                      help="plain hypercube of dimension D instead")
    p.add_argument("--n", type=int,
                   help="with --ell: total vertex count (disjoint blocks plus "
                        "isolated padding)")
    p.add_argument("--out", help="write here instead of stdout")
    p.add_argument("--dot", metavar="FILE", help="also write a DOT rendering")
    p.add_argument("--json", action="store_true", help="emit JSON instead of edge list")

    p = sub.add_parser("check", help="run bound checkers, exit 1 on failure")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="colored edge-list file ('-' for stdin)")
    src.add_argument("--construction", type=int, metavar="ELL",
                     help="self-check the diagonal construction")
    src.add_argument("--random", type=int, metavar="COUNT",
                     help="run the suite over COUNT seeded random proper colorings")
    p.add_argument("--ell", type=int, help="cycle/path length parameter")
    p.add_argument("--suite", choices=["p5"],
                   help="preset: the length-5 checker set")
    p.add_argument("--seed", type=int, default=0, help="corpus seed for --random")
    p.add_argument("--max-n", type=int, default=10,
                   help="vertex ceiling for --random corpora")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("count", help="count rainbow paths or cycles")
    p.add_argument("--input", required=True, help="colored edge-list file ('-' for stdin)")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--cycles", type=int, metavar="ELL",
                      help="count rainbow cycles with ELL edges, with per-edge table")
    kind.add_argument("--paths", type=int, metavar="ELL",
                      help="count rainbow paths with ELL edges")
    p.add_argument("--witnesses", action="store_true", help="list witness lines")
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("search", help="exhaustive extremal search at small n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--objective", choices=["edges", "cycles"])
    p.add_argument("--probe-colors", action="store_true",
                   help="tabulate best cycle count per exact number of colors")
    p.add_argument("--colors", type=int, help="restrict to exactly this many colors")
    p.add_argument("--all-optima", action="store_true")
    p.add_argument("--threads", type=int, default=_default_threads())
    p.add_argument("--node-budget", type=int, default=10 ** 9)
    p.add_argument("--time-budget", type=float)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("export", help="convert a graph file to another format")
    p.add_argument("--input", required=True, help="colored edge-list file ('-' for stdin)")
    p.add_argument("--format", choices=["cel", "dot", "json"], required=True)
    p.add_argument("--out", help="write here instead of stdout")
    return parser


def _cmd_construct(args) -> int:
    if args.cube is not None:
        if args.n is not None:
            print("--n applies only to --ell constructions", file=sys.stderr)
            return 2
        g = hypercube(args.cube)
    elif args.n is not None:
        g = lower_bound_graph(args.n, args.ell)
    else:
        g = d_star(args.ell)
    text = _json_text(graph_io.graph_to_dict(g)) if args.json \
        else graph_io.write_graph_file(g)
    _emit(text, args.out)
    if args.dot:
        _emit(graph_io.to_dot(g), args.dot)
    return 0


def _report_line(r: checkers.CheckReport, prefix: str = "") -> str:
    if r.skipped:
        return f"{prefix}{r.check_name} SKIP reason: {r.reason}"
    verdict = "PASS" if r.holds else "FAIL"
    return (f"{prefix}{r.check_name} {verdict} "
            f"bound={r.bound} observed={r.observed_max}")


def _cmd_check(args) -> int:
    if args.construction is not None:
        reports = [("", checkers.verify_construction(args.construction))]
        seed = None
    elif args.input is not None:
        ell = 5 if args.suite == "p5" else args.ell
        if ell is None:
            print("check --input needs --ell or --suite", file=sys.stderr)
            return 2
        g = _read_graph(args.input)
        reports = [("", r) for r in checkers.run_suite(g, ell)]
        seed = None
    else:
        if args.ell is None:
            print("check --random needs --ell", file=sys.stderr)
            return 2
        seed = args.seed
        rng = Random(seed)
        reports = []
        for i in range(args.random):
            g = random_proper_graph(rng, n=rng.randint(3, args.max_n))
            reports.extend((f"graph {i} ", r)
                           for r in checkers.run_suite(g, args.ell))
    failed = any(not r.holds for _, r in reports)
    if args.json:
        doc = {"reports": [dict(graph_io.report_to_dict(r), context=pfx.strip())
                           for pfx, r in reports]}
        if seed is not None:
            doc["seed"] = seed
        sys.stdout.write(_json_text(doc))
    else:
        if seed is not None:
            print(f"seed {seed}")
        for pfx, r in reports:
            print(_report_line(r, pfx))
    return 1 if failed else 0


def _cmd_count(args) -> int:
    g = _read_graph(args.input)
    if args.cycles is not None:
        ws = enumerate_rainbow_cycles(g, args.cycles, threads=args.threads)
        per_edge = count_per_edge(g, args.cycles)  # reuses the cached cycles
        ell, kind = args.cycles, "cycles"
        table = [[u, v, c, per_edge[(u, v)]] for u, v, c in g.edges]
    else:
        ws = enumerate_rainbow_paths(g, args.paths, threads=args.threads)
        ell, kind = args.paths, "paths"
        table = None
    if args.json:
        doc = {"kind": kind, "ell": ell, "total": len(ws)}
        if table is not None:
            doc["per_edge"] = table
        if args.witnesses:
            doc["witnesses"] = [graph_io.witness_line(w) for w in ws]
        sys.stdout.write(_json_text(doc))
    else:
        print(f"total {len(ws)}")
        if table is not None:
            for row in table:
                print(" ".join(map(str, row)))
        if args.witnesses:
            for w in ws:
                print(graph_io.witness_line(w))
    return 0


def _cmd_search(args) -> int:
    if args.probe_colors:
        table = probe_color_count(args.n, args.ell, node_budget=args.node_budget,
                                  threads=args.threads)
        if args.json:
            doc = {"rows": [list(r) for r in table.rows],
                   "exhaustive": table.exhaustive}
            sys.stdout.write(_json_text(doc))
        else:
            print(f"exhaustive {str(table.exhaustive).lower()}")
            for k, v in table.rows:
                print(f"{k} {v}")
        return 0
    if args.objective is None:
        print("search needs --objective (or --probe-colors)", file=sys.stderr)
        return 2
    objective = "max_edges" if args.objective == "edges" else "max_rainbow_cycles"
    problem = SearchProblem(
        n=args.n, ell=args.ell, objective=objective, colors=args.colors,
        all_optima=args.all_optima, node_budget=args.node_budget,
        time_budget=args.time_budget, threads=args.threads)
    result = solve(problem)
    print(f"search took {result.stats['wall_time_s']:.3f}s, "
          f"{result.stats['nodes']} nodes", file=sys.stderr)
    if args.json:
        sys.stdout.write(_json_text(graph_io.result_to_dict(result)))
    else:
        print(f"value {result.value}")
        print(f"exhaustive {str(result.exhaustive).lower()}")
        for key in ("nodes", "levels", "evaluated", "pruned_infeasible",
                    "pruned_duplicate", "pruned_bound"):
            print(f"{key} {result.stats[key]}")
        if result.witness is not None:
            print("witness:")
            sys.stdout.write(graph_io.write_graph_file(result.witness))
        if result.optima is not None:
            print(f"optima {len(result.optima)}")
    return 0


def _cmd_export(args) -> int:
    g = _read_graph(args.input)
    if args.format == "dot":
        text = graph_io.to_dot(g)
    elif args.format == "json":
        text = _json_text(graph_io.graph_to_dict(g))
    else:
        text = graph_io.write_graph_file(g)
    _emit(text, args.out)
    return 0


_COMMANDS = {
    "construct": _cmd_construct,
    "check": _cmd_check,
    "count": _cmd_count,
    "search": _cmd_search,
    "export": _cmd_export,
}


def run(argv=None) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.verb](args)
    except BrokenPipeError:
        raise  # downstream consumer gone; let main() quiet it
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
    except BrokenPipeError:
        # e.g. piped into head; suppress the traceback and the
        # interpreter's close-time flush error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
