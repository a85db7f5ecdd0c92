"""Command-line surface: construct, check, count, search, export.

Exit codes: 0 success, 1 at least one check failed, 2 usage or input
error; a verb's usage errors print ``error: ...`` as input errors do.
stdout carries data only; diagnostics and timing go to stderr.
construct, check, count and search have a machine-readable mode via
--json with stable field names; export writes JSON with --format json.
--threads (default 1) must be >= 1; the work currently runs serially.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from random import Random

from . import checkers, graph_io
from .colored_graph import EdgeColoredGraph
from .constructions import d_star, hypercube, lower_bound_graph
from .corpus import random_proper_graph
from .rainbow import (count_per_edge, enumerate_rainbow_cycles,
                      enumerate_rainbow_paths)
from .search import SearchProblem, probe_color_count, solve

#: Vertex ceiling of check --random: a random graph lists all n(n-1)/2
#: pairs, about 64 MB at n = 1000.
_MAX_RANDOM_N = 1000


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


#: Graph writers by format name, shared by construct and export.
_WRITERS = {
    "cel": graph_io.write_graph_file,
    "dot": graph_io.to_dot,
    "json": lambda g: _json_text(graph_io.graph_to_dict(g)),
}


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
    p.add_argument("--ell", type=int, help="cycle/path length (--input or --random)")
    p.add_argument("--suite", choices=["p5"],
                   help="preset: the length-5 checker set (--input only)")
    p.add_argument("--seed", type=int, help="corpus seed for --random (default 0)")
    p.add_argument("--max-n", type=int,
                   help="vertex ceiling for --random corpora "
                        f"(3..{_MAX_RANDOM_N}, default 10)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("count", help="count rainbow paths or cycles")
    p.add_argument("--input", required=True, help="colored edge-list file ('-' for stdin)")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--cycles", type=int, metavar="ELL",
                      help="count rainbow cycles with ELL edges, with per-edge table")
    kind.add_argument("--paths", type=int, metavar="ELL",
                      help="count rainbow paths with ELL edges")
    p.add_argument("--witnesses", action="store_true", help="list witness lines")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("search", help="exhaustive extremal search at small n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--objective", choices=["edges", "cycles"])
    p.add_argument("--probe-colors", action="store_true",
                   help="tabulate best cycle count per exact number of colors")
    p.add_argument("--colors", type=int, help="restrict to exactly this many colors")
    p.add_argument("--all-optima", action="store_true")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--node-budget", type=int, default=10 ** 9)
    p.add_argument("--time-budget", type=float)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("export", help="convert a graph file to another format")
    p.add_argument("--input", required=True, help="colored edge-list file ('-' for stdin)")
    p.add_argument("--format", choices=list(_WRITERS), required=True)
    p.add_argument("--out", help="write here instead of stdout")
    return parser


def _cmd_construct(args) -> None:
    if args.cube is not None:
        if args.n is not None:
            raise ValueError("--n applies only to --ell constructions")
        g = hypercube(args.cube)
    elif args.n is not None:
        g = lower_bound_graph(args.n, args.ell)
    else:
        g = d_star(args.ell)
    _emit(_WRITERS["json" if args.json else "cel"](g), args.out)
    if args.dot:
        _emit(_WRITERS["dot"](g), args.dot)


def _report_line(r: checkers.CheckReport, prefix: str = "") -> str:
    if r.skipped:
        return f"{prefix}{r.check_name} SKIP reason: {r.reason}"
    verdict = "PASS" if r.holds else "FAIL"
    return (f"{prefix}{r.check_name} {verdict} "
            f"bound={r.bound} observed={r.observed_max}")


def _cmd_check(args) -> tuple:
    source = next(f"--{f}" for f in ("input", "construction", "random")
                  if getattr(args, f) is not None)
    for flag, value, where in (("--suite", args.suite, "--input"),
                               ("--seed", args.seed, "--random"),
                               ("--max-n", args.max_n, "--random"),
                               ("--ell", args.ell, "--input or --random")):
        if value is not None and source not in where:
            raise ValueError(f"{flag} applies only to check {where}")
    if args.suite is not None and args.ell not in (None, 5):
        raise ValueError(f"--suite p5 runs ell = 5, not --ell {args.ell}")
    seed = None
    if args.construction is not None:
        reports = [("", checkers.verify_construction(args.construction))]
    elif args.input is not None:
        ell = 5 if args.suite == "p5" else args.ell
        if ell is None:
            raise ValueError("check --input needs --ell or --suite")
        g = _read_graph(args.input)
        reports = [("", r) for r in checkers.run_suite(g, ell)]
    else:
        if args.ell is None:
            raise ValueError("check --random needs --ell")
        if args.random < 1:
            raise ValueError(f"check --random needs COUNT >= 1, got {args.random}")
        max_n = 10 if args.max_n is None else args.max_n
        if not 3 <= max_n <= _MAX_RANDOM_N:
            raise ValueError(f"--max-n must be in 3..{_MAX_RANDOM_N}, got {max_n}")
        seed = 0 if args.seed is None else args.seed
        rng = Random(seed)
        reports = []
        for i in range(args.random):
            g = random_proper_graph(rng, n=rng.randint(3, max_n))
            reports.extend((f"graph {i} ", r)
                           for r in checkers.run_suite(g, args.ell))
    doc = {"reports": [dict(graph_io.report_to_dict(r), context=pfx.strip())
                       for pfx, r in reports]}
    lines = [_report_line(r, pfx) for pfx, r in reports]
    if seed is not None:
        doc["seed"] = seed
        lines.insert(0, f"seed {seed}")
    return doc, lines, 1 if any(not r.holds for _, r in reports) else 0


def _cmd_count(args) -> tuple:
    g = _read_graph(args.input)
    ell = args.cycles if args.cycles is not None else args.paths
    if args.cycles is not None:
        ws = enumerate_rainbow_cycles(g, ell, threads=args.threads)
        per_edge = count_per_edge(g, ell)  # reuses the cached cycles
        doc = {"kind": "cycles",
               "per_edge": [[u, v, c, per_edge[(u, v)]] for u, v, c in g.edges]}
    else:
        ws = enumerate_rainbow_paths(g, ell, threads=args.threads)
        doc = {"kind": "paths"}
    doc.update(ell=ell, total=len(ws))
    if args.witnesses:
        doc["witnesses"] = [graph_io.witness_line(w) for w in ws]
    # lazy: under --json the per-edge rows are never formatted
    rows = (" ".join(map(str, row)) for row in doc.get("per_edge", ()))
    return doc, chain([f"total {len(ws)}"], rows, doc.get("witnesses", ())), 0


def _cmd_search(args) -> tuple:
    if args.probe_colors:
        for flag, given in (("--objective", args.objective is not None),
                            ("--colors", args.colors is not None),
                            ("--all-optima", args.all_optima),
                            ("--time-budget", args.time_budget is not None)):
            if given:
                raise ValueError(f"--probe-colors does not take {flag}")
        table = probe_color_count(args.n, args.ell, node_budget=args.node_budget,
                                  threads=args.threads)
        doc = {"rows": [list(r) for r in table.rows],
               "exhaustive": table.exhaustive}
        lines = [f"exhaustive {str(table.exhaustive).lower()}"]
        return doc, lines + [f"{k} {v}" for k, v in table.rows], 0
    if args.objective is None:
        raise ValueError("search needs --objective (or --probe-colors)")
    objective = "max_edges" if args.objective == "edges" else "max_rainbow_cycles"
    problem = SearchProblem(
        n=args.n, ell=args.ell, objective=objective, colors=args.colors,
        all_optima=args.all_optima, node_budget=args.node_budget,
        time_budget=args.time_budget, threads=args.threads)
    result = solve(problem)
    print(f"search took {result.stats['wall_time_s']:.3f}s, "
          f"{result.stats['nodes']} nodes", file=sys.stderr)
    lines = [f"value {result.value}",
             f"exhaustive {str(result.exhaustive).lower()}"]
    lines += [f"{key} {result.stats[key]}" for key in (
        "nodes", "levels", "evaluated", "pruned_infeasible",
        "pruned_duplicate", "pruned_bound")]
    if result.witness is not None:
        lines.append("witness:")
        lines += graph_io.write_graph_file(result.witness).splitlines()
    if result.optima is not None:
        lines.append(f"optima {len(result.optima)}")
    return graph_io.result_to_dict(result), lines, 0


def _cmd_export(args) -> None:
    _emit(_WRITERS[args.format](_read_graph(args.input)), args.out)


_COMMANDS = {
    "construct": _cmd_construct,
    "check": _cmd_check,
    "count": _cmd_count,
    "search": _cmd_search,
    "export": _cmd_export,
}


def run(argv=None) -> int:
    """Dispatch one CLI invocation; returns the process exit code.

    construct and export write their own output and return None. The
    other verbs return (JSON document, iterable of text lines, exit code),
    and run writes the document under --json and the lines otherwise."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        printed = _COMMANDS[args.verb](args)
        if printed is None:
            return 0
        doc, lines, code = printed
        sys.stdout.write(_json_text(doc) if args.json
                         else "".join(f"{line}\n" for line in lines))
        return code
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
