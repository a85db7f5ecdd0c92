"""The benchmark's four workloads: seeded inputs, timed operations, checks.

A workload is a closed loop: one caller issues one operation at a time and
waits for it. Operations are grouped in rounds; round r of a run uses the
r-th entry (cyclically) of a pool of rounds made at set-up from the seed,
so the same seed gives the same inputs. Graphs are stored as plain edge
lists and built afresh before every operation, outside its timed span,
because canonical_form, enumerate_rainbow_cycles and has_rainbow_path
memoize their result on the graph object.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import sys
from dataclasses import dataclass, field
from random import Random
from typing import Callable

import oracles

#: Rounds made at set-up; runs longer than this reuse them cyclically.
POOL = 48

#: Exhaustive search grid: name -> (n, ell, objective). Every optimum is
#: 12 (frozen: exact values proven by this search and by the test suite).
GRID = {
    "n8l3-edges": (8, 3, "max_edges"),
    "n7l4-cycles": (7, 4, "max_rainbow_cycles"),
    "n6l5-cycles": (6, 5, "max_rainbow_cycles"),
    "n5l5-cycles": (5, 5, "max_rainbow_cycles"),
}
SEARCH_VALUE = 12
THREADS2_GRID = ("n7l4-cycles", "n6l5-cycles")
#: Cycle enumerations on d_star(7) per search-threads2 round: more than the
#: solves, so the median operation falls in this short kind. A median over
#: three long solves per run moved with the host's load.
THREADS2_CYCLES = 12

#: Expected run_suite verdicts on lower_bound_graph(64, 5): name, holds,
#: skipped, observed maximum.
LB64_VERDICTS = (
    ("k_color_edge_bound", True, False, 24),
    ("degree_on_cycle_vertices", True, False, 5),
    ("general_upper_per_edge", True, False, 24),
    ("p5_edge_bound", True, False, 24),
    ("p5_max_degree", True, False, 5),
    ("avg_degree_on_v_prime", True, False, 5),
)
#: Rainbow paths with 5 edges in d_star(6); the self-test recounts it by
#: brute force.
D6_PATHS5 = 11520
CORPUS_PER_ELL = 10
BETWEEN_PER_ROUND = 16
RANDOM_PAIRS_PER_ROUND = 10  # per density, sparse and dense


@dataclass(frozen=True)
class Op:
    """One timed call into rainbowgraphs."""

    kind: str                                  # groups latencies and counts
    prepare: Callable[[], tuple]               # fresh arguments, untimed
    call: Callable[..., object]                # the timed call
    check: Callable[[object], bool]            # output check, untimed
    observe: Callable[[object], dict] | None = None  # recorded, not gated


@dataclass
class Inputs:
    """Everything a workload needs, made from the seed at set-up."""

    graphs: dict                 # name -> (n, edges)
    rounds: list                 # pool of per-round parameters
    cli_file: str | None = None  # graph file for the CLI operations
    # keys seen so far, for relabeling-invariance checks across operations
    seen: dict = field(default_factory=dict, compare=False, repr=False)


def load_library():
    """Import rainbowgraphs afresh, so every set-up pays for the import."""
    for name in [m for m in sys.modules
                 if m == "rainbowgraphs" or m.startswith("rainbowgraphs.")]:
        del sys.modules[name]
    lib = importlib.import_module("rainbowgraphs")
    for sub in ("cli", "corpus", "reference"):
        importlib.import_module(f"rainbowgraphs.{sub}")
    return lib


def _plain(g) -> tuple:
    return g.n, tuple(g.edges)


def _relabel(rng: Random, n: int, edges) -> tuple:
    perm = list(range(n))
    rng.shuffle(perm)
    colors = sorted({c for _, _, c in edges})
    shuffled = colors[:]
    rng.shuffle(shuffled)
    cmap = dict(zip(colors, shuffled))
    return n, tuple((perm[u], perm[v], cmap[c]) for u, v, c in edges)


def _fresh(lib, graph) -> Callable[[], tuple]:
    n, edges = graph
    return lambda: (lib.colored_graph.build(n, edges),)


def graph_bytes(g) -> str:
    """Short digest of a graph's normalized edge list."""
    text = f"{g.n} {len(g.edges)}\n" + "".join(
        f"{u} {v} {c}\n" for u, v, c in g.edges)
    return hashlib.sha1(text.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# search and search-threads2


def check_solve(lib, name: str, res) -> bool:
    """Frozen optimum, exhaustive, and a witness that the naive oracles
    confirm: no rainbow path of ell edges, and the claimed objective."""
    n, ell, objective = GRID[name]
    w = res.witness
    if not res.exhaustive or res.value != SEARCH_VALUE or w is None:
        return False
    if w.n != n or not oracles.is_proper(n, w.edges):
        return False
    if lib.reference.naive_rainbow_paths(w, ell):
        return False
    if objective == "max_edges":
        return len(w.edges) == res.value
    return len(lib.reference.naive_rainbow_cycles(w, ell)) == res.value


SEARCH_COUNTERS = ("nodes", "levels", "pruned_infeasible",
                   "pruned_duplicate", "pruned_bound")


def _solve_op(lib, name: str, threads: int) -> Op:
    n, ell, objective = GRID[name]
    return Op(
        f"solve:{name}",
        lambda: (lib.search.SearchProblem(n, ell, objective, threads=threads),),
        lambda p: lib.search.solve(p),
        lambda res: check_solve(lib, name, res),
        lambda res: dict({k: res.stats[k] for k in SEARCH_COUNTERS},
                         witness=graph_bytes(res.witness)))


def _cycles_op(lib, inputs: Inputs, name: str, ell: int,
               threads: int = 1) -> Op:
    n, edges = inputs.graphs[name]
    nbr = oracles.neighbor_colors(n, edges)
    expected = math.factorial(ell - 1) * 2 ** (ell - 2)

    def check(ws) -> bool:
        return (len(ws) == expected and oracles.distinct_copies(ws, True)
                and all(oracles.is_rainbow_walk(nbr, w.vertices, w.colors, True)
                        for w in ws))

    return Op(f"cycles:{name}", _fresh(lib, (n, edges)),
              lambda g: lib.rainbow.enumerate_rainbow_cycles(
                  g, ell, threads=threads),
              check)


def search_inputs(lib, seed: int, workdir=None) -> Inputs:
    rng = Random(seed)
    orders = []
    for _ in range(POOL):
        order = list(GRID)
        rng.shuffle(order)
        orders.append(tuple(order))
    return Inputs({}, orders)


def search_ops(lib, inputs: Inputs, r: int) -> list[Op]:
    return [_solve_op(lib, name, 1) for name in inputs.rounds[r % POOL]]


def threads2_inputs(lib, seed: int, workdir=None) -> Inputs:
    rng = Random(seed)
    orders = []
    for _ in range(POOL):
        order = [*THREADS2_GRID, *["d7"] * THREADS2_CYCLES]
        rng.shuffle(order)
        orders.append(tuple(order))
    return Inputs({"d7": _plain(lib.constructions.d_star(7))}, orders)


def threads2_ops(lib, inputs: Inputs, r: int) -> list[Op]:
    return [_cycles_op(lib, inputs, name, 7, threads=2) if name == "d7"
            else _solve_op(lib, name, 2)
            for name in inputs.rounds[r % POOL]]


# ---------------------------------------------------------------------------
# rainbow-check


def _check_suite(ell: int):
    allowed = ("colors in use", "no vertex lies")

    def check(reports) -> bool:
        # corpus graphs are proper and rainbow-P_ell-free, so every
        # hypothesis holds except the vacuous ones named in `allowed`
        return (len(reports) == (6 if ell == 5 else 3)
                and all(r.holds for r in reports)
                and all(any(a in r.reason for a in allowed)
                        for r in reports if r.skipped))
    return check


def _check_lb64(reports) -> bool:
    return tuple((r.check_name, r.holds, r.skipped, r.observed_max)
                 for r in reports) == LB64_VERDICTS


def _cli_op(lib, kind: str, argv: list, check) -> Op:
    def run(args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli.run(args)
        return code, out.getvalue().splitlines()
    return Op(kind, lambda: (list(argv),), run, check)


def rainbow_check_inputs(lib, seed: int, workdir=None) -> Inputs:
    cons = lib.constructions
    graphs = {
        "d6": _plain(cons.d_star(6)),
        "d7": _plain(cons.d_star(7)),
        "lb64": _plain(cons.lower_bound_graph(64, 5)),
    }
    lb32 = cons.lower_bound_graph(32, 5)
    path = f"{workdir}/lb32.cel"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(lib.graph_io.write_graph_file(lb32))
    rng = Random(seed)
    rounds = []
    for _ in range(POOL):
        corpus = {ell: tuple(_plain(g) for g in lib.corpus.rainbow_free_instances(
                      rng, ell, CORPUS_PER_ELL))
                  for ell in (3, 4, 5)}
        between = []
        while len(between) < BETWEEN_PER_ROUND:
            x, y = rng.sample(range(32), 2)
            between.append((x, y, rng.randrange(6)))
        rounds.append((corpus, tuple(between)))
    return Inputs(graphs, rounds, cli_file=path)


def rainbow_check_ops(lib, inputs: Inputs, r: int) -> list[Op]:
    rb = lib.rainbow
    d6 = inputs.graphs["d6"]
    d7 = inputs.graphs["d7"]
    nbr6 = oracles.neighbor_colors(*d6)
    corpus, between = inputs.rounds[r % POOL]
    ops = [
        _cycles_op(lib, inputs, "d6", 6),
        _cycles_op(lib, inputs, "d7", 7),
        Op("haspath:d7-7", _fresh(lib, d7),
           lambda g: rb.has_rainbow_path(g, 7), lambda out: out is False),
        Op("haspath:d7-6", _fresh(lib, d7),
           lambda g: rb.has_rainbow_path(g, 6), lambda out: out is True),
        Op("paths:d6-5", _fresh(lib, d6),
           lambda g: rb.enumerate_rainbow_paths(g, 5),
           lambda ws: (len(ws) == D6_PATHS5
                       and oracles.distinct_copies(ws, False)
                       and all(oracles.is_rainbow_walk(nbr6, w.vertices,
                                                       w.colors, False)
                               for w in ws))),
        Op("per_edge:d6-6", _fresh(lib, d6),
           lambda g: rb.count_per_edge(g, 6),
           # 1920 cycles of 6 edges over 96 edges, all in one orbit
           lambda counts: len(counts) == 96
           and set(counts.values()) == {120}),
        Op("suite:lb64", _fresh(lib, inputs.graphs["lb64"]),
           lambda g: lib.checkers.run_suite(g, 5), _check_lb64),
    ]
    for x, y, c in between:
        ops.append(_between_op(lib, d6, x, y, c))
    for ell, graphs in corpus.items():
        ops.extend(Op(f"suite:corpus-l{ell}", _fresh(lib, graph),
                      lambda g, ell=ell: lib.checkers.run_suite(g, ell),
                      _check_suite(ell))
                   for graph in graphs)
    path = inputs.cli_file
    ops.append(_cli_op(
        lib, "cli:count", ["count", "--input", path, "--cycles", "5"],
        # two d_star(5) blocks: 2 * 4! * 2^3 cycles, 24 through each edge
        lambda out: out[0] == 0 and out[1][0] == "total 384"
        and len(out[1]) == 81
        and all(line.split()[3] == "24" for line in out[1][1:])))
    ops.append(_cli_op(
        lib, "cli:check", ["check", "--input", path, "--suite", "p5"],
        lambda out: out[0] == 0 and len(out[1]) == 6
        and all(" PASS " in line for line in out[1])))
    return ops


def _between_op(lib, graph, x: int, y: int, c: int) -> Op:
    n, edges = graph
    ell = 5

    def check(ws) -> bool:
        got = {(w.vertices, w.colors) if w.vertices[0] == x
               else (w.vertices[::-1], w.colors[::-1]) for w in ws}
        return len(got) == len(ws) and got == oracles.rainbow_paths_between(
            n, edges, x, y, ell, {c})

    return Op("between:d6-5", _fresh(lib, graph),
              lambda g: lib.rainbow.rainbow_paths_between(
                  g, x, y, ell, forbidden={c}),
              check)


# ---------------------------------------------------------------------------
# canon


def circulant(n: int) -> tuple:
    """C_n with alternating colors 0/1 plus the antipodal perfect matching
    in color 2 (n even): a vertex-transitive cubic colored graph."""
    edges = [(i, (i + 1) % n, i % 2) for i in range(n)]
    edges += [(i, i + n // 2, 2) for i in range(n // 2)]
    return n, tuple(edges)


#: n <= this: keys of unrelated graphs are compared with brute force.
BRUTE_N = 6


def canon_inputs(lib, seed: int, workdir=None) -> Inputs:
    cons = lib.constructions
    graphs = {
        "q3": _plain(cons.hypercube(3)),
        "d4": _plain(cons.d_star(4)),
        "c10": circulant(10),
        "c12": circulant(12),
        "lb8": _plain(cons.lower_bound_graph(8, 3)),
        "lb12": _plain(cons.lower_bound_graph(12, 3)),
    }
    rng = Random(seed)
    rounds = []
    for _ in range(POOL):
        sym = tuple((name, _relabel(rng, *graph))
                    for name, graph in graphs.items())
        pairs = []
        for dense in (False, True):
            for _ in range(RANDOM_PAIRS_PER_ROUND):
                n = rng.randint(6, 10)
                g = _plain(lib.corpus.random_proper_graph(rng, n=n, dense=dense))
                if n <= BRUTE_N and rng.random() < 0.5:
                    other = _plain(lib.corpus.random_proper_graph(
                        rng, n=n, dense=dense))
                else:
                    other = _relabel(rng, *g)
                pairs.append(("dense" if dense else "sparse", g, other))
        rounds.append((sym, tuple(pairs)))
    return Inputs(graphs, rounds)


def canon_ops(lib, inputs: Inputs, r: int) -> list[Op]:
    sym, pairs = inputs.rounds[r % POOL]
    ops = [_sym_op(lib, inputs, name, graph) for name, graph in sym]
    for i, (kind, g, other) in enumerate(pairs):
        slot = (r, i)
        ops.append(_key_op(lib, f"rand:{kind}", g,
                           lambda key, slot=slot: _remember(inputs, slot, key)))
        ops.append(_key_op(lib, f"rand:{kind}", other,
                           lambda key, slot=slot, g=g, other=other:
                           _check_pair(inputs.seen.pop(slot, None), key,
                                       g, other)))
    return ops


def _remember(inputs: Inputs, slot, key) -> bool:
    inputs.seen[slot] = key
    return True


def _check_pair(key_a, key_b, a, b) -> bool:
    if key_a is None:  # the first graph's operation failed
        return False
    n, edges_a = a
    if n <= BRUTE_N:
        return (key_a == key_b) == oracles.isomorphic(n, edges_a, b[1])
    return key_a == key_b  # b is a relabeling of a


def _key_op(lib, kind: str, graph, check) -> Op:
    return Op(kind, _fresh(lib, graph),
              lambda g: lib.colored_graph.canonical_key(g), check)


def _sym_op(lib, inputs: Inputs, name: str, graph) -> Op:
    def check(key) -> bool:
        ref = inputs.seen.get(name)
        if ref is None:
            # the unrelabeled graph's key, computed once per run
            ref = lib.colored_graph.canonical_key(
                lib.colored_graph.build(*inputs.graphs[name]))
            inputs.seen[name] = ref
        return key == ref
    return _key_op(lib, f"sym:{name}", graph, check)


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[..., Inputs]   # (lib, seed, workdir) -> Inputs
    round_ops: Callable[..., list]       # (lib, inputs, round) -> [Op]


WORKLOADS = {
    "search": Workload(search_inputs, search_ops),
    "search-threads2": Workload(threads2_inputs, threads2_ops),
    "rainbow-check": Workload(rainbow_check_inputs, rainbow_check_ops),
    "canon": Workload(canon_inputs, canon_ops),
}
