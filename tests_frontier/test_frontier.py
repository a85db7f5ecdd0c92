"""Exact values at the search's frontier, frozen as regression values.

These runs take seconds to minutes each, so they sit outside the
tier-1 `testpaths`. Run them with

    PYTHONPATH=src python -m pytest -q tests_frontier

Each value is what the command in its comment printed, exhaustive.
"""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache

import pytest

import rainbowgraphs
from rainbowgraphs.colored_graph import is_properly_colored
from rainbowgraphs.constructions import lower_bound_graph
from rainbowgraphs.graph_io import result_to_dict
from rainbowgraphs.rainbow import enumerate_rainbow_cycles, has_rainbow_path
from rainbowgraphs.search import SearchProblem, solve

FRONTIER = {
    # rainbowgraphs search --n 6 --ell 5 --objective cycles
    (6, 5, "max_rainbow_cycles"): 12,
    # rainbowgraphs search --n 9 --ell 3 --objective edges
    (9, 3, "max_edges"): 12,
    # rainbowgraphs search --n 7 --ell 5 --objective cycles
    (7, 5, "max_rainbow_cycles"): 12,
    # rainbowgraphs search --n 8 --ell 4 --objective cycles
    (8, 4, "max_rainbow_cycles"): 24,
    # rainbowgraphs search --n 10 --ell 3 --objective edges
    (10, 3, "max_edges"): 13,
    # rainbowgraphs search --n 7 --ell 5 --objective edges
    (7, 5, "max_edges"): 15,
    # rainbowgraphs search --n 10 --ell 3 --objective cycles
    (10, 3, "max_rainbow_cycles"): 8,
    # rainbowgraphs search --n 9 --ell 4 --objective cycles
    (9, 4, "max_rainbow_cycles"): 24,
    # rainbowgraphs search --n 9 --ell 4 --objective edges
    (9, 4, "max_edges"): 16,
    # rainbowgraphs search --n 8 --ell 5 --objective cycles
    (8, 5, "max_rainbow_cycles"): 32,
    # rainbowgraphs search --n 8 --ell 5 --objective edges
    (8, 5, "max_edges"): 20,
    # rainbowgraphs search --n 10 --ell 4 --objective cycles
    (10, 4, "max_rainbow_cycles"): 24,
}


@lru_cache(maxsize=None)
def _solve(n, ell, objective):
    return solve(SearchProblem(n, ell, objective))


@pytest.mark.parametrize("n,ell,objective", list(FRONTIER))
def test_frontier_value_is_exhaustive_and_witnessed(n, ell, objective):
    res = _solve(n, ell, objective)
    assert res.exhaustive
    assert res.value == FRONTIER[(n, ell, objective)]
    w = res.witness
    assert w.n == n and is_properly_colored(w)
    assert not has_rainbow_path(w, ell)
    if objective == "max_edges":
        assert w.m == res.value
    else:
        assert len(enumerate_rainbow_cycles(w, ell)) == res.value


@pytest.mark.parametrize("n,ell", [(8, 4), (10, 3), (9, 4), (10, 4)])
def test_frontier_value_equals_construction_count(n, ell):
    # the search's optimum is attained by the paper's construction
    res = _solve(n, ell, "max_rainbow_cycles")
    assert res.exhaustive
    assert res.value == len(enumerate_rainbow_cycles(lower_bound_graph(n, ell),
                                                     ell))


#: (nodes, pruned_bound) of max_edges runs the edge cut prunes: it drops
#: the children of each class whose edges and addable pairs fall short of
#: the lower-bound construction's edge count.
EDGE_CUT = {
    # rainbowgraphs search --n 10 --ell 3 --objective edges
    (10, 3): (41203, 142),
    # rainbowgraphs search --n 9 --ell 4 --objective edges
    (9, 4): (928475, 6885),
}


@pytest.mark.parametrize("n,ell", list(EDGE_CUT))
def test_edge_cut_counters_are_pinned(n, ell):
    stats = _solve(n, ell, "max_edges").stats
    assert (stats["nodes"], stats["pruned_bound"]) == EDGE_CUT[(n, ell)]


def test_n6_l5_output_bytes_are_frozen():
    # the n = 6, ell = 5 end of tier-1's grid digest, first computed
    # before orbit pruning existed; only the node counters may change
    h = hashlib.sha256()
    for objective in ("max_edges", "max_rainbow_cycles"):
        doc = result_to_dict(solve(SearchProblem(6, 5, objective,
                                                 all_optima=True)))
        for key in ("nodes", "pruned_infeasible", "pruned_duplicate"):
            del doc["stats"][key]
        h.update(json.dumps(doc, sort_keys=True).encode())
    assert h.hexdigest() == (
        "898f479d5055f822ebf45fa9448c85b826185f8463dd4a90fc53bb1cb5eae7ce")


def test_n6_l5_search_holds_keys_not_graphs():
    # a level is a list of canonical keys and each parent is decoded when
    # its turn comes: a peak of about 220 KiB, against 579 KiB while a
    # level held one canonical graph per class. A first run also fills
    # the interpreter's free lists, which tracemalloc counts, so the
    # traced run is the second.
    p = SearchProblem(6, 5, "max_rainbow_cycles")
    solve(p)
    tracemalloc.start()
    try:
        solve(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 350 * 1024


def test_d_star9_path_test_holds_its_tables_under_the_cap():
    # the half tables kept between middle edges hold at most HALF_CEILING
    # halves: about 34 MB peak RSS and 6 s in a fresh process, against
    # 56 MB with every table kept to its last middle edge. The child runs
    # under a parent of its own, whose only waited-for child it is.
    check = ("from rainbowgraphs.constructions import d_star\n"
             "from rainbowgraphs.rainbow import has_rainbow_path\n"
             "assert not has_rainbow_path(d_star(9), 9)\n")
    measure = ("import resource, subprocess, sys\n"
               "subprocess.run([sys.executable, '-c', sys.argv[1]],\n"
               "               check=True)\n"
               "usage = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
               "print(usage.ru_maxrss)\n")
    src = os.path.dirname(os.path.dirname(rainbowgraphs.__file__))
    out = subprocess.run([sys.executable, "-c", measure, check], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert int(out.stdout) < 40 * 1024  # KiB
