"""Exhaustive extremal search: frozen small-n values, pruning safety,
budget truncation, thread determinism, and that no worker thread runs.

Every frozen value below was first computed with the unpruned naive
reference (all edge subsets x all matching partitions); the acceptance
suite re-runs that comparison for the full n <= 5 grid.
"""

import json
import threading
from functools import lru_cache

import pytest

from rainbowgraphs.colored_graph import is_properly_colored
from rainbowgraphs.constructions import d_star, lower_bound_graph
from rainbowgraphs.graph_io import result_to_dict
from rainbowgraphs.rainbow import enumerate_rainbow_cycles, has_rainbow_path
from rainbowgraphs.reference import naive_search
from rainbowgraphs.search import (ColorProbeTable, ExtremalResult,
                                  SearchProblem, probe_color_count, solve,
                                  verify_extremal_regularity)

FROZEN = {
    (2, 3, "max_edges"): 1,
    (2, 3, "max_rainbow_cycles"): 0,
    (3, 3, "max_edges"): 3,
    (3, 3, "max_rainbow_cycles"): 1,
    (3, 4, "max_edges"): 3,
    (3, 4, "max_rainbow_cycles"): 0,
    (4, 3, "max_edges"): 6,
    (4, 3, "max_rainbow_cycles"): 4,
    (4, 4, "max_edges"): 6,
    (4, 4, "max_rainbow_cycles"): 3,
    (5, 3, "max_edges"): 6,
    (5, 3, "max_rainbow_cycles"): 4,
    (5, 4, "max_edges"): 7,
    (5, 4, "max_rainbow_cycles"): 3,
    # beyond n = 5 the search is the only evidence; each value is what
    # the command in its comment printed, exhaustive
    # rainbowgraphs search --n 6 --ell 4 --objective edges
    (6, 4, "max_edges"): 9,
    # rainbowgraphs search --n 8 --ell 3 --objective edges
    (8, 3, "max_edges"): 12,
    # rainbowgraphs search --n 8 --ell 3 --objective cycles
    (8, 3, "max_rainbow_cycles"): 8,
    # rainbowgraphs search --n 7 --ell 4 --objective cycles
    (7, 4, "max_rainbow_cycles"): 12,
}


@lru_cache(maxsize=None)
def _solve(n, ell, objective):
    return solve(SearchProblem(n, ell, objective))


def _value_of(g, ell, objective):
    if objective == "max_edges":
        return g.m
    return len(enumerate_rainbow_cycles(g, ell))


@pytest.mark.parametrize("n,ell,objective", sorted(FROZEN))
def test_solve_frozen_values_and_witness_validity(n, ell, objective):
    res = _solve(n, ell, objective)
    assert res.exhaustive
    assert res.value == FROZEN[(n, ell, objective)]
    w = res.witness
    assert w.n == n
    assert is_properly_colored(w)
    assert not has_rainbow_path(w, ell)
    assert _value_of(w, ell, objective) == res.value


def test_solve_matches_naive_reference_at_4_3():
    for objective in ("max_edges", "max_rainbow_cycles"):
        best, _ = naive_search(4, 3, objective)
        assert solve(SearchProblem(4, 3, objective)).value == best


def test_both_4_3_optima_are_unique_and_3_regular():
    for objective in ("max_edges", "max_rainbow_cycles"):
        res = solve(SearchProblem(4, 3, objective, all_optima=True))
        assert res.optima is not None and len(res.optima) == 1
        assert verify_extremal_regularity(res, 3)


def test_pruning_never_changes_value_or_optima_count():
    for n, ell, objective in ((4, 3, "max_edges"),
                              (4, 3, "max_rainbow_cycles"),
                              (4, 4, "max_rainbow_cycles")):
        full = solve(SearchProblem(n, ell, objective, all_optima=True))
        bare = solve(SearchProblem(n, ell, objective, all_optima=True,
                                   prune_iso=False, prune_bound=False))
        assert bare.value == full.value
        assert bare.stats["nodes"] >= full.stats["nodes"]
        # optima are deduplicated by canonical key even without pruning
        assert {g.edges for g in bare.optima} == {g.edges for g in full.optima}


def test_thread_count_yields_identical_serialized_results():
    for objective in ("max_edges", "max_rainbow_cycles"):
        blobs = set()
        for threads in (1, 2, 8):
            res = solve(SearchProblem(5, 3, objective, all_optima=True,
                                      threads=threads))
            blobs.add(json.dumps(result_to_dict(res), sort_keys=True))
        assert len(blobs) == 1


def test_no_thread_is_started(monkeypatch):
    # the threads knob is accepted but everything runs in the caller's
    # thread: pure-Python work gains nothing from a GIL-bound pool
    def refuse(self):
        raise AssertionError("a thread was started")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    res = solve(SearchProblem(5, 3, "max_rainbow_cycles", threads=8))
    assert res.exhaustive and res.value == FROZEN[(5, 3, "max_rainbow_cycles")]
    table = probe_color_count(4, 3, threads=2)
    assert table.exhaustive and table.rows
    assert len(enumerate_rainbow_cycles(d_star(4), 4, threads=8)) == 24


def test_node_budget_truncates_deterministically():
    full = solve(SearchProblem(4, 3, "max_edges"))
    truncated = [solve(SearchProblem(4, 3, "max_edges", node_budget=20,
                                     threads=t)) for t in (1, 2, 8)]
    for res in truncated:
        assert not res.exhaustive
        assert 0 <= res.value <= full.value
        # the node that breaches the budget is still counted
        assert res.stats["nodes"] <= 21 < full.stats["nodes"]
        assert res.stats["truncated_by"] == "nodes"
    blobs = {json.dumps(result_to_dict(r), sort_keys=True) for r in truncated}
    assert len(blobs) == 1
    ample = solve(SearchProblem(4, 3, "max_edges", node_budget=10 ** 6))
    assert ample.exhaustive and ample.value == full.value


def test_time_budget_can_truncate():
    res = solve(SearchProblem(5, 3, "max_edges", time_budget=0.0))
    assert not res.exhaustive


def test_solve_with_restricted_color_count():
    # with only 2 classes no path can use 3 distinct colors, so the
    # constraint is vacuous; the densest proper 2-coloring of 4 vertices
    # is the 4-cycle
    res = solve(SearchProblem(4, 3, "max_edges", colors=2))
    assert res.value == 4
    assert res.witness.num_colors == 2


def test_solve_trivial_lengths():
    res = solve(SearchProblem(3, 1, "max_edges"))
    assert res.value == 0 and res.witness.m == 0
    assert solve(SearchProblem(2, 62, "max_edges")).value == 1


def test_solve_value_at_least_construction_count():
    res = solve(SearchProblem(4, 3, "max_rainbow_cycles"))
    feasible = lower_bound_graph(4, 3)
    assert res.value >= len(enumerate_rainbow_cycles(feasible, 3))


@pytest.mark.parametrize("n,ell,count", [(4, 3, 4), (5, 3, 4), (8, 3, 8)])
def test_solve_value_equals_construction_count(n, ell, count):
    # where n >= 2^(ell-1) the lower-bound construction is optimal
    res = _solve(n, ell, "max_rainbow_cycles")
    assert res.exhaustive
    assert res.value == count == len(
        enumerate_rainbow_cycles(lower_bound_graph(n, ell), ell))


def test_probe_color_table_frozen_rows():
    table = probe_color_count(4, 3)
    assert isinstance(table, ColorProbeTable)
    assert table.exhaustive
    assert table.rows == ((0, 0), (1, 0), (2, 0), (3, 4))


def test_probe_color_table_more_colors_never_beat_optimum():
    table = probe_color_count(4, 4)
    assert table.rows == ((0, 0), (1, 0), (2, 0), (3, 0), (4, 1), (5, 1),
                          (6, 3))
    best = max(v for _, v in table.rows)
    assert best == solve(SearchProblem(4, 4, "max_rainbow_cycles")).value


def test_probe_all_zero_when_cycle_cannot_fit():
    table = probe_color_count(3, 4)
    assert table.exhaustive
    assert all(v == 0 for _, v in table.rows)


def test_regularity_verifier_requires_exhaustive_result():
    res = solve(SearchProblem(4, 3, "max_edges", node_budget=5))
    assert not res.exhaustive
    with pytest.raises(ValueError, match="exhaustive"):
        verify_extremal_regularity(res, 3)


def test_regularity_verifier_detects_irregular_witness():
    res = solve(SearchProblem(5, 3, "max_edges"))
    # 6 edges on 5 vertices cannot be regular
    assert not verify_extremal_regularity(res, 2)
    assert not verify_extremal_regularity(res, 3)


def test_search_problem_validation():
    with pytest.raises(ValueError):
        SearchProblem(1, 3, "max_edges")
    with pytest.raises(ValueError):
        SearchProblem(11, 3, "max_edges")
    with pytest.raises(ValueError):
        SearchProblem(4, 2, "max_rainbow_cycles")
    with pytest.raises(ValueError):
        SearchProblem(4, 0, "max_edges")
    with pytest.raises(ValueError):
        SearchProblem(4, 63, "max_edges")
    with pytest.raises(ValueError):
        SearchProblem(4, 3, "most_edges")
    with pytest.raises(ValueError):
        SearchProblem(4, 3, "max_edges", colors=0)
    with pytest.raises(ValueError):
        SearchProblem(4, 3, "max_edges", node_budget=0)
    with pytest.raises(ValueError):
        SearchProblem(4, 3, "max_edges", threads=0)
    for budget in (float("nan"), -1):
        with pytest.raises(ValueError, match="time budget"):
            SearchProblem(4, 3, "max_edges", time_budget=budget)


def test_result_stats_present():
    res = solve(SearchProblem(3, 3, "max_edges"))
    assert isinstance(res, ExtremalResult)
    assert res.stats["nodes"] > 0
    assert "wall_time_s" not in result_to_dict(res)
