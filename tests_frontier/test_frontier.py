"""Exact values at the search's frontier, frozen as regression values.

These runs take seconds to tens of seconds each, so they sit outside the
tier-1 `testpaths`. Run them with

    PYTHONPATH=src python -m pytest -q tests_frontier

Each value is what the command in its comment printed, exhaustive.
"""

import pytest

from rainbowgraphs.colored_graph import is_properly_colored
from rainbowgraphs.rainbow import enumerate_rainbow_cycles, has_rainbow_path
from rainbowgraphs.search import SearchProblem, solve

FRONTIER = {
    # rainbowgraphs search --n 6 --ell 5 --objective cycles
    (6, 5, "max_rainbow_cycles"): 12,
    # rainbowgraphs search --n 9 --ell 3 --objective edges
    (9, 3, "max_edges"): 12,
    # rainbowgraphs search --n 7 --ell 5 --objective cycles
    (7, 5, "max_rainbow_cycles"): 12,
}


@pytest.mark.parametrize("n,ell,objective", list(FRONTIER))
def test_frontier_value_is_exhaustive_and_witnessed(n, ell, objective):
    res = solve(SearchProblem(n, ell, objective))
    assert res.exhaustive
    assert res.value == FRONTIER[(n, ell, objective)]
    w = res.witness
    assert w.n == n and is_properly_colored(w)
    assert not has_rainbow_path(w, ell)
    if objective == "max_edges":
        assert w.m == res.value
    else:
        assert len(enumerate_rainbow_cycles(w, ell)) == res.value
