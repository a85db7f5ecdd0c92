"""Exhaustive extremal search: frozen small-n values, the full optima
list against every optimal labeled coloring of the brute-force reference,
the canonical-deletion filter against brute-force levels, the edge cut
against no cut, budget truncation, thread determinism, and that no
worker thread runs.

Every frozen value below was first computed with the unpruned naive
reference (all edge subsets x all matching partitions); the acceptance
suite re-runs that comparison for the full n <= 5 grid.
"""

import hashlib
import json
import threading
import tracemalloc
from functools import lru_cache
from itertools import chain, combinations
from random import Random

import pytest

from rainbowgraphs import search
from rainbowgraphs.colored_graph import (build, canonical_form,
                                         canonical_generators, canonical_key,
                                         graph_of_key, is_properly_colored)
from rainbowgraphs.constructions import d_star, lower_bound_graph
from rainbowgraphs.corpus import rainbow_free_instances, random_proper_graph
from rainbowgraphs.graph_io import result_to_dict
from rainbowgraphs.rainbow import enumerate_rainbow_cycles, has_rainbow_path
from rainbowgraphs.reference import (_has_rainbow_path_brute,
                                     naive_colorings, naive_search)
from rainbowgraphs.search import (ColorProbeTable, ExtremalResult,
                                  SearchProblem, _extend_one, _orbit_maps,
                                  _verify_witness_graph, probe_color_count,
                                  solve, verify_extremal_regularity)

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


#: Candidate events (one one-edge extension per orbit of each
#: representative's automorphisms) of the default search; deterministic,
#: so a change that skips candidates, misses a symmetry, or extends a
#: class twice, moves them.
NODES = {
    (8, 3, "max_edges"): 4151,
    (7, 4, "max_rainbow_cycles"): 16989,
    (6, 5, "max_rainbow_cycles"): 24565,
    (5, 5, "max_rainbow_cycles"): 826,
}

#: How the canonical-deletion filter and the feasibility test split those
#: candidates, as (pruned_infeasible, pruned_duplicate); the rest built a
#: child. A filter that keeps `nodes` but moves a candidate from one
#: counter to the other shows here.
SPLIT = {
    (8, 3, "max_edges"): (831, 3018),
    (7, 4, "max_rainbow_cycles"): (2031, 14012),
    (6, 5, "max_rainbow_cycles"): (485, 22172),
    (5, 5, "max_rainbow_cycles"): (0, 639),
}

#: result_to_dict with the node counters removed, over n 3..6 x ell 1..5 x
#: both objectives with all_optima, except n = 6, ell = 5, which
#: tests_frontier hashes; first computed before orbit pruning existed, and
#: re-pinned only where `pruned_bound` and `evaluated` moved: the edge cut
#: drops classes of max_edges runs at n >= 2^(ell-1). With those two
#: dropped as well, the grid hashes to 06637e179e8e... with or without it.
GRID_DIGEST = (
    "eb622c3f5a8695d53938ccfd38253492dc6033613998bf0c99daa06205d86e1c")
NODE_COUNTERS = ("nodes", "pruned_infeasible", "pruned_duplicate")


@lru_cache(maxsize=None)
def _solve(n, ell, objective):
    return solve(SearchProblem(n, ell, objective))


def _parents(seed, ell, count=30):
    """Seeded canonical rainbow-P_ell-free parents on at most 10 vertices,
    symmetric ones (construction subsets, isolated padding) included."""
    rng = Random(seed)
    graphs = [build(n, []) for n in (2, 5, 9)]
    if ell >= 3:
        graphs += [g for g in rainbow_free_instances(rng, ell, count)
                   if g.n <= 10]
    for _ in range(10 * count):
        g = random_proper_graph(rng, n=rng.randint(2, 8))
        if not has_rainbow_path(g, ell):
            graphs += [g, build(g.n + 2, g.edges)]
    return [canonical_form(g)[1] for g in graphs]


def _every_child(g, p):
    """Unpruned reference: the child of every candidate edge."""
    nbr = g.neighbor_colors
    colors = range(g.num_colors + (p.colors is None
                                   or g.num_colors < p.colors))
    for u, v in combinations(range(g.n), 2):
        if v in nbr[u]:
            continue
        for c in colors:
            if c not in nbr[u].values() and c not in nbr[v].values():
                yield build(g.n, g.edges + ((u, v, c),))


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


@pytest.mark.parametrize("n, ell, objective", [
    (4, 3, "max_edges"), (4, 3, "max_rainbow_cycles"),
    (4, 4, "max_rainbow_cycles"), (5, 4, "max_edges")])
def test_all_optima_match_every_optimal_labeled_coloring(n, ell, objective):
    # the optima list holds one graph per class of every optimal labeled
    # coloring the unpruned reference enumerates, and no other class
    best, optimal = -1, []
    for value, edges in naive_colorings(n, ell, objective):
        if value > best:
            best, optimal = value, []
        if value == best:
            optimal.append(edges)
    res = solve(SearchProblem(n, ell, objective, all_optima=True))
    assert res.exhaustive and res.value == best
    keys = [canonical_key(build(n, g.edges)) for g in res.optima]
    assert len(set(keys)) == len(keys)
    assert set(keys) == {canonical_key(build(n, e)) for e in optimal}


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
    truncated = [solve(SearchProblem(4, 3, "max_edges", node_budget=10,
                                     threads=t)) for t in (1, 2, 8)]
    for res in truncated:
        assert not res.exhaustive
        assert 0 <= res.value <= full.value
        # the node that breaches the budget is still counted
        assert res.stats["nodes"] <= 11 < full.stats["nodes"]
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
    with pytest.raises(ValueError, match=r"^ell must be in 1\.\.62, got 63$"):
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


def test_carried_cycle_counts_match_a_fresh_count(monkeypatch):
    # each evaluated class reads the count carried from its parent: the
    # parent's plus the rainbow C_ell through the new edge; it must equal
    # a fresh enumeration on the class's canonical graph. With colors
    # None every class is evaluated; with 2 or 3 the eligible ones are.
    objective = search._objective_value
    seen = []

    def recording(g, p, carried=None):
        if carried is not None:
            seen.append((canonical_key(g), p.ell, carried))
        return objective(g, p, carried)

    monkeypatch.setattr(search, "_objective_value", recording)
    for n in range(3, 8):
        for ell in (3, 4, 5):
            for colors in (None, 2, 3):
                solve(SearchProblem(n, ell, "max_rainbow_cycles",
                                    colors=colors, node_budget=2000))
    for key, ell, carried in seen:
        assert carried == len(enumerate_rainbow_cycles(graph_of_key(key),
                                                       ell)), (key, ell)
    assert len(seen) > 1000
    assert sum(carried > 0 for *_, carried in seen) > 100


def test_witness_recheck_ignores_counts_cached_on_the_witness():
    # a caller may have cached a cycle list on the witness; the re-check
    # must count again instead of reading that cache back
    p = SearchProblem(5, 4, "max_rainbow_cycles")
    res = solve(p)
    w = res.witness
    _verify_witness_graph(w, p, res.value)
    enumerate_rainbow_cycles(w, p.ell)
    w._cache[("cycles", p.ell)] = w._cache[("cycles", p.ell)] * 2
    with pytest.raises(RuntimeError, match="claimed value"):
        _verify_witness_graph(w, p, 2 * res.value)


def test_witness_recheck_refuses_each_broken_hypothesis():
    # a witness that breaks any constraint of the problem is an error,
    # checked in order: properness, freeness, the color restriction
    p = SearchProblem(4, 3, "max_edges", colors=2)
    cases = [
        (build(3, [(0, 1, 0), (1, 2, 0)]), "is not properly colored"),
        (build(4, [(0, 1, 0), (1, 2, 1), (2, 3, 2)]),
         "violates the freeness constraint"),
        (build(4, [(0, 1, 0), (2, 3, 0)]), "violates the color restriction"),
    ]
    for g, message in cases:
        with pytest.raises(RuntimeError, match=f"^search witness {message}"):
            _verify_witness_graph(g, p, g.m)
    _verify_witness_graph(build(3, [(0, 1, 0), (1, 2, 1)]), p, 2)


def test_regularity_verifier_requires_a_witness():
    empty = ExtremalResult(value=0, witness=None, exhaustive=True)
    with pytest.raises(ValueError, match="^result carries no witness$"):
        verify_extremal_regularity(empty, 0)
    empty.optima = ()
    with pytest.raises(ValueError, match="^result carries no witness$"):
        verify_extremal_regularity(empty, 0)


def test_search_releases_each_parent_once_it_is_extended():
    # a level holds canonical keys and optima are kept as keys, so a
    # parent, decoded from its key when its turn comes, and the tables
    # cached on it do not outlive that turn: a peak of about 19 KiB,
    # against 102 KiB while a level held every graph. A first run also
    # fills the interpreter's free lists, which tracemalloc counts, so
    # the traced run is the second.
    p = SearchProblem(5, 5, "max_rainbow_cycles")
    solve(p)
    tracemalloc.start()
    try:
        solve(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 1024


def test_result_stats_present():
    res = solve(SearchProblem(3, 3, "max_edges"))
    assert isinstance(res, ExtremalResult)
    assert res.stats["nodes"] > 0
    assert "wall_time_s" not in result_to_dict(res)


@pytest.mark.parametrize("n,ell,objective", sorted(NODES))
def test_node_counts_are_pinned(n, ell, objective):
    assert _solve(n, ell, objective).stats["nodes"] == NODES[(n, ell, objective)]


@pytest.mark.parametrize("n,ell,objective", sorted(SPLIT))
def test_filter_split_is_pinned(n, ell, objective):
    stats = _solve(n, ell, objective).stats
    assert (stats["pruned_infeasible"], stats["pruned_duplicate"]) == \
        SPLIT[(n, ell, objective)]


def _brute_levels(n, ell, colors):
    """Yield (problem, level, next level) from the empty graph on, where a
    level lists (canonical graph, packed generators) for one graph of
    every class of rainbow-P_ell-free colorings with m edges, found from
    every child of the level before, and the next level maps key to graph."""
    p = SearchProblem(n, ell, "max_edges", colors=colors)
    level = [(build(n, []), b"")]
    while level:
        nxt = {}
        for g, _ in level:
            for child in _every_child(g, p):
                if not has_rainbow_path(child, ell):
                    nxt.setdefault(canonical_key(child), child)
        yield p, level, nxt
        level = [(canonical_form(g)[1],
                  bytes(chain.from_iterable(canonical_generators(g))))
                 for g in nxt.values()]


@pytest.mark.parametrize("ell", [1, 2, 3, 4, 5])
def test_filtered_extension_reaches_every_class_of_the_next_level(ell):
    # the candidates the filter keeps must still reach every class of
    # feasible children, one level at a time; trying only one candidate
    # per orbit of the parent's generators must reach the same classes
    # from every parent
    tried = {None: 0, "orbits": 0}
    for n in range(2, 7):
        for colors in (None, 2, 3):
            for p, level, nxt in _brute_levels(n, ell, colors):
                built = set()
                for g, gens in level:
                    reached = {}
                    for mode in tried:
                        reached[mode] = set()
                        for child in _extend_one(g, p, mode and gens):
                            tried[mode] += 1
                            if not isinstance(child, str):
                                reached[mode].add(child.edges)
                    keys = {edges: canonical_key(build(n, edges))
                            for edges in reached[None]}
                    assert reached["orbits"] <= reached[None]
                    assert {keys[e] for e in reached["orbits"]} == \
                        set(keys.values()), (n, ell, colors, g.edges)
                    built |= set(keys.values())
                assert built == set(nxt), (n, ell, colors, level[0][0].m)
    assert tried["orbits"] < tried[None]


def test_orbit_maps_send_edges_onto_edges():
    # each packed generator, with the color map read off its edge images,
    # is an automorphism of the canonical parent, and the new color k
    # stays k
    rng = Random(601)
    graphs = [random_proper_graph(rng, n=rng.randint(2, 9)) for _ in range(150)]
    graphs += [d_star(3), d_star(4)]
    recolored = 0
    for src in graphs:
        g = canonical_form(src)[1]
        gens = bytes(chain.from_iterable(canonical_generators(src)))
        nbr, k = g.neighbor_colors, g.num_colors
        for a, cmap in _orbit_maps(g, gens):
            assert sorted(a) == list(range(g.n))
            assert sorted(cmap) == list(range(k + 1)) and cmap[k] == k
            for x, y, d in g.edges:
                assert nbr[a[x]][a[y]] == cmap[d]
            recolored += cmap != sorted(cmap)
    assert recolored


#: SHA-256 over every event `_extend_one` yields on `_parents(500 + ell,
#: ell)` for ell 1..5 and colors None, 2 and 3: the counter name, or the
#: child's edge list. GRID_DIGEST drops the filter's counters, so this
#: pins which candidates the filter and the feasibility test reject; no
#: generators are passed, so every candidate is tried.
EVENTS_DIGEST = (
    "ebec5f9455139409a062c770a7bb3a91623f53cfa6b138cc642e57881bc7f2eb")

#: The same hash with each parent's packed generators passed, so only the
#: first candidate of each orbit is tried and the isolated-vertex rule
#: applies: 22,463 events.
ORBIT_EVENTS_DIGEST = (
    "bc908f83cdb260be83406729ddfd242c4eebd031111aa05f827dbb1e493746b6")


def _events_digest(orbits):
    h = hashlib.sha256()
    for ell in range(1, 6):
        for g in _parents(500 + ell, ell):
            gens = None
            if orbits:
                gens = bytes(chain.from_iterable(canonical_generators(g)))
            for colors in (None, 2, 3):
                p = SearchProblem(max(g.n, 2), ell, "max_edges", colors=colors)
                for event in _extend_one(g, p, gens):
                    text = event if isinstance(event, str) else repr(event.edges)
                    h.update(text.encode() + b"\n")
    return h.hexdigest()


def test_extension_events_are_frozen():
    assert _events_digest(orbits=False) == EVENTS_DIGEST


def test_orbit_pruned_extension_events_are_frozen():
    assert _events_digest(orbits=True) == ORBIT_EVENTS_DIGEST


def test_every_search_child_is_proper():
    # each child is marked proper when it is made, so its walk skips the
    # scan; the check runs on a fresh copy of each child
    for ell in (1, 3, 5):
        for g in _parents(400 + ell, ell, count=15):
            p = SearchProblem(max(g.n, 2), ell, "max_edges")
            for child in _extend_one(g, p):
                if not isinstance(child, str):
                    assert child._cache["proper"] is True
                    assert is_properly_colored(build(child.n, child.edges))


def test_grid_output_bytes_are_frozen():
    h = hashlib.sha256()
    for objective in ("max_edges", "max_rainbow_cycles"):
        for n in range(3, 7):
            for ell in range(1 if objective == "max_edges" else 3, 6):
                if (n, ell) == (6, 5):
                    continue
                doc = result_to_dict(solve(SearchProblem(
                    n, ell, objective, all_optima=True)))
                for key in NODE_COUNTERS:
                    del doc["stats"][key]
                h.update(json.dumps(doc, sort_keys=True).encode())
    assert h.hexdigest() == GRID_DIGEST


def _threshold_graph(n, ell):
    """lower_bound_graph(n, ell), and on the r vertices it leaves
    isolated K_r if r <= ell, else ell - 1 (near-)perfect matchings: the
    rounds of the round-robin 1-factorization of K_(r + r % 2), with the
    edges at the extra vertex of an odd r left out."""
    size = 1 << (ell - 1)
    base, r = n - n % size, n % size
    even = r + r % 2
    rounds = [[(c, even - 1)] + [((c + i) % (even - 1), (c - i) % (even - 1))
                                 for i in range(1, even // 2)]
              for c in range(even - 1)]
    if r > ell:
        rounds = rounds[:ell - 1]
    filler = [(base + u, base + v, ell + c) for c, pairs in enumerate(rounds)
              for u, v in pairs if max(u, v) < r]
    return build(n, lower_bound_graph(n, ell).edges + tuple(filler))


def test_edge_cut_threshold_is_attained_by_a_path_free_coloring():
    # T is the edge count of an explicit proper rainbow-P_ell-free
    # coloring, so no optimum lies below it; n 13..15 at ell 4 leave more
    # than ell vertices beside the block, where the matchings take over
    points = [(n, ell) for ell in range(3, 9) for n in range(2, 11)
              if n >= 1 << (ell - 1)] + [(13, 4), (14, 4), (15, 4)]
    assert len(points) == 13
    for n, ell in points:
        g = _threshold_graph(n, ell)
        assert is_properly_colored(g)
        assert not has_rainbow_path(g, ell)
        if n <= 8:
            assert not _has_rainbow_path_brute(n, g.neighbor_colors, ell)
        assert g.m == search._threshold(n, ell) > 0, (n, ell)
    # no cut below one block, nor where no construction exists
    assert search._threshold(7, 4) == search._threshold(10, 2) == 0


@pytest.mark.parametrize("n,ell", [(n, 3) for n in range(4, 10)] + [(8, 4)])
def test_edge_cut_keeps_every_optimum(n, ell, monkeypatch):
    # T = 0 turns the cut off; value, witness, optima and levels must not
    # see it, and it must fire at every point
    p = SearchProblem(n, ell, "max_edges", all_optima=True)
    cut = solve(p)
    monkeypatch.setattr(search, "_threshold", lambda n, ell: 0)
    full = solve(p)
    assert cut.exhaustive and full.exhaustive
    assert cut.value == full.value
    assert cut.witness.edges == full.witness.edges
    assert [g.edges for g in cut.optima] == [g.edges for g in full.optima]
    assert cut.stats["levels"] == full.stats["levels"]
    assert cut.stats["pruned_bound"] > 0 == full.stats["pruned_bound"]
    assert cut.stats["nodes"] <= full.stats["nodes"]


def test_edge_cut_refuses_a_threshold_above_the_optimum(monkeypatch):
    # every class falls short of a T above the optimum 6, so the run
    # ends below it, which a sound T never allows
    monkeypatch.setattr(search, "_threshold", lambda n, ell: 7)
    with pytest.raises(RuntimeError, match=(
            "^search found 0 edges, below the 7 of the lower-bound "
            "construction$")):
        solve(SearchProblem(4, 3, "max_edges"))
    # a truncated run proves nothing, and colors or cycles turn the cut off
    assert not solve(SearchProblem(4, 3, "max_edges",
                                   time_budget=0.0)).exhaustive
    assert solve(SearchProblem(4, 3, "max_edges", colors=3)).value == 6
    assert solve(SearchProblem(4, 3, "max_rainbow_cycles")).value == 4
