"""Rainbow path and cycle enumeration against the naive reference.

Counts on the diagonal-augmented hypercube constructions were computed
independently with the permutation-filter enumerator in
rainbowgraphs.reference before being frozen here.
"""

import gc
import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, permutations, product
from math import factorial
from random import Random

import pytest

import rainbowgraphs
from rainbowgraphs import rainbow
from rainbowgraphs.colored_graph import (build, canonical_key, graph_of_key,
                                         is_properly_colored)
from rainbowgraphs.constructions import (d_star, disjoint_union, hypercube,
                                        lower_bound_graph)
from rainbowgraphs.corpus import (_greedy_color, rainbow_free_instances,
                                  random_colored_graph, random_proper_graph)
from rainbowgraphs.rainbow import (HALF_CEILING, MAX_LEN, RainbowWitness,
                                   count_per_edge, enumerate_rainbow_cycles,
                                   enumerate_rainbow_paths, has_rainbow_path,
                                   has_rainbow_path_through,
                                   rainbow_paths_between, verify_witness,
                                   vertices_on_rainbow_cycles)
from rainbowgraphs.reference import (_has_rainbow_path_brute,
                                     naive_rainbow_cycles, naive_rainbow_paths,
                                     naive_rainbow_paths_between)


def _witness_set(ws):
    return {(w.kind, w.vertices, w.colors) for w in ws}


def _edge_set(w):
    """The edges of a witness as (smaller, larger) vertex pairs."""
    vs = w.vertices
    pairs = list(zip(vs, vs[1:]))
    if w.kind == "cycle":
        pairs.append((vs[-1], vs[0]))
    return frozenset((min(p), max(p)) for p in pairs)


# ------------------------------------------------------------- examples


def test_single_colored_path_graph_has_one_rainbow_p2():
    g = build(3, [(0, 1, 0), (1, 2, 1)])
    ws = enumerate_rainbow_paths(g, 2)
    assert len(ws) == 1
    assert ws[0].vertices == (0, 1, 2) and ws[0].colors == (0, 1)


def test_d_star3_has_twelve_rainbow_p2():
    assert len(enumerate_rainbow_paths(d_star(3), 2)) == 12


def test_d_star4_has_no_rainbow_p4():
    assert enumerate_rainbow_paths(d_star(4), 4) == []
    assert not has_rainbow_path(d_star(4), 4)


def test_d_star5_has_no_rainbow_p5_but_shorter_ones():
    g = d_star(5)
    assert not has_rainbow_path(g, 5)
    assert has_rainbow_path(g, 4)


def test_k4_one_factorization_has_no_rainbow_p3():
    assert not has_rainbow_path(d_star(3), 3)


def test_rainbow_colored_path_graph_is_found():
    g = build(5, [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 3)])
    assert has_rainbow_path(g, 4)


def test_d_star8_has_no_rainbow_p8_but_a_p7():
    # the split at a middle vertex: about 0.5 s on a 2-CPU host, about
    # 10 s with a walk from every start
    assert not has_rainbow_path(d_star(8), 8)
    assert has_rainbow_path(d_star(8), 7)


def test_hypercube6_has_a_rainbow_p6():
    # a True verdict of the split: Q_6 has 6 colors and degree 6
    assert has_rainbow_path(hypercube(6), 6)


def test_large_cube_path_test_keeps_no_half_table():
    # 12 * 11^5 halves of 6 edges could meet at one vertex of Q_12, past
    # HALF_CEILING, so the walk from the first start runs and stops at its
    # first leaf; the split would hold about 200 MB
    g = hypercube(12)
    top = max(map(len, g.adjacency))
    assert top * (top - 1) ** 5 > HALF_CEILING
    tracemalloc.start()
    try:
        assert has_rainbow_path(g, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_large_cube_path_test_weighs_its_half_tables_in_bytes():
    # Q_12 at 11 could hold 12 * 11^4 halves of 5 edges in one table,
    # under HALF_CEILING, but each vertex mask spans 4,096 bits: the
    # table would take about 80 MB where the walk from the first start
    # stops at its first leaf. Measured in a fresh process (about 23 MB
    # for the interpreter and the cube).
    check = ("from rainbowgraphs.constructions import hypercube\n"
             "from rainbowgraphs.rainbow import has_rainbow_path\n"
             "assert has_rainbow_path(hypercube(12), 11)\n")
    assert _peak_rss_kib(check) < 35 * 1024


def _peak_rss_kib(check: str) -> int:
    """Peak RSS of a fresh process that runs `check`, measured under a
    parent of its own, whose only waited-for child it is."""
    measure = ("import resource, subprocess, sys\n"
               "subprocess.run([sys.executable, '-c', sys.argv[1]],\n"
               "               check=True)\n"
               "usage = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
               "print(usage.ru_maxrss)\n")
    src = os.path.dirname(os.path.dirname(rainbowgraphs.__file__))
    out = subprocess.run([sys.executable, "-c", measure, check], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    return int(out.stdout)


def test_shuffled_construction_path_test_weighs_tables_per_component():
    # lower_bound_graph(2048, 7) is 32 blocks of d_star(7); under shuffled
    # ids a vertex mask of the whole graph spans 2,048 bits, and the kept
    # tables took about 84 MB. Per component they span 64 bits and peak
    # at about 19 MB, in about 0.8 s on a 2-CPU host
    check = ("from random import Random\n"
             "from rainbowgraphs.colored_graph import build\n"
             "from rainbowgraphs.constructions import lower_bound_graph\n"
             "from rainbowgraphs.rainbow import has_rainbow_path\n"
             "g = lower_bound_graph(2048, 7)\n"
             "ids = list(range(g.n))\n"
             "Random(7).shuffle(ids)\n"
             "g = build(g.n, [(ids[u], ids[v], c) for u, v, c in g.edges])\n"
             "assert not has_rainbow_path(g, 7)\n")
    assert _peak_rss_kib(check) < 35 * 1024


def test_length_above_color_count_returns_before_any_walk(monkeypatch):
    # a rainbow P_ell or C_ell needs ell distinct colors: d_star(ell) has ell
    def walk(*_):
        raise AssertionError("walked")

    monkeypatch.setattr(rainbow, "_walk", walk)
    assert not has_rainbow_path(d_star(7), 8)
    assert enumerate_rainbow_cycles(d_star(5), 6) == []
    assert enumerate_rainbow_paths(d_star(7), 8) == []
    g = d_star(5)
    assert rainbow_paths_between(g, 0, 15, 6) == []
    # with one of the five colors forbidden, four remain for five edges
    assert rainbow_paths_between(g, 0, 15, 5, forbidden={2}) == []
    # a rainbow P_ell needs ell + 1 vertices and a C_ell ell: K_9 with 36
    # distinct colors has colors to spare but too few vertices
    k9 = build(9, [(u, v, i) for i, (u, v) in
                   enumerate(combinations(range(9), 2))])
    assert not has_rainbow_path(k9, 9)
    assert enumerate_rainbow_paths(k9, 9) == []
    assert enumerate_rainbow_cycles(k9, 10) == []
    assert rainbow_paths_between(k9, 0, 8, 9) == []
    gap = build(9, [e for e in k9.edges if e[:2] != (0, 8)])
    assert not has_rainbow_path_through(gap, 0, 8, gap.num_colors, 9)
    assert not has_rainbow_path_through(gap, 8, 0, 0, 9)
    monkeypatch.undo()
    # a color the graph does not use takes none away
    diag = g.neighbor_colors[0][15]
    assert len(rainbow_paths_between(g, 0, 15, 4, forbidden={diag, 99})) == 24


def test_d_star3_has_four_rainbow_triangles():
    assert len(enumerate_rainbow_cycles(d_star(3), 3)) == 4


def test_d_star5_has_192_rainbow_c5():
    assert len(enumerate_rainbow_cycles(d_star(5), 5)) == 192


def test_improper_triangle_accepted_but_not_rainbow():
    g = build(3, [(0, 1, 0), (1, 2, 0), (0, 2, 1)])
    assert enumerate_rainbow_cycles(g, 3) == []


def _dense_graphs(rng, count, n):
    """Dense seeded graphs on n vertices: proper (greedy colors) and
    improper (random colors from a small palette), half each."""
    graphs = []
    for i in range(count):
        pairs = [pair for pair in combinations(range(n), 2)
                 if rng.random() < 0.7]
        if i % 2:
            graphs.append(build(n, [(u, v, rng.randrange(n))
                                    for u, v in pairs]))
        else:
            graphs.append(build(n, _greedy_color(rng, n, pairs, n - 1)))
    return graphs


@pytest.mark.parametrize("ell", range(3, 9))
def test_cycles_match_naive_on_proper_and_improper_graphs(ell):
    rng = Random(2500 + ell)
    graphs = _dense_graphs(rng, 8, 8)
    graphs += [random_colored_graph(rng, max_n=8) for _ in range(20)]
    graphs += [random_proper_graph(rng, n=rng.randint(3, 8))
               for _ in range(20)]
    graphs += [d_star(3), d_star(4)]
    found = improper = 0
    for g in graphs:
        expected = naive_rainbow_cycles(g, ell)
        assert rainbow._cycles(g, ell) == expected, (g.n, g.edges)
        found += len(expected)
        improper += bool(expected) and not is_properly_colored(g)
    assert found and improper


@pytest.mark.parametrize("k", range(3, 9))
def test_d_star_cycle_count_and_witnesses(k):
    # (k-1)! * 2^(k-2) rainbow C_k, each a valid witness of its own copy;
    # the 322,560 of d_star(8) are counted, a seeded sample re-checked
    g = d_star(k)
    cycles = rainbow._cycles(g, k)
    assert len(cycles) == factorial(k - 1) * 2 ** (k - 2)
    sample = cycles if k < 8 else Random(2508).sample(cycles, 5000)
    assert all(verify_witness(g, w) for w in sample)
    assert len({_edge_set(w) for w in sample}) == len(sample)


def test_cycle_closers_at_the_edge_cases():
    # ell = 3: no walk, the second neighbor's row closes the triangle
    tri = build(3, [(0, 1, 0), (1, 2, 1), (0, 2, 2)])
    assert len(rainbow._cycles(tri, 3)) == 1
    assert rainbow._cycles(tri, 3) == naive_rainbow_cycles(tri, 3)
    # the common neighbor 3 of root 0 and vertex 2 closes with two edges
    # of color 2, so the square is not rainbow
    square = build(4, [(0, 1, 0), (1, 2, 1), (2, 3, 2), (0, 3, 2)])
    assert rainbow._cycles(square, 4) == []
    # the walk from the root's second neighbor closes through its first,
    # so each cycle is reached once
    for ell in (4, 5, 6):
        ring = build(ell, [(i, (i + 1) % ell, i) for i in range(ell)])
        assert len(rainbow._cycles(ring, ell)) == 1
        assert rainbow._cycles(ring, ell) == naive_rainbow_cycles(ring, ell)


def _naive_walk(adj, path, cols, cmask, k, out):
    """Recursive reference of `_walk`: each extension of `path` by k
    edges with new vertices and unused colors, in adjacency order."""
    if not k:
        out.append((tuple(path), tuple(cols), cmask))
        return
    for u, c in adj[path[-1]]:
        if not cmask >> c & 1 and u not in path:
            _naive_walk(adj, path + [u], cols + [c], cmask | 1 << c, k - 1,
                        out)


def test_walk_hands_its_leaf_the_naive_sequence():
    rng = Random(2503)
    graphs = [random_proper_graph(rng, n=rng.randint(2, 9))
              for _ in range(30)]
    graphs += [random_colored_graph(rng, max_n=7) for _ in range(30)]
    graphs += [d_star(4)]
    leaves = 0
    for g in graphs:
        adj = g.adjacency
        for s in range(g.n):
            starts = [([s], [], 0)]
            # a vertex put at the front, with its edge's color used
            starts += [([t, s], [c], 1 << c) for t, c in adj[s][:1]]
            for path, cols, cmask in starts:
                for k in range(5):
                    expected, got = [], []
                    _naive_walk(adj, path, cols, cmask, k, expected)

                    def leaf(p, cs, m):
                        got.append((tuple(p), tuple(cs), m))

                    p, cs = list(path), list(cols)
                    assert not rainbow._walk(adj, p, cs, cmask, k, leaf)
                    assert got == expected
                    assert (p, cs) == (path, cols)
                    leaves += len(got)
    assert leaves


def test_walk_stops_at_a_truthy_leaf_with_its_path_unrestored():
    adj = d_star(5).adjacency
    for k in range(5):
        expected, seen = [], []
        _naive_walk(adj, [0], [], 0, k, expected)

        def leaf(p, cs, m):
            seen.append((tuple(p), tuple(cs), m))
            return len(seen) == 3 or k == 0

        path, cols = [0], []
        assert rainbow._walk(adj, path, cols, 0, k, leaf)
        assert seen == expected[:len(seen)]
        assert len(seen) == (1 if k == 0 else 3)
        assert (tuple(path), tuple(cols)) == seen[-1][:2]


def test_cycle_walk_is_not_quadratic_at_a_root():
    # each walk's leaf closes its last two edges through the root's
    # table; a variant that paired the root's neighbors first took 6.3 s
    # on this star, whose center is the last root
    star = build(4001, [(0, i, i - 1) for i in range(1, 4001)])
    start = time.perf_counter()
    assert enumerate_rainbow_cycles(star, 4) == []
    assert time.perf_counter() - start < 1


def _fan(n):
    """The hub n - 1 joined to every vertex of the path 0..n-2, all
    edge colors distinct: one rainbow C_k for each k - 1 consecutive
    path vertices."""
    hub = n - 1
    return build(n, [(i, hub, i) for i in range(hub)]
                 + [(i, i + 1, hub + i) for i in range(hub - 1)])


def test_cycle_tables_are_not_quadratic_at_a_hub_labeled_last():
    # in id order every vertex's table scans the hub's 4,000 neighbors
    # (on a 2-CPU host, about 9 s for the star at 4 and 57 s for the fan
    # at 6); in degree order the hub is the root of its cycles
    star = build(4001, [(i, 4000, i) for i in range(4000)])
    fan = _fan(4001)
    for g, counts in ((star, (0, 0, 0, 0)), (fan, (3999, 3998, 3997, 3996))):
        for ell, count in zip(range(3, 7), counts):
            start = time.perf_counter()
            assert len(enumerate_rainbow_cycles(g, ell)) == count
            assert time.perf_counter() - start < 1, (g.n, ell)


def _hubs_labeled_last(rng, count):
    """Seeded graphs of 5-9 vertices, improper colorings among them, whose
    last vertex is joined to most of the others."""
    graphs = []
    for _ in range(count):
        n = rng.randint(5, 9)
        pairs = {(v, n - 1) for v in range(n - 1) if rng.random() < 0.9}
        pairs |= {tuple(sorted(rng.sample(range(n - 1), 2)))
                  for _ in range(rng.randint(0, n))}
        colors = rng.randint(3, len(pairs) + 1)
        graphs.append(build(n, [(u, v, rng.randrange(colors))
                                for u, v in pairs]))
    return graphs


def test_degree_ordered_roots_keep_the_id_orientation():
    # small graphs whose hubs come last, so the roots go by degree and
    # each witness is turned back to start at its minimal vertex
    rng = Random(2929)
    graphs = [_fan(9),
              build(9, [(i, 8, i) for i in range(8)]
                    + [(i, i + 1, 8 + i // 2) for i in range(0, 8, 2)])]
    graphs += _hubs_labeled_last(rng, 60)
    fired = found = 0
    for g in graphs:
        if rainbow._root_order(g.adjacency) is None:
            continue
        fired += 1
        for ell in range(3, g.n + 1):
            expected = naive_rainbow_cycles(g, ell)
            assert rainbow._cycles(g, ell) == expected, (g.n, g.edges, ell)
            found += len(expected)
    assert fired >= 20 and found
    assert all(rainbow._root_order(g.adjacency) is not None
               for g in graphs[:2])


def test_walks_emit_their_witnesses_sorted():
    # no enumeration sorts what its walk emits, except cycles turned from
    # degree-ordered roots: paths and paths between two vertices come out
    # ascending, and cycles from roots in id order strictly descending,
    # then reversed
    rng = Random(3030)
    graphs = [random_proper_graph(rng, n=rng.randint(3, 8),
                                  dense=i % 2 == 1) for i in range(200)]
    graphs += [random_colored_graph(rng, max_n=8) for _ in range(100)]
    graphs += _hubs_labeled_last(rng, 40)
    graphs += [_fan(9), d_star(5), d_star(6), lower_bound_graph(16, 3)]
    hubs = found = 0
    for g in graphs:
        hubs += rainbow._root_order(g.adjacency) is not None
        pairs = list(combinations(range(g.n), 2))
        for ell in range(3, 7):
            for ws in [rainbow._cycles(g, ell), rainbow._paths(g, ell)] + [
                    rainbow_paths_between(g, x, y, ell)
                    for x, y in rng.sample(pairs, min(len(pairs), 4))]:
                assert ws == sorted(set(ws)), (g.n, g.edges, ell)
                found += len(ws)
    assert hubs >= 20 and found


@pytest.mark.parametrize("enumerate_, ell", [(enumerate_rainbow_paths, 3),
                                             (enumerate_rainbow_cycles, 4)])
def test_enumerations_leave_the_collector_as_they_found_it(monkeypatch,
                                                          enumerate_, ell):
    # the collector is off during the walk and back after it, also when
    # the walk raises; a caller that had it off keeps it off
    was = gc.isenabled()
    real = rainbow._walk
    seen = []

    def walk(*args):
        seen.append(gc.isenabled())
        return real(*args)

    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            monkeypatch.setattr(rainbow, "_walk", walk)
            assert enumerate_(d_star(4), ell)
            assert seen and not any(seen)
            assert gc.isenabled() is enabled
            seen.clear()

            def fail(*args):
                raise RuntimeError("walk failed")

            monkeypatch.setattr(rainbow, "_walk", fail)
            with pytest.raises(RuntimeError, match="walk failed"):
                enumerate_(d_star(4), ell)
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_concurrent_enumerations_turn_the_collector_back_on():
    # the collector's switch is shared by the process: whichever call
    # found it on turns it back on, so overlapping calls end with it on
    was = gc.isenabled()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        gc.enable()
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(f, d_star(6), ell) for f, ell in
                       ((enumerate_rainbow_cycles, 6),
                        (enumerate_rainbow_paths, 5)) * 4]
            counts = [len(f.result(timeout=60)) for f in futures]
        assert counts == [1920, 11520] * 4
        assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
        gc.enable() if was else gc.disable()


def test_count_per_edge_uniform_24_on_d_star5():
    counts = count_per_edge(d_star(5), 5)
    assert len(counts) == 40
    assert set(counts.values()) == {24}


def test_count_per_edge_zero_for_edges_off_cycles():
    # triangle with a pendant edge: pendant edge lies on no cycle
    g = build(4, [(0, 1, 0), (1, 2, 1), (0, 2, 2), (2, 3, 0)])
    counts = count_per_edge(g, 3)
    assert counts[(2, 3)] == 0
    assert counts[(0, 1)] == 1


def test_count_per_edge_matches_naive_tally():
    # improper colorings included; every cycle edge counts, the closing
    # pair (vertices[-1], vertices[0]) too
    rng = Random(61)
    improper = cycles = 0
    for _ in range(60):
        g = random_colored_graph(rng, max_n=7)
        improper += not is_properly_colored(g)
        for ell in (3, 4, 5):
            expected = {(u, v): 0 for u, v, _ in g.edges}
            for w in naive_rainbow_cycles(g, ell):
                cycles += 1
                for pair in _edge_set(w):
                    expected[pair] += 1
            assert count_per_edge(g, ell) == expected
    assert improper and cycles


def test_cycle_cache_survives_edits_to_a_returned_list(monkeypatch):
    fresh = d_star(4)
    cycles = enumerate_rainbow_cycles(fresh, 4)
    counts = count_per_edge(fresh, 4)
    on_cycles = vertices_on_rainbow_cycles(fresh, 4)
    g = d_star(4)
    got = enumerate_rainbow_cycles(g, 4)
    got.clear()
    got.append(cycles[0])
    assert enumerate_rainbow_cycles(g, 4) == cycles
    per_edge = count_per_edge(g, 4)
    assert per_edge == counts
    per_edge.clear()
    per_edge[(0, 1)] = -1
    # the second count reads the cached table, not the cycles
    def enumerate_again(*_):
        raise AssertionError("recounted")

    monkeypatch.setattr(rainbow, "enumerate_rainbow_cycles", enumerate_again)
    assert count_per_edge(g, 4) == counts
    monkeypatch.undo()
    assert vertices_on_rainbow_cycles(g, 4) == on_cycles


def test_paths_between_adjacent_vertices_length_one():
    g = build(3, [(0, 1, 0), (1, 2, 1)])
    assert len(rainbow_paths_between(g, 0, 1, 1)) == 1
    assert rainbow_paths_between(g, 0, 2, 1) == []


def test_paths_between_rejects_equal_endpoints():
    g = build(3, [(0, 1, 0)])
    with pytest.raises(ValueError, match="endpoints"):
        rainbow_paths_between(g, 1, 1, 1)


@pytest.mark.parametrize("ell,expected", [(4, 6), (5, 24)])
def test_antipodal_paths_avoiding_diagonal_color(ell, expected):
    # between a vertex and its antipode there are (ell-1)! rainbow paths
    # of length ell-1 avoiding the diagonal color
    g = d_star(ell)
    antipode = (1 << (ell - 1)) - 1
    diag_color = g.neighbor_colors[0][antipode]
    found = rainbow_paths_between(g, 0, antipode, ell - 1,
                                  forbidden=frozenset({diag_color}))
    assert len(found) == expected
    # cross-check against the naive enumerator
    naive = [w for w in naive_rainbow_paths(g, ell - 1)
             if {w.vertices[0], w.vertices[-1]} == {0, antipode}
             and diag_color not in w.colors]
    assert _witness_set(found) == _witness_set(naive)


def _between_cases(rng):
    """(graph, pairs): small seeded proper and improper graphs with every
    vertex pair, and the constructions d_star(3..6) with a seeded few."""
    graphs = [random_proper_graph(rng, n=rng.randint(3, 8)) for _ in range(8)]
    graphs += [random_colored_graph(rng, max_n=7) for _ in range(8)]
    cases = [(g, list(combinations(range(g.n), 2))) for g in graphs]
    # dense 8-vertex graphs hold rainbow paths of 7 edges
    cases += [(g, rng.sample(list(combinations(range(8), 2)), 6))
              for g in _dense_graphs(rng, 4, 8)]
    for k in range(3, 7):
        pairs = list(combinations(range(1 << k - 1), 2))
        cases.append((d_star(k), rng.sample(pairs, min(len(pairs), 8 - k))))
    return cases


@pytest.mark.parametrize("ell", range(1, 8))
def test_paths_between_match_naive(ell):
    # the closing table of y against simple paths from x filtered at the
    # end, with no forbidden color, one closing color, and a random set
    rng = Random(2600 + ell)
    found = 0
    for g, pairs in _between_cases(rng):
        # the oracle walks up to 6 * 5^6 paths from a vertex of d_star(6)
        slow = ell == 7 and g.n > 16
        for x, y in pairs[:1] if slow else pairs:
            palette = range(g.num_colors + 1)
            bans = [frozenset(), frozenset(rng.sample(
                palette, rng.randint(1, min(3, len(palette)))))]
            bans += [frozenset({c}) for _, c in g.adjacency[y][:1]]
            for forbidden in bans[:1] if slow else bans:
                expected = naive_rainbow_paths_between(g, x, y, ell, forbidden)
                assert rainbow_paths_between(g, x, y, ell, forbidden) == \
                    expected, (g.n, g.edges, x, y, sorted(forbidden))
                assert rainbow_paths_between(g, y, x, ell, forbidden) == \
                    expected
                found += len(expected)
    assert found


def test_paths_between_at_the_edge_cases(monkeypatch):
    # x adjacent to y: the edge itself at length 1, and the triangle's
    # other side at length 2 unless its colors clash or one is forbidden
    tri = build(3, [(0, 1, 0), (0, 2, 1), (1, 2, 2)])
    assert rainbow_paths_between(tri, 2, 0, 1) == [
        RainbowWitness("path", (0, 2), (1,))]
    assert rainbow_paths_between(tri, 0, 2, 2) == [
        RainbowWitness("path", (0, 1, 2), (0, 2))]
    assert rainbow_paths_between(tri, 0, 2, 2, {2}) == []
    assert rainbow_paths_between(tri, 0, 2, 1, {1}) == []
    clash = build(3, [(0, 1, 0), (1, 2, 0), (0, 2, 1)])
    assert rainbow_paths_between(clash, 0, 2, 2) == []
    # a forbidden set that leaves exactly ell colors still finds the path
    ring = build(6, [(i, (i + 1) % 6, i) for i in range(6)])
    for ell in range(1, 6):
        route = tuple(range(ell + 1))
        cols = tuple(dict(ring.adjacency[a])[b]
                     for a, b in zip(route, route[1:]))
        banned = set(range(6)) - set(cols)
        assert rainbow_paths_between(ring, 0, ell, ell, banned) == [
            RainbowWitness("path", route, cols)]
        # the closing color too: one color short
        assert rainbow_paths_between(ring, 0, ell, ell,
                                     banned | {cols[-1]}) == []

    # every 2-path into y = 1 runs through x = 0, and 6's one neighbor has
    # no other: the table is empty, and no walk runs
    def no_walk(*args):
        raise AssertionError("walked with an empty closing table")

    spider = build(8, [(0, 1, 0), (0, 2, 1), (0, 3, 2), (2, 4, 3), (4, 5, 4),
                       (6, 7, 5)])
    monkeypatch.setattr(rainbow, "_walk", no_walk)
    for ell in range(2, 6):
        assert rainbow_paths_between(spider, 1, 0, ell) == []
        assert rainbow_paths_between(spider, 6, 0, ell, {6}) == []


def test_cycles_through_a_new_edge_are_the_paths_between_its_ends():
    # the search carries a class's C_ell count as its parent's plus the
    # between query on the parent: for every non-edge and every color,
    # the new color k included, it counts the rainbow C_ell of the child
    # that use the new edge
    rng = Random(2607)
    graphs = [random_proper_graph(rng, n=rng.randint(4, 7)) for _ in range(6)]
    graphs += [random_colored_graph(rng, max_n=7) for _ in range(6)]
    graphs += [d_star(4)]
    total = 0
    for g in graphs:
        for u, v in combinations(range(g.n), 2):
            if any(z == v for z, _ in g.adjacency[u]):
                continue
            for c in range(g.num_colors + 1):
                child = build(g.n, g.edges + ((u, v, c),))
                for ell in range(3, 7):
                    through = sum((u, v) in _edge_set(w)
                                  for w in naive_rainbow_cycles(child, ell))
                    got = len(rainbow_paths_between(g, u, v, ell - 1, {c}))
                    assert got == through, (g, u, v, c, ell)
                    total += got
    assert total


def test_between_table_is_linear_at_a_high_degree_endpoint():
    # y's table costs the sum of deg(w) over its neighbors w: one row of
    # 4,000 entries behind a star's center, none behind a leaf
    for center in (0, 4000):
        leaves = [v for v in range(4001) if v != center]
        star = build(4001, [(center, v, i) for i, v in enumerate(leaves)])
        start = time.perf_counter()
        for x, y in ((leaves[0], leaves[1]), (leaves[0], center),
                     (leaves[-1], leaves[-2])):
            for ell in (2, 3, 4):
                got = rainbow_paths_between(star, x, y, ell)
                assert len(got) == (ell == 2 and center not in (x, y))
        assert time.perf_counter() - start < 1
    cube = hypercube(12)
    start = time.perf_counter()
    # a rainbow path of the cube flips each differing bit once, in any
    # order, and no other bit
    assert len(rainbow_paths_between(cube, 0, 3, 2)) == 2
    assert rainbow_paths_between(cube, 0, 3, 4) == []
    assert len(rainbow_paths_between(cube, 0, 15, 4)) == 24
    assert time.perf_counter() - start < 1


def test_rainbow_walks_leave_the_neighbor_dicts_unbuilt():
    for g, query in (
            (d_star(5), lambda g: has_rainbow_path(g, 4)),
            (d_star(7), lambda g: has_rainbow_path(g, 6)),
            (d_star(6), lambda g: enumerate_rainbow_paths(g, 5)),
            (d_star(6), lambda g: rainbow_paths_between(g, 0, 31, 5, {5})),
            (d_star(6), lambda g: rainbow_paths_between(g, 0, 1, 1)),
            (d_star(5), lambda g: enumerate_rainbow_cycles(g, 5))):
        g = build(g.n, g.edges)
        assert query(g)
        assert g._nbr is None


def test_vertices_on_rainbow_cycles_examples():
    assert vertices_on_rainbow_cycles(d_star(5), 5) == set(range(16))
    tree = build(4, [(0, 1, 0), (1, 2, 1), (1, 3, 2)])
    assert vertices_on_rainbow_cycles(tree, 3) == set()
    tri = build(4, [(0, 1, 0), (1, 2, 1), (0, 2, 2), (2, 3, 0)])
    assert vertices_on_rainbow_cycles(tri, 3) == {0, 1, 2}


def test_vertices_on_rainbow_cycles_match_the_naive_cycles():
    # V' is read off the per-edge counts; the naive cycles' vertices are
    # the same set, isolated vertices and cycle-free graphs included
    checked = 0
    for g in _table_graphs():
        for ell in range(3, 7):
            expected = {v for w in naive_rainbow_cycles(g, ell)
                        for v in w.vertices}
            assert vertices_on_rainbow_cycles(g, ell) == expected, (g, ell)
            checked += 1
    assert checked == 172


# ----------------------------------------------------------- invariants


def test_witness_canonical_orientation_and_dedup():
    rng = Random(23)
    for _ in range(40):
        g = random_colored_graph(rng)
        for ell in (1, 2, 3):
            paths = enumerate_rainbow_paths(g, ell)
            assert len({_edge_set(w) for w in paths}) == len(paths)
            for w in paths:
                assert w.kind == "path"
                assert w.vertices[0] < w.vertices[-1]
                assert len(w.colors) == ell and len(w.vertices) == ell + 1
                assert verify_witness(g, w)
        for ell in (3, 4):
            cycles = enumerate_rainbow_cycles(g, ell)
            assert len({_edge_set(w) for w in cycles}) == len(cycles)
            for w in cycles:
                assert w.kind == "cycle"
                assert w.vertices[0] == min(w.vertices)
                assert w.vertices[1] < w.vertices[-1]
                assert len(w.colors) == ell and len(w.vertices) == ell
                assert verify_witness(g, w)


def _least_orientation(w):
    """The lexicographically least (vertices, colors) over every way of
    reading the same copy: both directions of a path; every rotation and
    both directions of a cycle."""
    vs, cs = w.vertices, w.colors
    if w.kind == "path":
        return min((vs, cs), (vs[::-1], cs[::-1]))
    k = len(vs)
    readings = []
    for s in range(k):
        readings.append((vs[s:] + vs[:s], cs[s:] + cs[:s]))
        # backwards from vs[s]: edge (vs[s-i], vs[s-i-1]) has cs[s-i-1]
        readings.append((tuple(vs[(s - i) % k] for i in range(k)),
                         tuple(cs[(s - i - 1) % k] for i in range(k))))
    return min(readings)


def test_witnesses_are_the_least_orientation_of_their_copy():
    # the stored orientation rule is the lexicographic minimum over all
    # readings of a copy, checked by brute force outside the library
    rng = Random(71)
    improper = seen = 0
    for _ in range(40):
        g = random_colored_graph(rng, max_n=7)
        improper += not is_properly_colored(g)
        ws = [w for ell in (1, 2, 3, 4) for w in enumerate_rainbow_paths(g, ell)]
        ws += [w for ell in (3, 4, 5) for w in enumerate_rainbow_cycles(g, ell)]
        banned = frozenset({g.num_colors // 2})
        for x, y in combinations(range(g.n), 2):
            for ell, f in product((1, 2, 3), (frozenset(), banned)):
                between = rainbow_paths_between(g, x, y, ell, f)
                assert rainbow_paths_between(g, y, x, ell, f) == between
                ws += between
        for w in ws:
            assert _least_orientation(w) == (w.vertices, w.colors)
        seen += len(ws)
    assert improper and seen


def test_handshake_identities():
    for ell in (3, 4, 5):
        g = d_star(ell)
        cycles = enumerate_rainbow_cycles(g, ell)
        counts = count_per_edge(g, ell)
        assert sum(counts.values()) == ell * len(cycles)
        through = {v: 0 for v in range(g.n)}
        for w in cycles:
            for v in w.vertices:
                through[v] += 1
        for v in range(g.n):
            incident = sum(c for (a, b), c in counts.items() if v in (a, b))
            assert incident == 2 * through[v]
        assert sum(through.values()) == ell * len(cycles)


def test_color_permutation_invariance():
    rng = Random(29)
    for _ in range(25):
        g = random_proper_graph(rng)
        cperm = list(range(g.num_colors))
        rng.shuffle(cperm)
        h = build(g.n, [(u, v, cperm[c]) for u, v, c in g.edges])
        for ell in (2, 3):
            assert len(enumerate_rainbow_paths(g, ell)) == \
                len(enumerate_rainbow_paths(h, ell))
        assert len(enumerate_rainbow_cycles(g, 3)) == \
            len(enumerate_rainbow_cycles(h, 3))


def test_adding_an_edge_keeps_existing_witnesses():
    rng = Random(31)
    for _ in range(25):
        g = random_proper_graph(rng)
        n = g.n
        padded = build(n + 1, g.edges)
        # appending a fresh-colored edge at the top pair keeps all old
        # color ids stable under normalization
        grown = build(n + 1, list(g.edges) + [(n - 1, n, g.num_colors)])
        for ell in (2, 3):
            before = _witness_set(enumerate_rainbow_paths(padded, ell))
            after = _witness_set(enumerate_rainbow_paths(grown, ell))
            assert before <= after
        before = _witness_set(enumerate_rainbow_cycles(padded, 3))
        after = _witness_set(enumerate_rainbow_cycles(grown, 3))
        assert before <= after


def test_p1_and_p2_automatically_rainbow_in_proper_graphs():
    rng = Random(37)
    for _ in range(25):
        g = random_proper_graph(rng)
        assert len(enumerate_rainbow_paths(g, 1)) == g.m
        two_paths = 0
        for v in range(g.n):
            d = len(g.adjacency[v])
            two_paths += d * (d - 1) // 2
        assert len(enumerate_rainbow_paths(g, 2)) == two_paths


def test_has_rainbow_path_is_monotone_in_length():
    rng = Random(41)
    for _ in range(40):
        g = random_colored_graph(rng)
        for ell in (2, 3, 4):
            if has_rainbow_path(g, ell):
                assert has_rainbow_path(g, ell - 1)


def test_oracle_equivalence_on_mixed_corpus():
    rng = Random(43)
    for _ in range(30):
        g = random_colored_graph(rng)
        naive = {ell: naive_rainbow_paths(g, ell) for ell in (1, 2, 3, 4)}
        for ell in (1, 2, 3):
            assert _witness_set(enumerate_rainbow_paths(g, ell)) == \
                _witness_set(naive[ell])
        for ell in (1, 2, 3, 4):
            assert has_rainbow_path(g, ell) == bool(naive[ell])
        for ell in (3, 4):
            assert _witness_set(enumerate_rainbow_cycles(g, ell)) == \
                _witness_set(naive_rainbow_cycles(g, ell))
        # ids outside 0..k-1 name no color of g and must be no-ops
        bans = (frozenset(), frozenset({rng.randrange(max(1, g.num_colors))}),
                frozenset({-1, 10 ** 6}))
        for x, y in permutations(range(g.n), 2):
            for ell in (1, 2, 3):
                for banned in bans:
                    expected = [w for w in naive[ell]
                                if {w.vertices[0], w.vertices[-1]} == {x, y}
                                and banned.isdisjoint(w.colors)]
                    got = rainbow_paths_between(g, x, y, ell, forbidden=banned)
                    assert _witness_set(got) == _witness_set(expected)


def _split_case(rng, proper, sizes=(7, 9), palettes=(4, 9),
                density=(0.3, 0.6)):
    """Graph on `sizes` vertices with colors from a palette of `palettes`,
    each pair an edge with a probability in `density`, each edge a random
    color, or one free at both ends when `proper`."""
    n = rng.randint(*sizes)
    palette = rng.randint(*palettes)
    p = rng.uniform(*density)
    used = [set() for _ in range(n)]
    edges = []
    for u, v in combinations(range(n), 2):
        free = [c for c in range(palette)
                if not proper or c not in used[u] | used[v]]
        if free and rng.random() < p:
            c = rng.choice(free)
            used[u].add(c)
            used[v].add(c)
            edges.append((u, v, c))
    return build(n, edges)


def test_split_path_test_matches_brute_force():
    # at ell 5 to 7 and degree <= 8 has_rainbow_path joins two halves at a
    # middle vertex or edge of each component with more than ell vertices
    # and ell or more colors
    rng = Random(52)
    outcomes = set()
    for i in range(24):
        g = _split_case(rng, proper=i % 2 == 0)
        for ell in (5, 6, 7):
            got = has_rainbow_path(g, ell)
            assert got == _has_rainbow_path_brute(g.n, g.neighbor_colors, ell)
            if g.num_colors >= ell:
                outcomes.add((i % 2 == 0, g.num_colors > ell, got))
    # both verdicts, proper and improper, with k = ell and k > ell colors
    assert len(outcomes) == 8


def test_split_path_test_on_subsets_and_relabelings_of_d_star6():
    rng = Random(59)
    base = d_star(6)
    verdicts = set()
    for _ in range(30):
        vperm = list(range(base.n))
        cperm = list(range(base.num_colors))
        rng.shuffle(vperm)
        rng.shuffle(cperm)
        edges = [(vperm[u], vperm[v], cperm[c]) for u, v, c in base.edges
                 if rng.random() < 0.9]
        if rng.random() < 0.5:
            # a non-edge in any color may open a rainbow P_6
            u, v = rng.sample(range(base.n), 2)
            if all({u, v} != {a, b} for a, b, _ in edges):
                edges.append((u, v, rng.randrange(6)))
        g = build(base.n, edges)
        got = has_rainbow_path(g, 6)
        assert got == bool(enumerate_rainbow_paths(g, 6))
        verdicts.add(got)
    assert verdicts == {True, False}


def _middle_clash_cases(ell):
    """(graph, verdict) pairs at odd ell = 2h + 1 decided by the join at
    one middle edge (x, y, c), where an h-edge half from x and one from
    y share no color and no vertex: in `clash` y's half uses c, in
    `lollipop` x's half ends at y, and `rainbow_path` is `clash` with
    rainbow colors. Each graph is connected, with more than ell vertices
    and ell colors, so the tables decide it under its own ids. Each comes
    again with its vertices numbered backwards, so that the deciding half
    lies once in the table of the smaller end and once in that of the
    larger."""
    h = ell // 2
    # the path 0..ell repeating color h on its last edge, and a pendant
    # edge at h in color ell - 1, on no path of ell edges
    clash = build(ell + 2, [(i, i + 1, i) for i in range(ell - 1)]
                  + [(ell - 1, ell, h), (h, ell + 1, ell - 1)])
    rainbow_path = build(ell + 1, [(i, i + 1, i) for i in range(ell)])
    # the cycle 0..h closed by the middle edge (h, 0), the tail h..2h and
    # a pendant edge at 2h in color 0, which each way round the cycle
    # repeats
    lollipop = build(ell + 1, [(i, i + 1, i) for i in range(ell - 1)]
                     + [(h, 0, ell - 1), (ell - 1, ell, 0)])
    cases = []
    for g, verdict in ((clash, False), (rainbow_path, True),
                       (lollipop, False)):
        cases.append((g, verdict))
        cases.append((build(g.n, [(g.n - 1 - u, g.n - 1 - v, c)
                                  for u, v, c in g.edges]), verdict))
    return cases


@pytest.mark.parametrize("ell", [5, 7, 9])
def test_middle_edge_join_excludes_its_color_and_its_ends(ell, monkeypatch):
    meets = rainbow._meets
    joins = []

    def counting(*args):
        joins.append(args)
        return meets(*args)

    monkeypatch.setattr(rainbow, "_meets", counting)
    for g, verdict in _middle_clash_cases(ell):
        joins.clear()
        assert g.num_colors >= ell and g.n > ell
        assert _has_rainbow_path_brute(g.n, g.neighbor_colors, ell) == verdict
        assert has_rainbow_path(g, ell) == verdict
        assert joins


def _d_star5_with_a_p5(rng):
    """d_star(5) with one non-edge added in a random color, drawn until
    the new edge opens a rainbow P_5."""
    base = d_star(5)
    while True:
        u, v = rng.sample(range(base.n), 2)
        if v not in base.neighbor_colors[u]:
            g = build(base.n, base.edges + ((u, v, rng.randrange(6)),))
            if _has_rainbow_path_brute(g.n, g.neighbor_colors, 5):
                return g


def test_path_test_finds_the_only_p5_in_a_later_component():
    # two d_star(5) blocks, a 9-vertex path in 4 colors (too few colors)
    # and a K_4 in 6 colors (too few vertices), then a block with a rainbow
    # P_5, under shuffled ids that put that block's least id after every
    # other block's: a d_star(5) with one edge added, or the P_5 alone
    rng = Random(65)
    k4 = build(4, [(u, v, i) for i, (u, v) in
                   enumerate(combinations(range(4), 2))])
    free = disjoint_union([d_star(5), d_star(5),
                           build(9, [(i, i + 1, i % 4) for i in range(8)]),
                           k4])
    blocks = [range(0, 16), range(16, 32), range(32, 41), range(41, 45)]
    for i in range(6):
        holder = (_d_star5_with_a_p5(rng) if i % 2 else
                  build(6, [(j, j + 1, c)
                            for j, c in enumerate(rng.sample(range(5), 5))]))
        union = disjoint_union([free, holder])
        ids = list(range(union.n))
        while min(ids[free.n:]) < max(min(ids[v] for v in b) for b in blocks):
            rng.shuffle(ids)
        for edges, verdict in ((free.edges, False), (union.edges, True)):
            g = build(union.n, [(ids[a], ids[b], c) for a, b, c in edges])
            assert _has_rainbow_path_brute(g.n, g.neighbor_colors, 5) == verdict
            assert has_rainbow_path(g, 5) == verdict


@pytest.mark.parametrize("ell", [8, 9])
def test_half_tables_match_brute_force_at_longer_lengths(ell):
    # an even ell meets at a middle vertex, an odd one at a middle edge
    rng = Random(60 + ell)
    outcomes = set()
    for i in range(30):
        g = _split_case(rng, proper=i % 2 == 0, sizes=(ell + 1, ell + 2),
                        palettes=(ell, ell + 2), density=(0.25, 0.45))
        got = has_rainbow_path(g, ell)
        assert got == _has_rainbow_path_brute(g.n, g.neighbor_colors, ell)
        if g.num_colors >= ell:
            outcomes.add((i % 2 == 0, got))
    assert len(outcomes) == 4


def _count_root_walks(monkeypatch) -> list:
    """Patch `rainbow._walk` to record the start of each root walk."""
    walk = rainbow._walk
    roots = []

    def counting(adj, path, *rest):
        if len(path) == 1:
            roots.append(path[0])
        return walk(adj, path, *rest)

    monkeypatch.setattr(rainbow, "_walk", counting)
    return roots


def test_each_half_table_is_walked_once(monkeypatch):
    # one root walk per table, each table shared by the middle edges at
    # its vertex
    roots = _count_root_walks(monkeypatch)
    g = d_star(7)
    assert not has_rainbow_path(g, 7)
    assert len(roots) <= g.n


def test_p5_free_constructions_walk_each_half_table_once(monkeypatch):
    # at ell 5 each middle edge joins the tables of its ends: one root walk
    # per vertex, each a table's, numbered within its 16-vertex block
    roots = _count_root_walks(monkeypatch)
    halves = rainbow._halves
    tables = []
    monkeypatch.setattr(rainbow, "_halves", lambda adj, v, h: (
        tables.append(v) or halves(adj, v, h)))
    for g in (d_star(5), lower_bound_graph(64, 5)):
        roots.clear()
        tables.clear()
        assert not has_rainbow_path(g, 5)
        assert sorted(roots) == sorted(tables) == sorted(
            list(range(16)) * (g.n // 16))


def test_capped_half_tables_keep_their_verdicts(monkeypatch):
    monkeypatch.setattr(rainbow, "HALF_CEILING", 2 ** 10)
    roots = _count_root_walks(monkeypatch)
    for k, ell, verdict in ((6, 6, False), (7, 6, True), (8, 7, True),
                            (7, 7, False)):
        roots.clear()
        g = d_star(k)
        assert has_rainbow_path(g, ell) == verdict
    # d_star(7)'s 64 tables of 210 halves no longer fit at once
    assert len(roots) > g.n


def _count_group_joins(monkeypatch) -> dict:
    """Patch `rainbow._halves` and `rainbow._meets` to count, over all
    joins: `meets`, the calls; `scans`, the right tables whose groups are
    scanned for one left group (each `items()` call but the left loop's
    own); `lookups`, the groups looked up by color mask; `masks`, the
    vertex masks read from the groups' lists, left halves and right ones
    alike."""
    counts = dict.fromkeys(("meets", "scans", "lookups", "masks"), 0)

    class Masks(list):
        def __iter__(self):
            for vm in list.__iter__(self):
                counts["masks"] += 1
                yield vm

    class Groups(dict):
        def items(self):
            counts["scans"] += 1
            return dict.items(self)

        def get(self, key, default=None):
            counts["lookups"] += 1
            return dict.get(self, key, default)

    halves, meets = rainbow._halves, rainbow._meets

    def counted_halves(adj, v, h):
        groups, colors, size = halves(adj, v, h)
        return (Groups({cm: (common, Masks(vms))
                        for cm, (common, vms) in groups.items()}),
                colors, size)

    def counted_meets(*args):
        counts["meets"] += 1
        counts["scans"] -= 1
        return meets(*args)

    monkeypatch.setattr(rainbow, "_halves", counted_halves)
    monkeypatch.setattr(rainbow, "_meets", counted_meets)
    return counts


def test_group_join_reads_no_vertex_mask_on_the_constructions(monkeypatch):
    # in d_star(ell) the halves from x in color set S all end at one
    # vertex, x with the bits of S flipped (the diagonal color flipping
    # all), and each color-compatible pair of groups ends at the same one:
    # the common masks skip every pair, and the one group of the colors
    # left is looked up, never scanned. At 7 each of the 224 middle edges
    # looks up a group for the 20 of x's 35 groups that avoid its color;
    # at 8 each of the 128 middle vertices for its 70 groups
    counts = _count_group_joins(monkeypatch)
    for ell, middles, lookups in ((7, 224, 224 * 20), (8, 128, 128 * 70)):
        counts.update(dict.fromkeys(counts, 0))
        assert not has_rainbow_path(d_star(ell), ell)
        assert counts == {"meets": middles, "scans": 0, "lookups": lookups,
                          "masks": 0}
    # a pendant edge in a new color leaves more than h colors outside a
    # left group: the right groups are scanned and the halves compared
    counts.update(dict.fromkeys(counts, 0))
    g = d_star(7)
    assert has_rainbow_path(build(g.n + 1, g.edges + ((0, g.n, 7),)), 7)
    assert counts["scans"] and counts["masks"]


def test_left_half_meeting_the_right_groups_common_vertex_is_skipped(
        monkeypatch):
    # the first middle edge (0, 1) in color 0: 0's group in colors {1, 2}
    # holds 0-2-3 and 0-4-5, 1's group in {3, 4} holds 1-6-3 and 1-7-3,
    # whose common vertex is 3. The half through 3 is read and skipped
    # without reading 1's halves; 0-4-5 then meets 1-6-3 at once: three
    # masks read, five if each left half were compared with each right one
    counts = _count_group_joins(monkeypatch)
    g = build(8, [(0, 1, 0), (0, 2, 1), (2, 3, 2), (0, 4, 2), (4, 5, 1),
                  (1, 6, 3), (6, 3, 4), (1, 7, 4), (7, 3, 3)])
    assert has_rainbow_path(g, 5)
    assert counts == {"meets": 1, "scans": 0, "lookups": 1, "masks": 3}


def _perturbed_construction(rng, ell: int, keep: float, i: int):
    """d_star(ell), or for odd i lower_bound_graph's two blocks, each edge
    kept with probability `keep`, then by i // 2 % 4: as it is (rainbow-
    P_ell-free), one edge recolored at random (improper too), a chord
    added in a random color, or a pendant edge added in the new color ell;
    under shuffled ids."""
    base = lower_bound_graph(2 << (ell - 1), ell) if i % 2 else d_star(ell)
    n = base.n
    edges = [e for e in base.edges if rng.random() < keep]
    mode = i // 2 % 4
    if mode == 1:
        j = rng.randrange(len(edges))
        edges[j] = (*edges[j][:2], rng.randrange(ell))
    elif mode == 2:
        u, v = rng.sample(range(n), 2)
        if all({u, v} != {a, b} for a, b, _ in edges):
            edges.append((u, v, rng.randrange(ell)))
    elif mode == 3:
        edges.append((rng.randrange(n), n, ell))
        n += 1
    ids = list(range(n))
    rng.shuffle(ids)
    return build(n, [(ids[u], ids[v], c) for u, v, c in edges])


@pytest.mark.parametrize("ell, keep, cases",
                         [(5, 0.85, 24), (6, 0.6, 16), (7, 0.4, 16),
                          (8, 0.27, 12)])
def test_group_join_matches_brute_force_on_perturbed_constructions(
        ell, keep, cases, monkeypatch):
    # the brute force walks every simple walk, so the longer lengths thin
    # their blocks more; both verdicts come up at each length, and both
    # the lookup of one right group and the scan of them all run
    counts = _count_group_joins(monkeypatch)
    rng = Random(70 + ell)
    verdicts = set()
    for i in range(cases):
        g = _perturbed_construction(rng, ell, keep, i)
        got = has_rainbow_path(g, ell)
        assert got == _has_rainbow_path_brute(g.n, g.neighbor_colors, ell)
        verdicts.add(got)
    assert verdicts == {True, False}
    assert counts["lookups"] and counts["scans"]


def _proper_extensions(g):
    """Every (u, v, c) that adds a non-edge of g and keeps it properly
    colored: c is any color free at both ends, or one new color."""
    nbr = g.neighbor_colors
    for u, v in combinations(range(g.n), 2):
        if v in nbr[u]:
            continue
        used = set(nbr[u].values()) | set(nbr[v].values())
        for c in range(g.num_colors + 1):
            if c not in used:
                yield u, v, c


def _grown_free_graph(rng, n, ell):
    """Random rainbow-P_ell-free proper graph: try the pairs in random
    order, each with a random proper color, and keep the feasible edges."""
    g = build(n, [])
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    for u, v in pairs:
        options = [(a, b, c) for a, b, c in _proper_extensions(g)
                   if (a, b) == (u, v)]
        if options:
            child = build(n, g.edges + (rng.choice(options),))
            if not has_rainbow_path(child, ell):
                g = child
    return g


def test_path_through_new_edge_matches_full_search_on_children():
    # on a rainbow-P_ell-free parent, a child has a rainbow P_ell iff one
    # runs through its new edge, so the through-edge test is the whole
    # feasibility test of the search
    rng = Random(47)
    parents = [(ell, _grown_free_graph(rng, rng.randint(3, 7), ell))
               for ell in range(1, 7) for _ in range(4)]
    parents += [(ell, g) for ell in (3, 4, 5)
                for g in rainbow_free_instances(rng, ell, 4) if g.n <= 16]
    outcomes = set()
    for ell, g in parents:
        assert not has_rainbow_path(g, ell)
        for u, v, c in _proper_extensions(g):
            child = build(g.n, g.edges + ((u, v, c),))
            expected = has_rainbow_path(child, ell)
            assert _has_rainbow_path_brute(
                child.n, child.neighbor_colors, ell) == expected
            got = has_rainbow_path_through(g, u, v, c, ell)
            assert got == expected == has_rainbow_path_through(g, v, u, c, ell)
            outcomes.add((c < g.num_colors, got))
    # both verdicts occur, for a color the parent already uses and for a
    # new one
    assert outcomes == {(True, True), (True, False), (False, True),
                        (False, False)}


def test_path_through_new_edge_with_a_reused_color():
    # 0-1 (color 0), 4-5 (color 1), 5-6 (color 2); joining 1 and 4 gives
    # the path 0-1-4-5-6
    g = build(7, [(0, 1, 0), (4, 5, 1), (5, 6, 2)])
    assert has_rainbow_path_through(g, 1, 4, 2, 3)  # colors 0, 2, 1
    # color 2 comes back on 5-6, a new color 3 does not
    assert not has_rainbow_path_through(g, 1, 4, 2, 4)
    assert has_rainbow_path_through(g, 1, 4, 3, 4)
    assert not has_rainbow_path_through(g, 1, 4, 3, 5)
    with pytest.raises(ValueError):
        has_rainbow_path_through(g, 1, 4, 2, 0)


def test_thread_count_does_not_change_output():
    g = d_star(4)
    for ell in (3, 4):
        base = enumerate_rainbow_cycles(g, ell)
        assert enumerate_rainbow_cycles(g, ell, threads=3) == base
    base = enumerate_rainbow_paths(g, 3)
    assert enumerate_rainbow_paths(g, 3, threads=4) == base


def test_verify_witness_rejects_tampered_certificates():
    g = d_star(3)
    w = enumerate_rainbow_cycles(g, 3)[0]
    assert verify_witness(g, w)
    wrong_color = RainbowWitness(w.kind, w.vertices,
                                 tuple((c + 1) % 3 for c in w.colors))
    assert not verify_witness(g, wrong_color)
    short = RainbowWitness("path", w.vertices, w.colors)
    assert not verify_witness(g, short)
    off_graph = RainbowWitness(w.kind, tuple(v + 4 for v in w.vertices),
                               w.colors)
    assert not verify_witness(g, off_graph)
    # the same copy in another orientation is a different, rejected witness
    vs, cs = w.vertices, w.colors
    rotated = RainbowWitness("cycle", vs[1:] + vs[:1], cs[1:] + cs[:1])
    reflected = RainbowWitness("cycle", vs[:1] + vs[:0:-1], cs[::-1])
    assert not verify_witness(g, rotated)
    assert not verify_witness(g, reflected)
    p = enumerate_rainbow_paths(g, 2)[0]
    assert verify_witness(g, p)
    reversed_path = RainbowWitness("path", p.vertices[::-1], p.colors[::-1])
    assert not verify_witness(g, reversed_path)


_TRIANGLE = build(3, [(0, 1, 0), (0, 2, 1), (1, 2, 2)])
_REUSED_COLOR_PATH = build(4, [(0, 1, 0), (1, 2, 1), (2, 3, 0)])


@pytest.mark.parametrize("query,refusal", [
    # a closed walk: every edge and color is right, but vertex 0 repeats
    (lambda: verify_witness(_TRIANGLE, RainbowWitness(
        "path", (0, 1, 2, 0), (0, 2, 1))), False),
    # a properly colored path that is not rainbow
    (lambda: verify_witness(_REUSED_COLOR_PATH, RainbowWitness(
        "path", (0, 1, 2, 3), (0, 1, 0))), False),
    (lambda: verify_witness(_TRIANGLE, RainbowWitness(
        "walk", (0, 1, 2), (0, 1))), False),
    (lambda: rainbow_paths_between(_TRIANGLE, 0, 3, 1),
     "endpoint out of range"),
], ids=["witness-repeated-vertex", "witness-repeated-color",
        "witness-unknown-kind", "between-endpoint-out-of-range"])
def test_malformed_queries_are_refused(query, refusal):
    if refusal is False:
        assert query() is False
    else:
        with pytest.raises(ValueError, match=refusal):
            query()


# --------------------------------------------------------------- tables

# Digest of every rainbow query below on _table_graphs(), frozen from the
# per-root filtered tables that the single grown tables replaced.
TABLE_DIGEST = "5f5aca553ca7542742dd5c7ab1c4cfea1335ce03e09615690ef385230b4618b1"


def _table_graphs():
    rng = Random(1010)
    gs = [random_proper_graph(rng, dense=i % 3 == 0) for i in range(12)]
    gs += [random_colored_graph(rng, max_n=7) for _ in range(12)]
    # isolated vertices at the end and between the others
    gs += [build(g.n + 2, g.edges) for g in gs[::4]]
    gs += [build(2 * g.n, [(2 * u, 2 * v, c) for u, v, c in g.edges])
           for g in gs[1::4]]
    gs += [d_star(3), d_star(4), d_star(5), hypercube(4),
           lower_bound_graph(11, 3)]
    return gs


def _table_results(g):
    for ell in range(3, 7):
        yield "C", ell, [(w.vertices, w.colors)
                         for w in enumerate_rainbow_cycles(g, ell)]
    for ell in range(1, 6):
        yield "P", ell, [(w.vertices, w.colors)
                         for w in enumerate_rainbow_paths(g, ell)]
        yield "has", ell, has_rainbow_path(g, ell)
    banned = frozenset({g.num_colors // 2})
    for ell in range(1, 5):
        for x in range(g.n):
            for y in range(g.n):
                if x != y:
                    for f in (frozenset(), banned):
                        yield "xy", (x, y, ell, sorted(f)), [
                            (w.vertices, w.colors)
                            for w in rainbow_paths_between(g, x, y, ell, f)]


def test_rainbow_query_bytes_are_frozen():
    h = hashlib.sha256()
    for g in _table_graphs():
        h.update(repr((g.n, g.edges)).encode())
        for item in _table_results(g):
            h.update(repr(item).encode())
    assert h.hexdigest() == TABLE_DIGEST


def test_adjacency_rows_are_the_sorted_edge_rows():
    # both tables are built from `edges`, neither from the other, and so
    # are a canonical representative's
    graphs = _table_graphs()
    graphs += [graph_of_key(canonical_key(g)) for g in _table_graphs()[:12]]
    for g in graphs:
        rows = [[] for _ in range(g.n)]
        for u, v, c in g.edges:
            rows[u].append((v, c))
            rows[v].append((u, c))
        assert g.adjacency == [sorted(row) for row in rows]
        assert g._nbr is None
        assert g.adjacency == [list(row.items()) for row in g.neighbor_colors]


def test_large_cube_cycle_enumeration_is_not_quadratic():
    # one grown table, not a filtered copy of all 4096 rows per root:
    # about 1 s on a 2-CPU host, about 40 s with the per-root copies
    g = hypercube(12)
    start = time.perf_counter()
    assert enumerate_rainbow_cycles(g, 4) == []
    # bipartite: an odd length stops before any walk
    assert enumerate_rainbow_cycles(g, 5) == []
    assert time.perf_counter() - start < 10


# --------------------------------------------------------------- errors


def test_length_parameter_validation():
    g = build(3, [(0, 1, 0), (1, 2, 1)])
    with pytest.raises(ValueError):
        enumerate_rainbow_paths(g, 0)
    with pytest.raises(ValueError):
        enumerate_rainbow_cycles(g, 2)
    # a rejected length leaves no per-edge table behind
    for _ in range(2):
        with pytest.raises(ValueError):
            count_per_edge(g, 2)
    # MAX_LEN bounds the walk's recursion depth, not a bitmask
    for f in (enumerate_rainbow_paths, enumerate_rainbow_cycles,
              has_rainbow_path):
        with pytest.raises(ValueError, match=r"^length parameter 63 exceeds "
                           r"62, the limit on the walk's recursion depth$"):
            f(g, MAX_LEN + 1)
    for threads in (0, -5):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            enumerate_rainbow_paths(g, 1, threads=threads)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            enumerate_rainbow_cycles(g, 3, threads=threads)
