"""Rainbow path and cycle enumeration against the naive reference.

Counts on the diagonal-augmented hypercube constructions were computed
independently with the permutation-filter enumerator in
rainbowgraphs.reference before being frozen here.
"""

from itertools import combinations, permutations
from random import Random

import pytest

from rainbowgraphs.colored_graph import build
from rainbowgraphs.constructions import d_star
from rainbowgraphs.corpus import (rainbow_free_instances, random_colored_graph,
                                  random_proper_graph)
from rainbowgraphs.rainbow import (RainbowWitness, count_per_edge,
                                   enumerate_rainbow_cycles,
                                   enumerate_rainbow_paths, has_rainbow_path,
                                   has_rainbow_path_through,
                                   rainbow_paths_between, verify_witness,
                                   vertices_on_rainbow_cycles)
from rainbowgraphs.reference import (_has_rainbow_path_brute,
                                     naive_rainbow_cycles, naive_rainbow_paths)


def _witness_set(ws):
    return {(w.kind, w.vertices, w.colors) for w in ws}


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


def test_d_star3_has_four_rainbow_triangles():
    assert len(enumerate_rainbow_cycles(d_star(3), 3)) == 4


def test_d_star5_has_192_rainbow_c5():
    assert len(enumerate_rainbow_cycles(d_star(5), 5)) == 192


def test_improper_triangle_accepted_but_not_rainbow():
    g = build(3, [(0, 1, 0), (1, 2, 0), (0, 2, 1)])
    assert enumerate_rainbow_cycles(g, 3) == []


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


def test_vertices_on_rainbow_cycles_examples():
    assert vertices_on_rainbow_cycles(d_star(5), 5) == set(range(16))
    tree = build(4, [(0, 1, 0), (1, 2, 1), (1, 3, 2)])
    assert vertices_on_rainbow_cycles(tree, 3) == set()
    tri = build(4, [(0, 1, 0), (1, 2, 1), (0, 2, 2), (2, 3, 0)])
    assert vertices_on_rainbow_cycles(tri, 3) == {0, 1, 2}


# ----------------------------------------------------------- invariants


def test_witness_canonical_orientation_and_dedup():
    rng = Random(23)
    for _ in range(40):
        g = random_colored_graph(rng)
        for ell in (1, 2, 3):
            paths = enumerate_rainbow_paths(g, ell)
            assert len({frozenset(w.edge_set()) for w in paths}) == len(paths)
            for w in paths:
                assert w.kind == "path"
                assert w.vertices[0] < w.vertices[-1]
                assert len(w.colors) == ell and len(w.vertices) == ell + 1
                assert verify_witness(g, w)
        for ell in (3, 4):
            cycles = enumerate_rainbow_cycles(g, ell)
            assert len({frozenset(w.edge_set()) for w in cycles}) == len(cycles)
            for w in cycles:
                assert w.kind == "cycle"
                assert w.vertices[0] == min(w.vertices)
                assert w.vertices[1] < w.vertices[-1]
                assert len(w.colors) == ell and len(w.vertices) == ell
                assert verify_witness(g, w)


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
            if g.n <= 7:
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


# --------------------------------------------------------------- errors


def test_length_parameter_validation():
    g = build(3, [(0, 1, 0), (1, 2, 1)])
    with pytest.raises(ValueError):
        enumerate_rainbow_paths(g, 0)
    with pytest.raises(ValueError):
        enumerate_rainbow_cycles(g, 2)
    with pytest.raises(ValueError, match="62"):
        enumerate_rainbow_paths(g, 63)
    with pytest.raises(ValueError, match="62"):
        has_rainbow_path(g, 63)
    for threads in (0, -5):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            enumerate_rainbow_paths(g, 1, threads=threads)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            enumerate_rainbow_cycles(g, 3, threads=threads)
