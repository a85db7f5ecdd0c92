"""Tests for the edge-colored graph container and its canonical form.

The canonical form is the load-bearing piece: the exhaustive search uses
it for isomorph rejection, so it must be a complete invariant under
simultaneous vertex and color relabeling. The tests here check both
directions against a brute-force isomorphism oracle on small graphs.
"""

import hashlib
import itertools
import sys
from random import Random

import pytest

from rainbowgraphs.colored_graph import (MAX_VERTICES, EdgeColoredGraph,
                                         build, canonical_form, canonical_key,
                                         color_partition, degree,
                                         is_properly_colored)
from rainbowgraphs.constructions import d_star, hypercube, lower_bound_graph
from rainbowgraphs.corpus import random_proper_graph
from rainbowgraphs.reference import matching_partitions


def _relabel(g, vperm, cperm):
    edges = [(vperm[u], vperm[v], cperm[c]) for u, v, c in g.edges]
    return build(g.n, edges)


def _circulant(n):
    """C_n with alternating colors 0/1 plus the antipodal perfect matching
    in color 2 (n even): a vertex-transitive cubic colored graph."""
    edges = [(i, (i + 1) % n, i % 2) for i in range(n)]
    edges += [(i, i + n // 2, 2) for i in range(n // 2)]
    return build(n, edges)


def _brute_isomorphic(a, b):
    """Oracle: try every vertex permutation, then demand the induced color
    map is a well-defined injection."""
    if (a.n, a.m, a.num_colors) != (b.n, b.m, b.num_colors):
        return False
    target = {(u, v): c for u, v, c in b.edges}
    for perm in itertools.permutations(range(a.n)):
        cmap = {}
        used = set()
        ok = True
        for u, v, c in a.edges:
            x, y = perm[u], perm[v]
            if x > y:
                x, y = y, x
            tc = target.get((x, y))
            if tc is None:
                ok = False
                break
            if c in cmap:
                if cmap[c] != tc:
                    ok = False
                    break
            elif tc in used:
                ok = False
                break
            else:
                cmap[c] = tc
                used.add(tc)
        if ok:
            return True
    return False


# ---------------------------------------------------------------- build


def test_build_normalizes_colors_by_first_appearance():
    g = build(3, [(0, 1, 7), (1, 2, 3)])
    assert g.num_colors == 2
    assert [c for _, _, c in g.edges] == [0, 1]


def test_build_orders_edge_endpoints_and_sorts_edges():
    g = build(4, [(3, 2, 0), (1, 0, 1)])
    assert g.edges == ((0, 1, 0), (2, 3, 1))


def test_build_rejects_self_loops():
    with pytest.raises(ValueError, match="loop"):
        build(3, [(1, 1, 0)])


def test_build_rejects_duplicate_edges():
    with pytest.raises(ValueError, match="duplicate"):
        build(3, [(0, 1, 0), (1, 0, 1)])


def test_build_rejects_out_of_range_vertices():
    with pytest.raises(ValueError):
        build(2, [(0, 2, 0)])
    with pytest.raises(ValueError):
        build(2, [(-1, 0, 0)])


def test_build_normalizes_arbitrary_color_labels():
    # colors are equivalence classes, so negative or huge labels are fine
    g = build(2, [(0, 1, -1)])
    assert g.edges == ((0, 1, 0),)


def test_color_partition_rejects_improper_coloring():
    with pytest.raises(ValueError, match="not properly"):
        color_partition(build(3, [(0, 1, 0), (1, 2, 0)]))


def test_empty_graph_is_fine():
    g = build(5, [])
    assert g.m == 0 and g.num_colors == 0
    assert is_properly_colored(g)


def test_build_vertex_ceiling():
    assert build(1 << 16, []).n == MAX_VERTICES
    with pytest.raises(ValueError, match="vertex count"):
        build(MAX_VERTICES + 1, [])
    with pytest.raises(ValueError, match="vertex count"):
        build(-1, [])


# ------------------------------------------------------- basic queries


def test_degree_and_handshake():
    rng = Random(11)
    for _ in range(50):
        g = random_proper_graph(rng)
        assert sum(degree(g, v) for v in range(g.n)) == 2 * g.m


def test_adjacency_matches_edges():
    g = build(4, [(0, 1, 0), (1, 2, 1), (2, 3, 0)])
    assert g.adjacency[1] == [(0, 0), (2, 1)]
    assert g.neighbor_colors[2] == {1: 1, 3: 0}


def test_is_properly_colored_detects_conflicts():
    assert is_properly_colored(build(3, [(0, 1, 0), (1, 2, 1)]))
    assert not is_properly_colored(build(3, [(0, 1, 0), (1, 2, 0)]))


def test_color_partition_partitions_edges_into_matchings():
    rng = Random(13)
    for _ in range(30):
        g = random_proper_graph(rng)
        part = color_partition(g)
        assert len(part.classes) == g.num_colors
        seen = set()
        for cls in part.classes:
            touched = set()
            for u, v in cls:
                assert u not in touched and v not in touched
                touched.update((u, v))
            seen.update(cls)
        assert seen == {(u, v) for u, v, _ in g.edges}


def test_graph_equality_and_hash_follow_edge_tuples():
    a = build(3, [(0, 1, 0), (1, 2, 1)])
    b = build(3, [(1, 2, 1), (0, 1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != build(4, [(0, 1, 0), (1, 2, 1)])


# ------------------------------------------------------ canonical form


def test_canonical_key_invariant_under_relabeling():
    rng = Random(101)
    graphs = [random_proper_graph(rng) for _ in range(120)]
    # symmetric inputs, where backtracking over orderings blows up
    symmetric = [hypercube(3), d_star(4), d_star(5),
                 lower_bound_graph(12, 3), _circulant(10), _circulant(12)]
    for g in graphs + [g for g in symmetric for _ in range(2)]:
        vperm = list(range(g.n))
        rng.shuffle(vperm)
        cperm = list(range(g.num_colors))
        rng.shuffle(cperm)
        h = _relabel(g, vperm, cperm)
        assert canonical_key(g) == canonical_key(h)


def test_canonical_form_bytes_are_frozen():
    # pins keys and canonical edges byte for byte: the canonicalizer may
    # change how it finds the minimal code, never which code it returns
    rng = Random(127)
    graphs = [random_proper_graph(rng, n=rng.randint(2, 10), dense=i % 2 == 1)
              for i in range(300)]
    graphs += [hypercube(3), d_star(4), lower_bound_graph(8, 3),
               lower_bound_graph(12, 3)]
    h = hashlib.sha256()
    for g in graphs:
        key, rep = canonical_form(g)
        h.update(repr(key).encode())
        h.update(repr(rep.edges).encode())
    assert h.hexdigest() == (
        "ddfeec4d48a033433a3abbfeea18d0e67c43b24af6dea807e1e9da752b0d77a2")


def test_canonical_key_beyond_recursion_limit():
    n = sys.getrecursionlimit() + 100
    key = canonical_key(build(n, []))
    assert key == (n, 0, (0,) * (n * (n - 1) // 2))


def test_canonical_form_returns_isomorphic_graph_with_same_key():
    rng = Random(103)
    for _ in range(40):
        g = random_proper_graph(rng, n=rng.randint(2, 5))
        key, rep = canonical_form(g)
        assert canonical_key(rep) == key
        assert _brute_isomorphic(g, rep)


def test_canonical_key_separates_different_colorings_of_same_graph():
    # C_4 colored with two alternating colors vs. three colors: not
    # isomorphic (class sizes differ), keys must differ.
    two = build(4, [(0, 1, 0), (1, 2, 1), (2, 3, 0), (0, 3, 1)])
    three = build(4, [(0, 1, 0), (1, 2, 1), (2, 3, 2), (0, 3, 1)])
    assert canonical_key(two) != canonical_key(three)


def test_canonical_key_complete_on_all_small_proper_colorings():
    """Exhaustive soundness check at n = 4: group every labeled properly
    colored graph by key, then verify keys agree exactly with brute-force
    isomorphism (equal within groups, distinct across a sample of pairs).
    """
    n = 4
    pairs = list(itertools.combinations(range(n), 2))
    groups = {}
    for r in range(len(pairs) + 1):
        for sub in itertools.combinations(pairs, r):
            for colors in matching_partitions(n, list(sub)):
                g = build(n, [(u, v, c) for (u, v), c in zip(sub, colors)])
                groups.setdefault(canonical_key(g), []).append(g)
    # every class has at least one member, and K_4 colorings are present
    assert sum(len(v) for v in groups.values()) > len(groups)
    for members in groups.values():
        rep = members[0]
        for other in members[1:]:
            assert _brute_isomorphic(rep, other)
    reps = [members[0] for members in groups.values()]
    rng = Random(7)
    for _ in range(80):
        a, b = rng.sample(reps, 2)
        assert not _brute_isomorphic(a, b)


def test_canonical_key_rejects_improper_coloring():
    with pytest.raises(ValueError, match="properly"):
        canonical_key(build(3, [(0, 1, 0), (1, 2, 0)]))


def test_canonical_key_agrees_with_brute_isomorphism_on_random_pairs():
    rng = Random(109)
    for _ in range(60):
        n = rng.randint(2, 5)
        g = random_proper_graph(rng, n=n)
        h = random_proper_graph(rng, n=n)
        same_key = canonical_key(g) == canonical_key(h)
        assert same_key == _brute_isomorphic(g, h)


def test_triangle_and_three_edge_path_get_different_keys():
    tri = build(3, [(0, 1, 0), (1, 2, 1), (0, 2, 2)])
    path = build(4, [(0, 1, 0), (1, 2, 1), (2, 3, 2)])
    assert canonical_key(tri) != canonical_key(path)


def test_key_and_form_agree_whichever_comes_first():
    # canonical_key caches only the key; canonical_form builds its graph
    # from that key, so the call order must not matter
    rng = Random(131)
    for i in range(60):
        g = random_proper_graph(rng, dense=i % 2 == 1)
        first_key, first_form = build(g.n, g.edges), build(g.n, g.edges)
        key = canonical_key(first_key)
        form_key, rep = canonical_form(first_form)
        assert key == form_key == canonical_form(first_key)[0]
        assert canonical_key(first_form) == key
        assert canonical_form(first_key)[1].edges == rep.edges


def test_canonical_form_idempotent():
    rng = Random(113)
    for _ in range(30):
        g = random_proper_graph(rng)
        key, rep = canonical_form(g)
        key2, rep2 = canonical_form(rep)
        assert key == key2
        assert rep.edges == rep2.edges


def test_canonical_key_distinguishes_color_structure_not_labels():
    # path 0-1-2 with two colors equals path 2-1-0 with swapped colors
    a = build(3, [(0, 1, 0), (1, 2, 1)])
    b = build(3, [(2, 1, 1), (1, 0, 0)])
    assert canonical_key(a) == canonical_key(b)


def test_instances_do_not_share_caches():
    a = build(3, [(0, 1, 0), (1, 2, 1)])
    canonical_key(a)
    b = build(3, [(0, 1, 0), (1, 2, 0)])
    assert not is_properly_colored(b)
    assert is_properly_colored(a)
