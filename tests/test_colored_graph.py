"""Tests for the edge-colored graph container and its canonical form.

The canonical form is the load-bearing piece: the exhaustive search uses
it for isomorph rejection, so it must be a complete invariant under
simultaneous vertex and color relabeling. The tests here check both
directions against a brute-force isomorphism oracle on small graphs.
"""

import hashlib
import itertools
import sys
import time
from random import Random

import pytest

import rainbowgraphs
from rainbowgraphs import colored_graph, search
from rainbowgraphs.colored_graph import (MAX_VERTICES, EdgeColoredGraph,
                                         build, canonical_form,
                                         canonical_generators, canonical_key,
                                         degree, graph_of_key,
                                         is_properly_colored)
from rainbowgraphs.constructions import d_star, hypercube, lower_bound_graph
from rainbowgraphs.corpus import _greedy_color, random_proper_graph
from rainbowgraphs.rainbow import has_rainbow_path
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


@pytest.mark.parametrize("call,expected", [
    (lambda: build(3, [(0, 1)]), ValueError(r"must be a \(u, v, c\) triple")),
    (lambda: build(3, [(0, 1, 0.5)]), ValueError("must contain integers")),
    (lambda: degree(build(3, []), 3), ValueError("vertex 3 out of range")),
    (lambda: canonical_key(build(0, [])), (0, 0, ())),
    (lambda: canonical_form(build(0, [])), ((0, 0, ()), build(0, []))),
], ids=["build-pair", "build-float-color", "degree-out-of-range",
        "canonical-key-empty", "canonical-form-empty"])
def test_guards_and_the_empty_graph(call, expected):
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError, match=str(expected)):
            call()
    else:
        assert call() == expected


def test_build_validates_then_normalizes_once(monkeypatch):
    # build() runs its checks over a one-shot generator, then hands the
    # cleaned pairs to the one normalization routine; a malformed entry
    # of any kind stops it first, with the message the checks give
    calls = []
    normalize = colored_graph._normalized

    def recording(n, edges):
        calls.append((n, list(edges)))
        return normalize(n, edges)

    monkeypatch.setattr(colored_graph, "_normalized", recording)
    g = build(4, (e for e in [(3, 2, 7), (1, 0, 7), (2, 0, -1)]))
    assert g.edges == ((0, 1, 0), (0, 2, 1), (2, 3, 0))
    assert g.num_colors == 2
    assert calls == [(4, [(2, 3, 7), (0, 1, 7), (0, 2, -1)])]
    calls.clear()
    for entries, message in [
        ([(0, 1)], r"^edge entry must be a \(u, v, c\) triple: \(0, 1\)$"),
        ([5], r"^edge entry must be a \(u, v, c\) triple: 5$"),
        ([(0, 1, "a")], r"^edge entry must contain integers: \(0, 1, 'a'\)$"),
        ([(2, 2, 0)], r"^loop edge at vertex 2$"),
        ([(0, 4, 0)], r"^vertex out of range 0..3 in edge \(0, 4, 0\)$"),
        ([(0, 1, 0), (1, 0, 1)], r"^duplicate edge pair \(0, 1\)$"),
    ]:
        with pytest.raises(ValueError, match=message):
            build(4, (e for e in entries))
    assert not calls


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


def test_public_names_resolve():
    names = rainbowgraphs.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(rainbowgraphs, n)] == []


def test_graph_equality_and_hash_follow_edge_tuples():
    a = build(3, [(0, 1, 0), (1, 2, 1)])
    b = build(3, [(1, 2, 1), (0, 1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != build(4, [(0, 1, 0), (1, 2, 1)])
    # an object of another type is never equal to a graph
    assert a.__eq__(((0, 1, 0), (1, 2, 1))) is NotImplemented
    assert a != "graph" and a not in [None, 3, a.edges]
    assert repr(a) == "EdgeColoredGraph(n=3, m=2, colors=2)"
    assert repr(build(0, [])) == "EdgeColoredGraph(n=0, m=0, colors=0)"


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


def _one_ordering(g):
    """True iff every cell of g's refined partition except the isolated
    vertices' holds one vertex, so only one vertex order is allowed."""
    rank = colored_graph._refined_ranks(g)
    ranks = [rank[v] for v in range(g.n) if g.neighbor_colors[v]]
    return len(set(ranks)) == len(ranks)


def test_one_allowed_order_still_gives_a_canonical_code():
    # when the refinement fixes the order the code is written in one
    # pass, numbering color slots along the whole code; it must be the
    # same for every relabeling, padding with isolated vertices only
    # puts zeros in front of each row, decoding it gives back g's class,
    # and no automorphism moves a vertex that has an edge
    rng = Random(127)
    graphs = [random_proper_graph(rng, n=rng.randint(2, 10), dense=i % 2 == 1)
              for i in range(300)]
    fixed = [g for g in graphs if _one_ordering(g)]
    assert len(fixed) >= 100
    assert any(g.n - sum(map(bool, g.neighbor_colors)) >= 2 for g in fixed)
    for g in fixed:
        n, k, code = key = canonical_key(g)
        assert canonical_generators(g) == ()
        rep = build(n, graph_of_key(key).edges)
        assert is_properly_colored(rep) and canonical_key(rep) == key
        for pad in (0, 1, 3):
            rows = [(0,) * i for i in range(pad)]
            # row i of a flat code is the i cells from index i*(i-1)/2 on
            rows += [(0,) * pad + code[i * (i - 1) // 2:i * (i + 1) // 2]
                     for i in range(n)]
            expected = (n + pad, k, tuple(itertools.chain(*rows)))
            vperm = list(range(n + pad))
            cperm = list(range(k))
            rng.shuffle(vperm)
            rng.shuffle(cperm)
            other = _relabel(build(n + pad, g.edges), vperm, cperm)
            assert _one_ordering(other)
            assert canonical_key(other) == expected


def test_canonical_key_beyond_recursion_limit():
    n = sys.getrecursionlimit() + 100
    key = canonical_key(build(n, []))
    assert key == (n, 0, (0,) * (n * (n - 1) // 2))


def test_canonical_walk_is_not_quadratic_in_the_placed_count():
    # a long walk path must not copy its whole prefix at every step; on
    # these 300 vertices that made the walk about eight times slower
    rng = Random(1)
    n = 300
    pairs = rng.sample(list(itertools.combinations(range(n), 2)), 300)
    g = build(n, _greedy_color(rng, n, pairs, 3))
    start = time.perf_counter()
    canonical_key(g)
    assert time.perf_counter() - start < 3


def test_isolated_vertices_are_placed_in_order():
    # the walk places the cell of isolated vertices in vertex order; that
    # is exact because in a proper coloring no two non-isolated vertices
    # share a neighbor -> color map (their common neighbor would carry two
    # edges of one color)
    rng = Random(137)
    n = 7 + sys.getrecursionlimit()
    g = build(n, [(0, 1, 0), (1, 2, 1), (0, 2, 2),
                  (3, 4, 0), (4, 5, 1), (5, 6, 2)])
    key, rep = canonical_form(g)
    for _ in range(2):
        vperm = list(range(n))
        rng.shuffle(vperm)
        cperm = [0, 1, 2]
        rng.shuffle(cperm)
        other_key, other_rep = canonical_form(_relabel(g, vperm, cperm))
        assert other_key == key
        assert other_rep.edges == rep.edges
    corpus = [random_proper_graph(rng, dense=i % 2 == 1) for i in range(300)]
    corpus += [hypercube(3), d_star(4), d_star(5), lower_bound_graph(13, 3),
               _circulant(12)]
    for h in corpus:
        maps = [tuple(sorted(m.items())) for m in h.neighbor_colors if m]
        assert len(set(maps)) == len(maps)


def test_canonical_form_returns_isomorphic_graph_with_same_key():
    rng = Random(103)
    for _ in range(40):
        g = random_proper_graph(rng, n=rng.randint(2, 5))
        key, rep = canonical_form(g)
        # a fresh copy, so the key comes from a walk, not rep's record
        assert canonical_key(build(rep.n, rep.edges)) == key
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
        key2, rep2 = canonical_form(build(rep.n, rep.edges))
        assert key == key2
        assert rep.edges == rep2.edges


def test_canonical_form_walks_a_class_once(monkeypatch):
    # the canonical graph carries its code from the source's walk, so its
    # key costs no second walk
    walks = []
    real = colored_graph._canonical_code

    def counted(g):
        walks.append(g)
        return real(g)

    monkeypatch.setattr(colored_graph, "_canonical_code", counted)
    g = build(6, [(0, 1, 0), (1, 2, 1), (3, 4, 0), (4, 5, 1)])
    key, rep = canonical_form(g)
    assert canonical_key(rep) == key
    assert walks == [g]


def _induced_color_map(g, a):
    """The color bijection under which the vertex map a sends every edge
    of g onto an edge of g, or None if there is none."""
    nbr = g.neighbor_colors
    cmap = {}
    for u, v, c in g.edges:
        d = nbr[a[u]].get(a[v])
        if d is None or cmap.setdefault(c, d) != d:
            return None
    return cmap if len(set(cmap.values())) == len(cmap) else None


def _orbits(n, maps):
    """The vertex orbits of the group the maps generate, as frozensets."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a in maps:
        for x in range(n):
            root[find(x)] = find(a[x])
    return {frozenset(v for v in range(n) if find(v) == r) for r in range(n)
            if find(r) == r}


def _isolated_swaps(n, iso):
    """Transpositions of consecutive isolated vertices, which generate
    their permutations."""
    swaps = []
    for x, y in zip(iso, iso[1:]):
        swap = list(range(n))
        swap[x], swap[y] = y, x
        swaps.append(swap)
    return swaps


def test_cached_generators_are_automorphisms_of_the_canonical_graph():
    rng = Random(139)
    graphs = [random_proper_graph(rng, n=rng.randint(2, 10), dense=i % 2 == 1)
              for i in range(200)]
    graphs += [d_star(3), d_star(4), d_star(5), hypercube(3)]
    for n in (8, 10, 12, 14):
        vperm = list(range(n))
        cperm = [0, 1, 2]
        rng.shuffle(vperm)
        rng.shuffle(cperm)
        graphs.append(_relabel(_circulant(n), vperm, cperm))
    kept = 0
    for g in graphs:
        _, rep = canonical_form(g)
        gens = canonical_generators(g)
        assert len(gens) < max(g.n, 1)
        for a in gens:
            assert sorted(a) == list(range(g.n))
            assert _induced_color_map(rep, a) is not None
        kept += len(gens)
    # the circulants and constructions are vertex-transitive
    for g in graphs[200:]:
        assert _orbits(g.n, canonical_generators(g)) == {frozenset(range(g.n))}
    assert kept


def test_generators_reach_every_automorphism_orbit():
    # with the permutations of the isolated vertices, which no generator
    # moves, the generators have the orbits of the full automorphism group
    rng = Random(149)
    graphs = [random_proper_graph(rng, n=rng.randint(2, 6)) for _ in range(80)]
    graphs += [d_star(3), _circulant(6), build(5, [(0, 1, 0)])]
    for g in graphs:
        _, rep = canonical_form(g)
        autos = [a for a in itertools.permutations(range(g.n))
                 if _induced_color_map(rep, a) is not None]
        iso = [v for v in range(g.n) if not rep.neighbor_colors[v]]
        gens = canonical_generators(g)
        assert all(a[v] == v for a in gens for v in iso)
        assert _orbits(g.n, [*gens, *_isolated_swaps(g.n, iso)]) == \
            _orbits(g.n, autos)


def _check_inherited_walk(child):
    """Check one search child against a fresh copy of it, which inherits
    nothing; return how many maps the child inherited."""
    n = child.n
    inherited = child._cache.get("inherited", ())
    iso = [v for v in range(n) if not child.neighbor_colors[v]]
    for a in inherited:
        assert _induced_color_map(child, a) is not None, child.edges
        assert all(a[v] == v for v in iso), child.edges
    fresh = build(n, child.edges)
    key = canonical_key(child)
    assert key == canonical_key(fresh), child.edges
    # both walks place the isolated vertices first
    swaps = _isolated_swaps(n, list(range(len(iso))))
    assert _orbits(n, [*canonical_generators(child), *swaps]) == \
        _orbits(n, [*canonical_generators(fresh), *swaps]), child.edges
    return len(inherited)


def _symmetric_parents(rng, ell):
    """Canonical rainbow-P_ell-free graphs on at most 7 vertices that have
    automorphism generators, each with its generators packed."""
    sources = [build(7, [(0, i, i - 1) for i in range(1, 6)]),
               build(6, [(0, 1, 0), (2, 3, 0), (4, 5, 0)]),
               build(6, [(0, 1, 0), (2, 3, 1)]), d_star(3), _circulant(6)]
    for _ in range(300):
        g = random_proper_graph(rng, n=rng.randint(2, 7))
        sources += [g, build(min(g.n + 2, 7), g.edges)]
    parents = []
    for src in sources:
        gens = canonical_generators(src)
        if gens and not has_rainbow_path(src, ell):
            parents.append((canonical_form(src)[1],
                            bytes(itertools.chain.from_iterable(gens))))
    return parents


def test_inherited_generators_leave_key_and_orbits_unchanged(monkeypatch):
    # a search child inherits the parent's maps that fix its new edge and
    # its color; the walk prunes with them, and must still find the key
    # and the generator orbits a walk without them finds
    inherited = 0
    for ell in range(1, 6):
        for g, gens in _symmetric_parents(Random(700 + ell), ell):
            for colors in (None, 2, 3):
                p = search.SearchProblem(max(g.n, 2), ell, "max_edges",
                                         colors=colors)
                for child in search._extend_one(g, p, gens):
                    if not isinstance(child, str):
                        inherited += _check_inherited_walk(child)
    assert inherited
    # every child of two grid points; (5, 5) caught a walk that pruned
    # with maps that move the prefix, which the parents above did not
    real = search._extend_one
    for n, ell, objective, value in [(8, 3, "max_edges", 12),
                                     (5, 5, "max_rainbow_cycles", 12)]:
        children = []

        def recorded(g, p, gens=None):
            for child in real(g, p, gens):
                if not isinstance(child, str):
                    children.append(child)
                yield child

        monkeypatch.setattr(search, "_extend_one", recorded)
        p = search.SearchProblem(n, ell, objective)
        assert search.solve(p).value == value
        assert sum(map(_check_inherited_walk, children))


class _CountedRow(dict):
    """A neighbor row that counts its `get` calls: the walk reads one
    per cell of each candidate row it writes."""

    reads = 0

    def get(self, key, default=None):
        _CountedRow.reads += 1
        return dict.get(self, key, default)


def test_inherited_generators_prune_tied_siblings(monkeypatch):
    # K_(1,6) grown from K_(1,5) + K_1 inherits the parent's maps of the
    # five old leaves, so of the six tied first vertices the walk tries
    # only two, and fewer below them; without them it writes every row of
    # all 6! leaf orders
    monkeypatch.setattr(_CountedRow, "reads", 0)
    src = build(7, [(0, i, i - 1) for i in range(1, 6)])
    parent = canonical_form(src)[1]
    gens = bytes(itertools.chain.from_iterable(canonical_generators(src)))
    p = search.SearchProblem(7, 3, "max_edges")
    [child] = [c for c in search._extend_one(parent, p, gens)
               if not isinstance(c, str)]
    assert len(child._cache["inherited"]) == 4
    fresh = build(7, child.edges)
    reads = []
    for g in (child, fresh):
        g._nbr = [_CountedRow(row) for row in g.neighbor_colors]
        _CountedRow.reads = 0
        canonical_key(g)
        reads.append(_CountedRow.reads)
    assert reads == [176, 12150]
    # the first of each orbit is kept, so both walks reach the same first
    # leaf here and give the same generators in the same labels
    assert canonical_generators(child) == canonical_generators(fresh)


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
