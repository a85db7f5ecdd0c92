"""Hypercube and diagonal-augmented extremal constructions.

The headline counts (edges, rainbow cycle totals, one-diagonal-per-cycle)
were independently confirmed with the naive reference enumerator before
being frozen here; the acceptance suite re-derives them end to end.
"""

import hashlib
import math

import pytest

from rainbowgraphs.colored_graph import build, degree, is_properly_colored
from rainbowgraphs.constructions import (d_star, disjoint_union, hypercube,
                                         lower_bound_graph)
from rainbowgraphs.rainbow import enumerate_rainbow_cycles, has_rainbow_path


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_hypercube_shape(d):
    g = hypercube(d)
    assert g.n == 1 << d
    assert g.m == d * (1 << (d - 1))
    assert g.num_colors == d
    assert is_properly_colored(g)
    assert all(degree(g, v) == d for v in range(g.n))
    # color equals the differing bit position
    for u, v, c in g.edges:
        assert u ^ v == 1 << c


def test_hypercube_2_is_a_four_cycle_with_opposite_colors():
    g = hypercube(2)
    assert g.m == 4
    by_color = {}
    for u, v, c in g.edges:
        by_color.setdefault(c, []).append((u, v))
    assert sorted(len(v) for v in by_color.values()) == [2, 2]


def test_hypercube_rejects_out_of_range_dimension():
    with pytest.raises(ValueError):
        hypercube(0)
    with pytest.raises(ValueError):
        hypercube(17)


def test_d_star3_is_k4_one_factorization():
    g = d_star(3)
    assert (g.n, g.m, g.num_colors) == (4, 6, 3)
    assert len({(u, v) for u, v, _ in g.edges}) == 6  # complete graph
    assert is_properly_colored(g)


@pytest.mark.parametrize("ell", [3, 4, 5, 6])
def test_d_star_invariants(ell):
    g = d_star(ell)
    assert g.n == 1 << (ell - 1)
    assert g.m == ell * (1 << (ell - 2))
    assert g.num_colors == ell
    assert is_properly_colored(g)
    assert all(degree(g, v) == ell for v in range(g.n))
    assert not has_rainbow_path(g, ell)
    cycles = enumerate_rainbow_cycles(g, ell)
    assert len(cycles) == math.factorial(ell - 1) * (1 << (ell - 2))
    # the fresh diagonal color appears exactly once in every rainbow cycle
    diag = g.neighbor_colors[0][g.n - 1]
    assert all(w.colors.count(diag) == 1 for w in cycles)


def test_d_star_diagonals_connect_antipodes():
    for ell in (3, 4, 5):
        g = d_star(ell)
        full = g.n - 1
        diag = g.neighbor_colors[0][full]
        diag_edges = [(u, v) for u, v, c in g.edges if c == diag]
        assert len(diag_edges) == g.n // 2
        assert all(u ^ v == full for u, v in diag_edges)


def test_d_star_rejects_out_of_range_parameter():
    with pytest.raises(ValueError):
        d_star(2)
    with pytest.raises(ValueError):
        d_star(13)


def test_disjoint_union_shapes_and_additivity():
    a = d_star(3)
    u = disjoint_union([a, a])
    assert u.n == 8 and u.m == 12
    assert len(enumerate_rainbow_cycles(u, 3)) == 8
    two_edges = disjoint_union([build(2, [(0, 1, 0)]), build(2, [(0, 1, 0)])])
    assert two_edges.n == 4 and two_edges.m == 2
    empty = disjoint_union([])
    assert empty.n == 0 and empty.m == 0


def test_disjoint_union_vertex_ceiling():
    # 2^16 vertices fit; one more is refused before any edge is shifted
    assert disjoint_union([build(1 << 16, [])]).n == 1 << 16
    with pytest.raises(ValueError,
                       match=r"^vertex count must be in 0\.\.65536, got 65537$"):
        disjoint_union([build(1 << 16, []), build(1, [])])


def test_disjoint_union_keeps_rainbow_freeness():
    u = disjoint_union([d_star(3), d_star(3), d_star(3)])
    assert not has_rainbow_path(u, 3)


@pytest.mark.parametrize("n,ell,blocks,cycles", [
    (16, 5, 1, 192),
    (8, 3, 2, 8),
    (5, 3, 1, 4),
    (20, 4, 2, 48),
])
def test_lower_bound_graph_counts(n, ell, blocks, cycles):
    g = lower_bound_graph(n, ell)
    assert g.n == n
    assert g.m == blocks * ell * (1 << (ell - 2))
    assert not has_rainbow_path(g, ell)
    assert len(enumerate_rainbow_cycles(g, ell)) == cycles


def test_lower_bound_graph_rejects_too_few_vertices():
    with pytest.raises(ValueError):
        lower_bound_graph(3, 3)
    with pytest.raises(ValueError):
        lower_bound_graph(15, 5)


def test_lower_bound_graph_matches_padded_union():
    # one build of the shifted blocks equals the union padded afterwards
    for ell, copies, pad in [(3, 1, 0), (3, 2, 1), (3, 3, 2), (4, 2, 5),
                             (5, 1, 3), (5, 2, 0), (6, 3, 7)]:
        union = disjoint_union([d_star(ell)] * copies)
        padded = build(union.n + pad, union.edges)
        got = lower_bound_graph(union.n + pad, ell)
        assert got == padded and got.num_colors == padded.num_colors


def test_lower_bound_graph_validation():
    with pytest.raises(ValueError, match=">= 3"):
        lower_bound_graph(8, 2)
    # the vertex limit is checked before any block list is made
    with pytest.raises(ValueError, match="exceed the limit"):
        lower_bound_graph(10 ** 9, 3)
    with pytest.raises(ValueError, match="exceed the limit"):
        lower_bound_graph((1 << 16) + 1, 3)
    assert lower_bound_graph(1 << 16, 3).n == 1 << 16  # at the limit


#: SHA-256 over repr((n, num_colors, edges)) of `_frozen_constructions()`,
#: computed with every construction still going through build().
CONSTRUCTION_DIGEST = (
    "2590673b60cbc888f905815506e3792308a92bf7b28fcc79cdd2138a7034cd27")


def _frozen_constructions():
    yield from (hypercube(d) for d in range(1, 13))
    yield from (d_star(ell) for ell in range(3, 13))
    for ell in range(3, 8):
        block = 1 << (ell - 1)
        for n in (block, block + 1, 2 * block - 1, 3 * block + 2):
            yield lower_bound_graph(n, ell)
    # mixed blocks: colors shared, an empty block, one renumbered
    yield disjoint_union([hypercube(3), d_star(4), build(3, []),
                          build(4, [(3, 0, 9), (1, 2, -4)]), d_star(3)])


def test_construction_bytes_are_frozen():
    # the constructions normalize their edges without build()'s checks;
    # each graph must still be what build() makes of its own edges
    h = hashlib.sha256()
    for g in _frozen_constructions():
        again = build(g.n, g.edges)
        assert again == g and again.num_colors == g.num_colors
        h.update(repr((g.n, g.num_colors, g.edges)).encode())
    assert h.hexdigest() == CONSTRUCTION_DIGEST
