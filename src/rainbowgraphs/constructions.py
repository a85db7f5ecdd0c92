"""Extremal lower-bound constructions built from colored hypercubes.

The building block is the hypercube Q_d on bitstring vertices, edges
colored by the bit position in which their endpoints differ. Adding all
2^(ell-2) antipodal diagonals x -- complement(x) with one fresh color
yields an ell-regular graph (`d_star`) that is properly colored, has no
rainbow path of length ell, and carries exactly (ell-1)! * 2^(ell-2)
rainbow cycles of length ell, every one through exactly one diagonal.
Disjoint unions of such blocks plus isolated padding vertices realize the
lower-bound count at any vertex count n >= 2^(ell-1).

Vertices encode bitstrings little-endian (bit b has weight 2**b), fixed so
witnesses are reproducible across runs and implementations.
"""

from __future__ import annotations

from .colored_graph import MAX_VERTICES, EdgeColoredGraph, _normalized


def _cube_edges(d: int) -> list[tuple[int, int, int]]:
    # sorted by (u, v), so colors 0..d-1 first appear in order at vertex 0
    return [(x, x | 1 << b, b)
            for x in range(1 << d) for b in range(d) if not x >> b & 1]


def hypercube(d: int) -> EdgeColoredGraph:
    """Q_d with edges colored by differing bit position.

    Vertices are 0..2^d-1; edge {x, x ^ (1 << b)} gets color b. Properly
    colored, d-regular, d * 2^(d-1) edges. Requires 1 <= d <= 16.
    """
    if not (1 <= d <= 16):
        raise ValueError(f"hypercube dimension must be in 1..16, got {d}")
    return _normalized(1 << d, _cube_edges(d))


def d_star(ell: int) -> EdgeColoredGraph:
    """The diagonal-augmented hypercube on 2^(ell-1) vertices.

    hypercube(ell-1) plus all antipodal diagonals {x, complement(x)},
    every diagonal colored with the fresh color ell-1. Requires
    3 <= ell <= 12 (practical enumeration ceiling).
    """
    if not (3 <= ell <= 12):
        raise ValueError(f"parameter must be in 3..12, got {ell}")
    d = ell - 1
    size = 1 << d
    full = size - 1
    edges = _cube_edges(d)
    edges.extend((x, x ^ full, d) for x in range(size // 2))
    return _normalized(size, edges)


def _padded_union(gs, n: int) -> EdgeColoredGraph:
    # the blocks side by side, isolated vertices up to n; normalized blocks
    # shifted apart give valid edges
    edges = []
    offset = 0
    for g in gs:
        edges.extend((u + offset, v + offset, c) for u, v, c in g.edges)
        offset += g.n
    return _normalized(n, edges)


def disjoint_union(gs) -> EdgeColoredGraph:
    """Vertex-disjoint union; vertex ids shifted, color ids kept per-block
    identical (blocks may share colors; rainbowness inside any connected
    subgraph is unaffected)."""
    gs = list(gs)
    n = sum(g.n for g in gs)
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {n}")
    return _padded_union(gs, n)


def lower_bound_graph(n: int, ell: int) -> EdgeColoredGraph:
    """floor(n / 2^(ell-1)) disjoint d_star(ell) blocks padded with
    isolated vertices to exactly n vertices. Requires n >= 2^(ell-1)."""
    if ell < 3:
        raise ValueError(f"parameter must be >= 3, got {ell}")
    block_size = 1 << (ell - 1)
    if n < block_size:
        raise ValueError(
            f"need at least {block_size} vertices for one block, got {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"{n} vertices exceed the limit {MAX_VERTICES}")
    return _padded_union([d_star(ell)] * (n // block_size), n)
