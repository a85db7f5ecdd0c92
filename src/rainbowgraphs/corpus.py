"""Seeded random instance generators for property suites.

All generators take an explicit random.Random so corpora are reproducible
from a printed seed. Rainbow-path-free instances mix three sources: edge
subsets of the diagonal construction (freeness is closed under taking
subgraphs), subsets of padded multi-block lower-bound graphs, and sparse
random proper colorings kept only when the freeness test passes.
"""

from __future__ import annotations

from random import Random

from .colored_graph import EdgeColoredGraph, _normalized
from .constructions import _padded_union, d_star
from .rainbow import has_rainbow_path


def _greedy_color(rng: Random, n: int, pairs, start_palette: int):
    """Proper coloring by randomized greedy: each edge takes a random
    feasible color from the current palette, growing it when forced."""
    palette = max(1, start_palette)
    used = [0] * n  # bit c set: color c is taken at the vertex
    edges = []
    order = list(pairs)
    rng.shuffle(order)
    for u, v in order:
        # the palette's colors free at both ends, in increasing order
        free = ~(used[u] | used[v]) & ((1 << palette) - 1)
        allowed = []
        while free:
            low = free & -free
            allowed.append(low.bit_length() - 1)
            free ^= low
        if not allowed:
            allowed = [palette]
            palette += 1
        c = rng.choice(allowed)
        used[u] |= 1 << c
        used[v] |= 1 << c
        edges.append((u, v, c))
    return edges


def random_proper_graph(rng: Random, n: int | None = None,
                        dense: bool = False) -> EdgeColoredGraph:
    """Random graph with a random proper coloring. Sparse by default
    (m <= 2n + 2); dense mode pulls n down to 4..6 and keeps most pairs."""
    if dense:
        n = n if n is not None else rng.randint(4, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.uniform(0.6, 1.0)]
    else:
        n = n if n is not None else rng.randint(3, 10)
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = rng.randint(0, min(2 * n + 2, len(all_pairs)))
        pairs = rng.sample(all_pairs, m)
    return _normalized(n, _greedy_color(rng, n, pairs, rng.randint(2, 6)))


def random_colored_graph(rng: Random, max_n: int = 6) -> EdgeColoredGraph:
    """Random colored graph with arbitrary (possibly improper) colors,
    for enumeration oracles that must accept any coloring."""
    n = rng.randint(2, max_n)
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = rng.randint(0, len(all_pairs))
    ncolors = rng.randint(1, max(1, m + 1))
    return _normalized(n, [(u, v, rng.randrange(ncolors))
                           for u, v in rng.sample(all_pairs, m)])


def _edge_subset(rng: Random, g: EdgeColoredGraph) -> EdgeColoredGraph:
    p = rng.uniform(0.3, 1.0)
    return _normalized(g.n, [e for e in g.edges if rng.random() < p])


def rainbow_free_instances(rng: Random, ell: int,
                           count: int) -> list[EdgeColoredGraph]:
    """`count` properly colored graphs with no rainbow path of ell edges."""
    block = d_star(ell)
    out: list[EdgeColoredGraph] = [block]
    size = block.n
    while len(out) < count:
        roll = rng.random()
        if roll < 0.45:
            g = _edge_subset(rng, block)
        elif roll < 0.65:
            # two blocks and 4 capped at 20, but never below one block and 4
            n = rng.randint(size, max(min(2 * size + 4, 20), size + 4))
            g = _edge_subset(rng, _padded_union([block] * (n // size), n))
        else:
            g = None
            for _ in range(60):
                cand = random_proper_graph(rng, n=rng.randint(3, 10))
                if not has_rainbow_path(cand, ell):
                    g = cand
                    break
            if g is None:
                g = _edge_subset(rng, block)
        out.append(g)
    return out[:count]
