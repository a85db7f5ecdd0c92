"""Naive reference oracles.

Everything here is deliberately brute force and shares no traversal code
with the optimized modules: rainbow subgraphs are found by growing every
simple walk one neighbor at a time, with no color test and no pruning,
and filtering the walks at the end, the orientation of each copy
included; the reference search enumerates every labeled graph together
with every partition of its edges into matchings. These oracles define
correctness for the fast paths; tests assert exact agreement. The walks
suit sparse graphs of a dozen or so vertices, the search only n <= 5.
"""

from __future__ import annotations

from itertools import combinations

from .colored_graph import EdgeColoredGraph
from .rainbow import RainbowWitness


def _walks(nbr: list[dict[int, int]], starts, ell: int):
    """Yield every simple walk of ell edges from one of `starts`, as a
    vertex tuple: depth first, one neighbor at a time, no color test."""
    stack = [(s,) for s in starts]
    while stack:
        walk = stack.pop()
        if len(walk) > ell:
            yield walk
        else:
            stack.extend(walk + (b,) for b in nbr[walk[-1]] if b not in walk)


def _rainbow(nbr, starts, ell: int, closed: bool = False):
    """(vertices, colors) of each walk from `starts` whose ell colors are
    distinct: a walk of ell edges, or if `closed` one of ell - 1 edges
    plus the edge back to its start, so that each cycle comes once per
    rotation and direction."""
    for seq in _walks(nbr, starts, ell - 1 if closed else ell):
        ends = seq[1:] + seq[:1] if closed else seq[1:]
        # a list: tuple() of a generator over-allocates and shrinks its
        # tuple, stranding one tuple per walk on a free list
        cols = [nbr[a].get(b) for a, b in zip(seq, ends)]
        if None not in cols and len(set(cols)) == ell:
            yield seq, tuple(cols)


def naive_rainbow_paths(g: EdgeColoredGraph, ell: int) -> list[RainbowWitness]:
    """All rainbow paths with ell edges, each from its smaller end."""
    return sorted(RainbowWitness("path", seq, cols) for seq, cols
                  in _rainbow(g.neighbor_colors, range(g.n), ell)
                  if seq[0] <= seq[-1])


def naive_rainbow_paths_between(g: EdgeColoredGraph, x: int, y: int,
                                ell: int, forbidden=()) -> list[RainbowWitness]:
    """The rainbow paths with ell edges between x and y avoiding the
    `forbidden` colors, from the smaller endpoint."""
    x, y = min(x, y), max(x, y)
    return sorted(RainbowWitness("path", seq, cols) for seq, cols
                  in _rainbow(g.neighbor_colors, [x], ell)
                  if seq[-1] == y and not set(cols) & set(forbidden))


def naive_rainbow_cycles(g: EdgeColoredGraph, ell: int) -> list[RainbowWitness]:
    """All rainbow cycles with ell edges, each from its smallest vertex
    toward the smaller of that vertex's two cycle neighbors."""
    return sorted(RainbowWitness("cycle", seq, cols) for seq, cols
                  in _rainbow(g.neighbor_colors, range(g.n), ell, True)
                  if seq[0] == min(seq) and seq[1] < seq[-1])


# ---------------------------------------------------------------------------
# Reference exhaustive search: all labeled graphs x all matching partitions.


def _has_rainbow_path_brute(n: int, nbr: list[dict[int, int]], ell: int) -> bool:
    return any(True for _ in _rainbow(nbr, range(n), ell))


def _count_rainbow_cycles_brute(n: int, nbr: list[dict[int, int]], ell: int) -> int:
    # each cycle copy was walked once per rotation and direction
    return sum(1 for _ in _rainbow(nbr, range(n), ell, True)) // (2 * ell)


def matching_partitions(n: int, edges):
    """Yield every partition of `edges` into matchings, as color tuples in
    restricted-growth form (class ids appear in first-use order)."""
    k = len(edges)
    assign = [0] * k
    touched: list[set] = []

    def rec(i: int):
        if i == k:
            yield tuple(assign)
            return
        u, v = edges[i][0], edges[i][1]
        for c in range(len(touched) + 1):
            if c < len(touched):
                if u in touched[c] or v in touched[c]:
                    continue
                touched[c].update((u, v))
                assign[i] = c
                yield from rec(i + 1)
                touched[c].difference_update((u, v))
            else:
                touched.append({u, v})
                assign[i] = c
                yield from rec(i + 1)
                touched.pop()

    yield from rec(0)


def naive_colorings(n: int, ell: int, objective: str):
    """Yield (value, edges) for every labeled graph on n vertices and
    every matchings-partition of its edges with no rainbow path of length
    ell: edges are (u, v, c) triples, colors in first-use order, and value
    is the objective's. No pruning beyond the matching property.
    """
    if objective not in ("max_edges", "max_rainbow_cycles"):
        raise ValueError(f"unknown objective {objective!r}")
    pairs = list(combinations(range(n), 2))
    for subset in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if subset >> i & 1]
        for colors in matching_partitions(n, edges):
            nbr: list[dict[int, int]] = [{} for _ in range(n)]
            for (u, v), c in zip(edges, colors):
                nbr[u][v] = c
                nbr[v][u] = c
            if _has_rainbow_path_brute(n, nbr, ell):
                continue
            if objective == "max_edges":
                value = len(edges)
            else:
                value = _count_rainbow_cycles_brute(n, nbr, ell)
            yield value, [(u, v, c) for (u, v), c in zip(edges, colors)]


def naive_search(n: int, ell: int, objective: str):
    """Reference optimum over naive_colorings(n, ell, objective).

    Returns (value, per_color_count): the optimum and a dict mapping the
    number of color classes used to the best objective value seen with
    exactly that many classes.
    """
    best = 0
    per_k: dict[int, int] = {}
    for value, edges in naive_colorings(n, ell, objective):
        k = len({c for _, _, c in edges})
        best = max(best, value)
        per_k[k] = max(per_k.get(k, 0), value)
    return best, per_k
