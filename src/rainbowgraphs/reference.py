"""Naive reference oracles.

Everything here is deliberately brute force and shares no traversal code
with the optimized modules: rainbow subgraphs are found by filtering all
vertex sequences (for paths between two vertices, all simple paths from
one of them), the orientation of each copy included, and the
reference search enumerates every labeled graph together with every
partition of its edges into matchings. These oracles define correctness
for the fast paths; tests assert exact agreement. Feasible only at very
small n (sequences: n <= 7; search: n <= 5).
"""

from __future__ import annotations

from itertools import combinations, permutations

from .colored_graph import EdgeColoredGraph
from .rainbow import RainbowWitness


def naive_rainbow_paths(g: EdgeColoredGraph, ell: int) -> list[RainbowWitness]:
    """All rainbow paths with ell edges, by filtering vertex sequences."""
    nbr = g.neighbor_colors
    out = []
    for seq in permutations(range(g.n), ell + 1):
        if seq[0] > seq[-1]:
            continue
        cols = []
        for a, b in zip(seq, seq[1:]):
            c = nbr[a].get(b)
            if c is None:
                break
            cols.append(c)
        else:
            if len(set(cols)) == ell:
                out.append(RainbowWitness("path", seq, tuple(cols)))
    return sorted(out)


def naive_rainbow_paths_between(g: EdgeColoredGraph, x: int, y: int,
                                ell: int, forbidden=()) -> list[RainbowWitness]:
    """The rainbow paths with ell edges between x and y avoiding the
    `forbidden` colors, from the smaller endpoint: every simple path of
    ell edges from that endpoint, grown one neighbor at a time with no
    color test, filtered at the end."""
    nbr = g.neighbor_colors
    x, y = min(x, y), max(x, y)
    seqs = [(x,)]
    for _ in range(ell):
        seqs = [seq + (b,) for seq in seqs for b in nbr[seq[-1]]
                if b not in seq]
    out = []
    for seq in seqs:
        cols = tuple(nbr[a][b] for a, b in zip(seq, seq[1:]))
        if (seq[-1] == y and len(set(cols)) == ell
                and not set(cols) & set(forbidden)):
            out.append(RainbowWitness("path", seq, cols))
    return sorted(out)


def naive_rainbow_cycles(g: EdgeColoredGraph, ell: int) -> list[RainbowWitness]:
    """All rainbow cycles with ell edges, by filtering vertex sequences."""
    nbr = g.neighbor_colors
    out = []
    for seq in permutations(range(g.n), ell):
        if seq[0] != min(seq) or seq[1] > seq[-1]:
            continue
        cols = []
        for i in range(ell):
            a, b = seq[i], seq[(i + 1) % ell]
            c = nbr[a].get(b)
            if c is None:
                break
            cols.append(c)
        else:
            if len(set(cols)) == ell:
                out.append(RainbowWitness("cycle", seq, tuple(cols)))
    return sorted(out)


# ---------------------------------------------------------------------------
# Reference exhaustive search: all labeled graphs x all matching partitions.


def _has_rainbow_path_brute(n: int, nbr: list[dict[int, int]], ell: int) -> bool:
    for seq in permutations(range(n), ell + 1):
        cols = []
        for a, b in zip(seq, seq[1:]):
            c = nbr[a].get(b)
            if c is None:
                break
            cols.append(c)
        else:
            if len(set(cols)) == ell:
                return True
    return False


def _count_rainbow_cycles_brute(n: int, nbr: list[dict[int, int]], ell: int) -> int:
    total = 0
    for seq in permutations(range(n), ell):
        cols = []
        for i in range(ell):
            c = nbr[seq[i]].get(seq[(i + 1) % ell])
            if c is None:
                break
            cols.append(c)
        else:
            if len(set(cols)) == ell:
                total += 1
    # each cycle copy was seen once per rotation and direction
    return total // (2 * ell)


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
