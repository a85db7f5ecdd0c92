"""Enumeration and counting of rainbow paths and rainbow cycles.

A rainbow subgraph has pairwise distinct edge colors. P_ell denotes the
path with ell edges (ell+1 vertices), C_ell the cycle with ell edges.
All searches run on one DFS kernel, `_walk`, which extends a simple path
edge by edge under a color bitmask and hands each full-length walk to a
leaf callback. It works on any colored graph, proper or not; properness
is only a hypothesis of the checker module.

Witnesses are canonicalized so each subgraph copy appears exactly once:
paths are stored with the lexicographically smaller endpoint first, cycles
with their minimal vertex first followed by the lexicographically smaller
of the two directions. Results are sorted before return, so output is
deterministic. Enumeration runs in the caller's thread; the `threads`
argument is validated and otherwise does not change the work.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colored_graph import EdgeColoredGraph

#: Hard limit on the length parameter: the color bitmask of a rainbow
#: subgraph must fit a machine word.
MAX_LEN = 62


@dataclass(frozen=True)
class RainbowWitness:
    """A concrete rainbow path or cycle in a host graph.

    For a path, colors[i] is the color of edge (vertices[i], vertices[i+1])
    and len(colors) == len(vertices) - 1. For a cycle, colors[i] is the
    color of edge (vertices[i], vertices[(i+1) % len]) and
    len(colors) == len(vertices).
    """

    kind: str
    vertices: tuple[int, ...]
    colors: tuple[int, ...]

    def edge_set(self) -> frozenset:
        vs = self.vertices
        pairs = [tuple(sorted((vs[i], vs[i + 1]))) for i in range(len(vs) - 1)]
        if self.kind == "cycle":
            pairs.append(tuple(sorted((vs[-1], vs[0]))))
        return frozenset(pairs)


def _check_args(ell: int, low: int, threads: int = 1) -> None:
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if ell < low:
        raise ValueError(f"length parameter must be >= {low}, got {ell}")
    if ell > MAX_LEN:
        raise ValueError(
            f"length parameter {ell} exceeds the bitmask limit {MAX_LEN}")


def canonical_cycle(vertices, colors) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rotate/reflect a cycle sequence to canonical orientation."""
    k = len(vertices)
    best = None
    for start in range(k):
        for step in (1, -1):
            vs = tuple(vertices[(start + step * i) % k] for i in range(k))
            if step == 1:
                cs = tuple(colors[(start + i) % k] for i in range(k))
            else:
                cs = tuple(colors[(start - 1 - i) % k] for i in range(k))
            if best is None or (vs, cs) < best:
                best = (vs, cs)
    return best


def canonical_path(vertices, colors) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orient a path sequence so the smaller endpoint comes first."""
    vs = tuple(vertices)
    cs = tuple(colors)
    if vs[0] > vs[-1]:
        vs = vs[::-1]
        cs = cs[::-1]
    return vs, cs


def verify_witness(g: EdgeColoredGraph, w: RainbowWitness) -> bool:
    """Re-check a witness against its host graph: adjacency, stated colors,
    rainbowness, simplicity, and canonical orientation."""
    vs, cs = w.vertices, w.colors
    if len(set(vs)) != len(vs):
        return False
    if any(not (0 <= v < g.n) for v in vs):
        return False
    nbr = g.neighbor_colors
    if w.kind == "path":
        if len(vs) < 2 or len(cs) != len(vs) - 1:
            return False
        pairs = list(zip(vs, vs[1:], cs))
        if (vs, cs) != canonical_path(vs, cs):
            return False
    elif w.kind == "cycle":
        if len(vs) < 3 or len(cs) != len(vs):
            return False
        pairs = [(vs[i], vs[(i + 1) % len(vs)], cs[i]) for i in range(len(vs))]
        if (vs, cs) != canonical_cycle(vs, cs):
            return False
    else:
        return False
    if len(set(cs)) != len(cs):
        return False
    return all(nbr[a].get(b) == c for a, b, c in pairs)


def _walk(adj, path: list, cols: list, cmask: int, k: int, leaf) -> bool:
    """Extend the simple path `path` (edge colors `cols`, used colors the
    bits of `cmask`) by exactly k edges of `adj` with new vertices and
    unused colors, calling leaf(path, cols, cmask) on each full-length walk.
    A truthy leaf stops the walk at once, with `path` and `cols` unrestored."""
    if not k:
        return leaf(path, cols, cmask)
    for u, c in adj[path[-1]]:
        if cmask >> c & 1 or u in path:
            continue
        path.append(u)
        cols.append(c)
        if _walk(adj, path, cols, cmask | 1 << c, k - 1, leaf):
            return True
        cols.pop()
        path.pop()
    return False


def _paths_from_root(g: EdgeColoredGraph, s: int, ell: int) -> list:
    found = []

    def leaf(path, cols, cmask):
        if path[-1] > s:
            found.append((tuple(path), tuple(cols)))

    _walk(g.adjacency, [s], [], 0, ell, leaf)
    return found


def _cycles_from_root(g: EdgeColoredGraph, r: int, ell: int) -> list:
    # r is the cycle's minimal vertex: walk ell-1 edges above r, then
    # close back to r with an unused color
    above = [[(u, c) for u, c in row if u > r] for row in g.adjacency]
    back = g.neighbor_colors[r]
    found = []

    def leaf(path, cols, cmask):
        if path[1] < path[-1]:
            c = back.get(path[-1])
            if c is not None and not cmask >> c & 1:
                found.append((tuple(path), (*cols, c)))

    _walk(above, [r], [], 0, ell - 1, leaf)
    return found


def _over_roots(worker, g: EdgeColoredGraph, ell: int) -> list:
    return sorted(w for s in range(g.n) for w in worker(g, s, ell))


def enumerate_rainbow_paths(g: EdgeColoredGraph, ell: int,
                            threads: int = 1) -> list[RainbowWitness]:
    """All rainbow paths with exactly ell edges, one witness per copy."""
    _check_args(ell, 1, threads)
    raw = _over_roots(_paths_from_root, g, ell)
    return [RainbowWitness("path", vs, cs) for vs, cs in raw]


def enumerate_rainbow_cycles(g: EdgeColoredGraph, ell: int,
                             threads: int = 1) -> list[RainbowWitness]:
    """All rainbow cycles with exactly ell edges, one witness per copy.

    Results are cached on the graph (immutable), so repeated checker calls
    share one enumeration.
    """
    _check_args(ell, 3, threads)
    key = ("cycles", ell)
    if key not in g._cache:
        g._cache[key] = _over_roots(_cycles_from_root, g, ell)
    return [RainbowWitness("cycle", vs, cs) for vs, cs in g._cache[key]]


def _stop(*_) -> bool:
    return True


def has_rainbow_path(g: EdgeColoredGraph, ell: int) -> bool:
    """True iff some rainbow path with exactly ell edges exists."""
    _check_args(ell, 1)
    key = ("haspath", ell)
    if key not in g._cache:
        g._cache[key] = any(_walk(g.adjacency, [s], [], 0, ell, _stop)
                            for s in range(g.n))
    return g._cache[key]


def has_rainbow_path_through(g: EdgeColoredGraph, u: int, v: int, c: int,
                             ell: int) -> bool:
    """True iff adding the non-edge (u, v) with color c to g creates a
    rainbow path with exactly ell edges that uses the new edge.

    No graph is built: for each split a + (ell - 1 - a), walk a edges of g
    from u starting at [v, u] with only c used, then turn the path around
    and walk the remaining edges from v. For a rainbow-P_ell-free g this
    decides whether g + (u, v, c) has a rainbow P_ell at all.
    """
    _check_args(ell, 1)
    adj = g.adjacency
    for a in range(ell):
        def leaf(path, cols, cmask, rest=ell - 1 - a):
            return _walk(adj, path[::-1], cols[::-1], cmask, rest, _stop)

        if _walk(adj, [v, u], [c], 1 << c, a, leaf):
            return True
    return False


def count_per_edge(g: EdgeColoredGraph, ell: int) -> dict[tuple[int, int], int]:
    """Map each edge (u, v) of g to f(e), the number of rainbow C_ell
    witnesses containing it. Every edge appears, with 0 when absent from
    all cycles."""
    counts = {(u, v): 0 for u, v, _ in g.edges}
    for w in enumerate_rainbow_cycles(g, ell):
        for pair in w.edge_set():
            counts[pair] += 1
    return counts


def rainbow_paths_between(g: EdgeColoredGraph, x: int, y: int, ell: int,
                          forbidden=frozenset()) -> list[RainbowWitness]:
    """Rainbow paths from x to y with exactly ell edges avoiding all colors
    in `forbidden`."""
    _check_args(ell, 1)
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError("endpoint out of range")
    if x == y:
        raise ValueError("endpoints must differ")
    # y may only be the final vertex: walk ell-1 edges avoiding y, then
    # close to y with an unused color; forbidden colors start out used
    banned = frozenset(forbidden)
    cmask = sum(1 << c for c in range(g.num_colors) if c in banned)
    avoid_y = [[(u, c) for u, c in row if u != y] for row in g.adjacency]
    back = g.neighbor_colors[y]
    found = []

    def leaf(path, cols, cmask):
        c = back.get(path[-1])
        if c is not None and not cmask >> c & 1:
            found.append(canonical_path((*path, y), (*cols, c)))

    _walk(avoid_y, [x], [], cmask, ell - 1, leaf)
    found.sort()
    return [RainbowWitness("path", vs, cs) for vs, cs in found]


def vertices_on_rainbow_cycles(g: EdgeColoredGraph, ell: int) -> set[int]:
    """V': the set of vertices lying on at least one rainbow C_ell."""
    return {v for w in enumerate_rainbow_cycles(g, ell) for v in w.vertices}
