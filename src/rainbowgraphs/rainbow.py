"""Enumeration and counting of rainbow paths and rainbow cycles.

A rainbow subgraph has pairwise distinct edge colors. P_ell denotes the
path with ell edges (ell+1 vertices), C_ell the cycle with ell edges.
All searches run on one DFS kernel, `_walk`, which extends a simple path
edge by edge under a color bitmask and hands each full-length walk to a
leaf callback. A vertex put at the front of the path is never visited,
which keeps the far end of a fixed-endpoint path off the walk. It works
on any colored graph, proper or not; properness is only a hypothesis of
the checker module. A rainbow P_ell needs ell colors and ell+1 vertices,
a C_ell ell of each, so a length above either count returns at once.

`has_rainbow_path` at ell >= 6 meets in the middle: each path is split
at a middle vertex m, the longer halves from m are stored by color mask
and vertex mask, and the shorter halves from m look for a stored half
disjoint from them in both, so each middle vertex walks about
Delta^(ell/2) halves where each start walked about Delta^ell paths.
Below 6, or where a half-table could grow past `HALF_CEILING`, the walk
from every start runs instead.

Each subgraph copy is stored once, in the orientation the walks produce:
a path starts at its smaller endpoint; a cycle starts at its minimal
vertex and goes next to the smaller of its two neighbors. Each witness
is built once, in the walk's leaf, and each list is sorted before
return, so output is deterministic. Enumeration runs in the caller's
thread; `threads` is validated and changes nothing.
"""

from __future__ import annotations

from typing import NamedTuple

from .colored_graph import EdgeColoredGraph

#: Ceiling on ell: it bounds `_walk`'s recursion depth, one frame per
#: edge (Python ints do not overflow, and color masks index colors).
MAX_LEN = 62

#: Largest number of halves `has_rainbow_path` may store for one middle
#: vertex, as bounded by Delta * (Delta - 1)^(b - 1) for halves of b
#: edges; above it the walk from every start runs, which on a graph rich
#: in rainbow paths stops at its first leaf.
HALF_CEILING = 1 << 18


class RainbowWitness(NamedTuple):
    """A concrete rainbow path or cycle in a host graph, as a sortable tuple.

    For a path, colors[i] is the color of edge (vertices[i], vertices[i+1])
    and len(colors) == len(vertices) - 1. For a cycle, colors[i] is the
    color of edge (vertices[i], vertices[(i+1) % len]) and
    len(colors) == len(vertices).
    """

    kind: str
    vertices: tuple[int, ...]
    colors: tuple[int, ...]


def _check_args(ell: int, low: int, threads: int = 1) -> None:
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if ell < low:
        raise ValueError(f"length parameter must be >= {low}, got {ell}")
    if ell > MAX_LEN:
        raise ValueError(
            f"length parameter {ell} exceeds {MAX_LEN}, the limit on the "
            "walk's recursion depth")


def verify_witness(g: EdgeColoredGraph, w: RainbowWitness) -> bool:
    """Re-check a witness against its host graph: adjacency, stated colors,
    rainbowness, simplicity, and the orientation rule of the module."""
    vs, cs = w.vertices, w.colors
    if len(set(vs)) != len(vs):
        return False
    if any(not (0 <= v < g.n) for v in vs):
        return False
    nbr = g.neighbor_colors
    if w.kind == "path":
        if len(vs) < 2 or len(cs) != len(vs) - 1 or vs[0] > vs[-1]:
            return False
        pairs = list(zip(vs, vs[1:], cs))
    elif w.kind == "cycle":
        if (len(vs) < 3 or len(cs) != len(vs)
                or vs[0] != min(vs) or vs[1] > vs[-1]):
            return False
        pairs = [(vs[i], vs[(i + 1) % len(vs)], cs[i]) for i in range(len(vs))]
    else:
        return False
    if len(set(cs)) != len(cs):
        return False
    return all(nbr[a].get(b) == c for a, b, c in pairs)


def _walk(adj, path: list, cols: list, cmask: int, k: int, leaf) -> bool:
    """Extend the simple path `path` (edge colors `cols`, used colors the
    bits of `cmask`) by exactly k edges of `adj` with new vertices and
    unused colors, calling leaf(path, cols, cmask) on each full-length walk.
    A vertex put at the front of `path` is never visited. A truthy leaf
    stops the walk at once, with `path` and `cols` unrestored."""
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


def enumerate_rainbow_paths(g: EdgeColoredGraph, ell: int,
                            threads: int = 1) -> list[RainbowWitness]:
    """All rainbow paths with exactly ell edges, one witness per copy."""
    _check_args(ell, 1, threads)
    if ell > min(g.num_colors, g.n - 1):
        return []
    found = []

    def leaf(path, cols, cmask):
        if path[-1] > path[0]:
            found.append(RainbowWitness("path", tuple(path), tuple(cols)))

    for s in range(g.n):
        _walk(g.adjacency, [s], [], 0, ell, leaf)
    found.sort()
    return found


def _is_bipartite(nbr) -> bool:
    # breadth-first 2-coloring, given up at the first clash
    side = [-1] * len(nbr)
    for s in range(len(nbr)):
        if side[s] < 0:
            side[s] = 0
            queue = [s]
            for x in queue:
                for y in nbr[x]:
                    if side[y] < 0:
                        side[y] = 1 - side[x]
                        queue.append(y)
                    elif side[y] == side[x]:
                        return False
    return True


def _cycles(g: EdgeColoredGraph, ell: int) -> list:
    # roots r in decreasing order, each the minimal vertex of its cycles:
    # walk ell-2 edges on `above`, which then holds only the neighbors
    # above r, and let the leaf close the last two edges itself, to a
    # neighbor w of r above path[1] (one direction of each cycle)
    nbr = g.neighbor_colors
    # a bipartite graph has no odd cycle: no walk of odd ell can close;
    # a rainbow C_ell needs ell distinct colors and ell vertices
    if ell > min(g.num_colors, g.n) or ell % 2 and _is_bipartite(nbr):
        return []
    above: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    found = []

    def leaf(path, cols, cmask):
        back, low = nbr[path[0]], path[1]
        for w, c in above[path[-1]]:
            d = back.get(w)
            if (d is not None and w > low and c != d
                    and not (cmask >> c | cmask >> d) & 1 and w not in path):
                found.append(RainbowWitness("cycle", (*path, w),
                                            (*cols, c, d)))

    for r in reversed(range(g.n)):
        _walk(above, [r], [], 0, ell - 2, leaf)
        for u, c in nbr[r].items():
            above[u].append((r, c))
    found.sort()
    return found


def enumerate_rainbow_cycles(g: EdgeColoredGraph, ell: int,
                             threads: int = 1) -> list[RainbowWitness]:
    """All rainbow cycles with exactly ell edges, one witness per copy.

    The witnesses are cached on the graph (immutable), so repeated checker
    calls share one enumeration; each call returns a new list of them.
    """
    _check_args(ell, 3, threads)
    key = ("cycles", ell)
    if key not in g._cache:
        g._cache[key] = _cycles(g, ell)
    return list(g._cache[key])


def _stop(*_) -> bool:
    return True


def has_rainbow_path(g: EdgeColoredGraph, ell: int) -> bool:
    """True iff some rainbow path with exactly ell edges exists.

    At ell >= 6 every path is split at a middle vertex m into halves of
    b = ell - ell//2 and ell//2 edges. For each m, the b-edge halves from
    m are stored as vertex masks (m left out) grouped by color mask; then
    each (ell//2)-edge half from m stops at the first stored half whose
    color and vertex masks are both disjoint from its own. Below 6 the
    split costs more than it saves, and where Delta * (Delta - 1)^(b - 1)
    exceeds `HALF_CEILING` one table could be huge, so in both cases a
    walk runs from every start and stops at the first full-length path.
    """
    _check_args(ell, 1)
    key = ("haspath", ell)
    if key not in g._cache:
        g._cache[key] = _has_path(g, ell)
    return g._cache[key]


def _vertex_mask(path) -> int:
    # the vertices after the front one, which is the middle vertex
    mask = 0
    for v in path[1:]:
        mask |= 1 << v
    return mask


def _has_path(g: EdgeColoredGraph, ell: int) -> bool:
    # a rainbow P_ell needs ell distinct colors and ell + 1 vertices
    if ell > min(g.num_colors, g.n - 1):
        return False
    adj = g.adjacency
    b = ell - ell // 2
    top = max(map(len, adj))
    if ell < 6 or top * (top - 1) ** (b - 1) > HALF_CEILING:
        return any(_walk(adj, [s], [], 0, ell, _stop) for s in range(g.n))
    for m in range(g.n):
        halves: dict[int, list[int]] = {}

        def store(path, cols, cmask):
            halves.setdefault(cmask, []).append(_vertex_mask(path))

        _walk(adj, [m], [], 0, b, store)
        # stored vertex masks of the halves color-disjoint from cmask,
        # gathered once per color mask of a short half
        fits: dict[int, list[int]] = {}

        def join(path, cols, cmask):
            vms = fits.get(cmask)
            if vms is None:
                vms = fits[cmask] = [vm for cm, group in halves.items()
                                     if not cm & cmask for vm in group]
            mask = _vertex_mask(path)
            for vm in vms:
                if not vm & mask:
                    return True
            return False

        if halves and _walk(adj, [m], [], 0, ell // 2, join):
            return True
    return False


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
    # the child's colors: those of g, plus c if it is new
    if ell > min(g.num_colors + (c >= g.num_colors), g.n - 1):
        return False
    adj = g.adjacency
    for a in range(ell):
        def leaf(path, cols, cmask, rest=ell - 1 - a):
            return _walk(adj, path[::-1], cols[::-1], cmask, rest, _stop)

        if _walk(adj, [v, u], [c], 1 << c, a, leaf):
            return True
    return False


def count_per_edge(g: EdgeColoredGraph, ell: int) -> dict[tuple[int, int], int]:
    """Map each edge (u, v) of g to f(e), the number of rainbow C_ell
    witnesses containing it: consecutive vertex pairs plus the closing one.
    Every edge appears, with 0 when absent from all cycles. Cached on the
    graph like the cycles; each call returns a new dict."""
    key = ("per_edge", ell)
    if key not in g._cache:
        counts = {(u, v): 0 for u, v, _ in g.edges}
        for _, vs, _ in enumerate_rainbow_cycles(g, ell):
            a = vs[-1]
            for b in vs:
                counts[(a, b) if a < b else (b, a)] += 1
                a = b
        g._cache[key] = counts
    return dict(g._cache[key])


def rainbow_paths_between(g: EdgeColoredGraph, x: int, y: int, ell: int,
                          forbidden=frozenset()) -> list[RainbowWitness]:
    """Rainbow paths between x and y with exactly ell edges avoiding all
    colors in `forbidden`, each from the smaller endpoint to the larger."""
    _check_args(ell, 1)
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError("endpoint out of range")
    if x == y:
        raise ValueError("endpoints must differ")
    # with x < y, walk ell-1 edges from [y, x], so y stays off the walk,
    # then close to y with an unused color; forbidden colors start used
    x, y = min(x, y), max(x, y)
    banned = frozenset(forbidden)
    cmask = sum(1 << c for c in range(g.num_colors) if c in banned)
    if ell > min(g.num_colors - cmask.bit_count(), g.n - 1):
        return []
    back = g.neighbor_colors[y]
    found = []

    def leaf(path, cols, cmask):
        c = back.get(path[-1])
        if c is not None and not cmask >> c & 1:
            found.append(RainbowWitness("path", (*path[1:], y), (*cols, c)))

    _walk(g.adjacency, [y, x], [], cmask, ell - 1, leaf)
    found.sort()
    return found


def vertices_on_rainbow_cycles(g: EdgeColoredGraph, ell: int) -> set[int]:
    """V': the set of vertices lying on at least one rainbow C_ell."""
    return {v for w in enumerate_rainbow_cycles(g, ell) for v in w.vertices}
