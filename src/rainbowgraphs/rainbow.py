"""Enumeration and counting of rainbow paths and rainbow cycles.

A rainbow subgraph has pairwise distinct edge colors. P_ell denotes the
path with ell edges (ell+1 vertices), C_ell the cycle with ell edges.
All searches run on one DFS kernel, `_walk`, which extends a simple path
edge by edge under a color bitmask and hands each full-length walk to a
leaf callback. It takes the last edge in a loop that calls the leaf
itself, so a full-length walk costs a call but no recursive frame. A
vertex put at the front of the path is never visited, which keeps the
far end of a fixed-endpoint path off the walk. Every walk reads the
graph's `adjacency` alone, never its neighbor dicts. It works on any
colored graph, proper or not; properness is only a hypothesis of the
checker module. A rainbow P_ell needs ell colors and ell+1 vertices, a
C_ell ell of each, so a length above either count returns at once.

Walks to a fixed end r close on a table of the 2-edge paths z-w-r whose
two edges differ in color, by z, so a walk's leaf scans the row of its
last vertex and closing edges are looked up once per end, not per walk.
For paths between x and y the end is y, without the paths through x.
The cycles a new edge (u, v, c) makes are the paths between u and v
that avoid c, so the search counts them with `rainbow_paths_between`.
For cycles the end is the root r, the least-ranked vertex of its
cycles, and its table grows one first neighbor p at a time: the walk
from [r, p] closes only through the neighbors taken before p, so each
cycle is walked once, in one direction. Roots rank by id, or by degree
descending (Chiba and Nishizeki, 1985) where the id order's tables
could cost over twice as much, as with a hub labeled last; witnesses
are then turned back to the id orientation. The witnesses hold no
reference cycle, so both enumerations pause the cyclic collector,
which would sweep the heap again and again as the list grows.

`has_rainbow_path` at ell >= 5 meets in the middle, one connected
component at a time, its vertices renumbered 0..size-1 in breadth-first
order so that vertex masks span the component, not the graph (one that
spans the graph keeps its ids). A component with at most ell vertices
or fewer than ell colors holds no rainbow P_ell and is skipped. One
table per vertex holds its rainbow halves of ell//2 edges, grouped by
color mask, and a path's middle vertex (even ell) or middle edge (odd
ell) joins two halves with disjoint color and vertex masks. The join
goes group against group: two groups whose common vertex masks (the
AND of their halves') meet are skipped whole, and where the colors left
beside a group number ell//2, the one group in those colors is looked
up, not scanned for. On the constructions every color-compatible pair
of groups ends at one vertex, so no two halves are compared. Each table
is walked once while the tables kept between middles fit in the bytes
of `HALF_CEILING` halves on 64 vertices, so a vertex walks about
Delta^(ell/2) halves where each start walked about Delta^ell paths.
Below 5, or where one table could take more than those bytes, the walk
from every start runs instead.

Each subgraph copy is stored once: a path starts at its smaller
endpoint, its leaf taking the last edge only to an end above the start;
a cycle starts at its minimal vertex and goes next to the smaller of its
two neighbors, as the walks from roots in id order produce it. Each
witness is built in the walk's leaf (and once more if it is turned),
through the tuple constructor (the named tuple's own `__new__` costs
twice as much). The walks emit the witnesses in sorted order, since
starts and adjacency rows ascend and the cycle roots, their rows and
closing tables run from the highest id down (that list is reversed);
only cycles turned from degree-ordered roots are sorted, so output is
deterministic. Enumeration runs in the caller's thread; `threads` is
validated and changes nothing.
"""

from __future__ import annotations

import gc
from functools import reduce
from operator import and_
from typing import NamedTuple

from .colored_graph import EdgeColoredGraph

#: Ceiling on ell: it bounds `_walk`'s recursion depth, one frame per
#: edge but the last (Python ints do not overflow, and color masks index
#: colors).
MAX_LEN = 62

#: Largest number of halves `has_rainbow_path` may hold on 64 vertices,
#: its bytes the budget on any component. One table can hold
#: Delta * (Delta - 1)^(h - 1) halves of h edges, each a vertex mask in a
#: list, about n/8 + 40 bytes on a component of n vertices; where that
#: passes what the cap takes at 48 bytes a half, the walk from every
#: start runs, which on a graph rich in rainbow paths stops at its first
#: leaf. The tables kept for later middles fit in those bytes together,
#: each group's common vertex mask weighed as one more half;
#: past them a table is walked again for each middle.
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
    stops the walk at once, with `path` and `cols` unrestored. The loop
    that takes the last edge calls the leaf itself, so a full-length walk
    costs no frame of its own."""
    if not k:
        return leaf(path, cols, cmask)
    for u, c in adj[path[-1]]:
        if cmask >> c & 1 or u in path:
            continue
        path.append(u)
        cols.append(c)
        if (leaf(path, cols, cmask | 1 << c) if k == 1 else
                _walk(adj, path, cols, cmask | 1 << c, k - 1, leaf)):
            return True
        cols.pop()
        path.pop()
    return False


def _paused(enumerate_, *args):
    # each witness is tracked by the cyclic collector, whose passes sweep
    # the heap while the list grows: off for the call, then as it was
    enabled = gc.isenabled()
    gc.disable()
    try:
        return enumerate_(*args)
    finally:
        if enabled:
            gc.enable()


def enumerate_rainbow_paths(g: EdgeColoredGraph, ell: int,
                            threads: int = 1) -> list[RainbowWitness]:
    """All rainbow paths with exactly ell edges, one witness per copy."""
    _check_args(ell, 1, threads)
    if ell > min(g.num_colors, g.n - 1):
        return []
    return _paused(_paths, g, ell)


def _paths(g: EdgeColoredGraph, ell: int) -> list:
    adj = g.adjacency
    found = []

    def leaf(path, cols, cmask):
        # the last edge, only to an end above the start: each copy once
        s = path[0]
        for u, c in adj[path[-1]]:
            if u > s and not cmask >> c & 1 and u not in path:
                found.append(tuple.__new__(RainbowWitness, (
                    "path", (*path, u), (*cols, c))))

    # starts and adjacency rows ascend, so the witnesses come out sorted
    for s in range(g.n):
        _walk(adj, [s], [], 0, ell - 1, leaf)
    return found


def _is_bipartite(adj) -> bool:
    # breadth-first 2-coloring, given up at the first clash
    side = [-1] * len(adj)
    for s in range(len(adj)):
        if side[s] < 0:
            side[s] = 0
            queue = [s]
            for x in queue:
                for y, _ in adj[x]:
                    if side[y] < 0:
                        side[y] = 1 - side[x]
                        queue.append(y)
                    elif side[y] == side[x]:
                        return False
    return True


def _closers(adj, r: int, skip: int = -1) -> dict[int, list]:
    # the 2-edge paths z-w-r into r, w not `skip`, whose colors c of
    # (z, w) and d of (w, r) differ (so z is not r): closers[z] lists
    # (w, c, d, mask), mask the two color bits. A walk whose last vertex
    # is z closes through z's row; the table costs the sum of deg(w) over
    # w in N(r)
    closers: dict[int, list] = {}
    for w, d in adj[r]:
        if w != skip:
            for z, c in adj[w]:
                if c != d:
                    closers.setdefault(z, []).append((w, c, d, 1 << c | 1 << d))
    return closers


def _root_order(adj) -> list[int] | None:
    # the roots by degree descending, ties by id, where the id order's
    # closing tables could cost over twice as much; None keeps id order.
    # A root's table costs deg(w) for each neighbor w above it: summed
    # over edges (u < v), deg(v) in id order, the smaller in degree order
    deg = list(map(len, adj))
    ends = [(deg[u], deg[v]) for u, row in enumerate(adj) for v, _ in row
            if u < v]
    if sum(d for _, d in ends) <= 2 * sum(map(min, ends)):
        return None
    return sorted(range(len(adj)), key=lambda v: (-deg[v], v))


def _id_oriented(w: RainbowWitness) -> RainbowWitness:
    # the cycle read from its minimal vertex toward its smaller neighbor;
    # backwards from vs[i], edge (vs[k], vs[k-1]) has color cs[k-1]
    vs, cs = w.vertices, w.colors
    i = vs.index(min(vs))
    if vs[i - 1] > vs[(i + 1) % len(vs)]:
        vs, cs = vs[i:] + vs[:i], cs[i:] + cs[:i]
    else:
        vs, cs = vs[i::-1] + vs[:i:-1], cs[i - 1::-1] + cs[:i - 1:-1]
    return tuple.__new__(RainbowWitness, ("cycle", vs, cs))


def _cycles(g: EdgeColoredGraph, ell: int) -> list:
    # roots r in decreasing rank, each the least-ranked vertex of its
    # cycles, so `above` holds only the neighbors ranked above r. Going
    # through above[r], highest rank first, each first neighbor p walks
    # from [r, p] on `above` while `closers` holds the 2-edge paths z-w-r
    # through the neighbors w taken before p: each cycle is walked once,
    # in the direction that ends on the higher-ranked of r's two cycle
    # neighbors. The walk takes ell-4 edges; its leaf takes one more to x
    # and closes through closers[x] (at ell = 3, p's row closes at once)
    adj = g.adjacency
    # a bipartite graph has no odd cycle: no walk of odd ell can close;
    # a rainbow C_ell needs ell distinct colors and ell vertices
    if ell > min(g.num_colors, g.n) or ell % 2 and _is_bipartite(adj):
        return []
    order = _root_order(adj)
    above: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    found = []

    def leaf(path, cols, cmask):
        vs, cs = tuple(path), tuple(cols)
        for x, e in above[path[-1]]:
            row = closers.get(x)
            if row is None or cmask >> e & 1 or x in path:
                continue
            used = cmask | 1 << e
            for w, c, d, mask in row:
                if not used & mask and w not in path:
                    found.append(tuple.__new__(RainbowWitness, (
                        "cycle", vs + (x, w), cs + (e, c, d))))

    for r in reversed(range(g.n)) if order is None else reversed(order):
        closers: dict[int, list] = {}
        last = len(above[r]) - 1
        for i, (p, b) in enumerate(above[r]):
            if closers:
                if ell > 3:
                    _walk(above, [r, p], [b], 1 << b, ell - 4, leaf)
                else:
                    for w, c, d, mask in closers.get(p, ()):
                        if not mask >> b & 1:
                            found.append(tuple.__new__(RainbowWitness, (
                                "cycle", (r, p, w), (b, c, d))))
            if i < last:
                for z, c in above[p]:
                    if c != b:
                        closers.setdefault(z, []).append(
                            (p, c, b, 1 << c | 1 << b))
        for u, c in adj[r]:
            above[u].append((r, c))
    if order is not None:
        return sorted(map(_id_oriented, found))
    # roots, `above` rows, first neighbors and closing rows all run from
    # the highest id down, so in id order the witnesses come out strictly
    # descending
    found.reverse()
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
        g._cache[key] = _paused(_cycles, g, ell)
    return list(g._cache[key])


def _stop(*_) -> bool:
    return True


def has_rainbow_path(g: EdgeColoredGraph, ell: int) -> bool:
    """True iff some rainbow path with exactly ell edges exists.

    At ell >= 5 the test runs on each connected component with more than
    ell vertices and at least ell colors, renumbered in breadth-first
    order. Each vertex's table holds its rainbow halves of h = ell//2
    edges as vertex masks (the vertex left out) grouped by color mask,
    each group with the AND of its masks. At even ell a path's middle
    vertex m joins two halves of m's table with disjoint color and vertex
    masks. At odd ell a path's middle edge (x, y, c) joins a half of x's
    table to one of y's: disjoint as before, neither using c, x's
    avoiding y and y's avoiding x. Groups whose ANDs meet are never
    compared half by half, and a group meets only the one group in the
    colors left where those number h. A table serves every middle edge
    at its vertex and is dropped after the last; the tables kept between
    middles weigh at most 48 * `HALF_CEILING` bytes, a half or a group's
    AND about size // 8 + 40 of them on a component of `size` vertices,
    and past that a table is walked again for each middle. Below 5, and
    where Delta * (Delta - 1)^(h - 1) halves pass those bytes (one table
    could be huge), a walk runs from every start and stops at the first
    full-length path. At ell 3 and 4 the tables were 1.6-2x slower on
    path-free graphs; at 5 they are about 5x faster there (`d_star(5)`:
    0.3 ms against 1.6 ms), at 7 about 40x (`d_star(7)`: 9 ms against
    0.4 s, of which building the tables takes about 6), and a few times
    slower where a walk finds a path at once (`d_star(6)` at 5: 0.07 ms
    against 0.02 ms).
    """
    _check_args(ell, 1)
    key = ("haspath", ell)
    if key not in g._cache:
        g._cache[key] = _has_path(g, ell)
    return g._cache[key]


def _halves(adj, v: int, h: int) -> tuple[dict[int, tuple], int, int]:
    # v's table (groups, colors, size): the vertex masks (v left out) of
    # the h-edge rainbow paths from v, grouped by color mask, each group
    # as (common, masks) with common the AND of its masks; colors the
    # union of the color masks; size the halves plus one per group, each
    # common mask weighed like a half. The walk stops one edge short and
    # its leaf takes the last edge, so one call stores a whole fan of
    # halves
    groups: dict = {}

    def store(path, cols, cmask):
        base = 0
        for w in path[1:]:
            base |= 1 << w
        for u, c in adj[path[-1]]:
            if not cmask >> c & 1 and u not in path:
                groups.setdefault(cmask | 1 << c, []).append(base | 1 << u)

    _walk(adj, [v], [], 0, h - 1, store)
    colors = 0
    size = len(groups)
    for cm, vms in groups.items():
        colors |= cm
        size += len(vms)
        groups[cm] = (reduce(and_, vms), vms)
    return groups, colors, size


def _meets(left: tuple, right: tuple, cmask: int, vmask: int,
           h: int) -> bool:
    # some half of `left` and some half of `right` share no color and no
    # vertex, and neither uses a color of cmask or a vertex of vmask; a
    # table met with itself pairs each two color masks once. A group pair
    # whose common masks meet is skipped (every pair in it shares a
    # vertex), as is a left half that, with vmask, meets the right group's
    # common mask. Every half has h colors: where the right table's colors
    # outside a left group's and cmask number h, only the group of those
    # colors can fit, and it is looked up; with more, the groups are
    # scanned
    groups, colors, _ = right
    for cm, (common, vms) in left[0].items():
        if cm & cmask:
            continue
        busy = cm | cmask
        rest = colors & ~busy
        free = rest.bit_count()
        if free == h:
            group = groups.get(rest)
            if group is None:
                continue
            scan = ((rest, group),)
        elif free > h:
            scan = groups.items()
        else:
            continue
        for other, (wcommon, group) in scan:
            if (other & busy or left is right and other <= cm
                    or common & wcommon):
                continue
            for vm in vms:
                if not vm & vmask:
                    vm |= vmask
                    if not vm & wcommon:
                        for wm in group:
                            if not vm & wm:
                                return True
    return False


def _has_path(g: EdgeColoredGraph, ell: int) -> bool:
    # a rainbow P_ell needs ell distinct colors and ell + 1 vertices
    if ell > min(g.num_colors, g.n - 1):
        return False
    adj = g.adjacency
    if ell < 5:
        return any(_walk(adj, [s], [], 0, ell, _stop) for s in range(g.n))
    return any(_joins(sub, ell) for sub in _components(adj, ell))


def _components(adj, ell: int):
    # the connected components with more than ell vertices and at least
    # ell colors, each as an adjacency of its own, its vertices renumbered
    # 0..size-1 in breadth-first order; a component spanning the graph
    # keeps its ids
    n = len(adj)
    at = [-1] * n
    for s in range(n):
        if at[s] >= 0:
            continue
        at[s] = 0
        order = [s]
        for x in order:
            for y, _ in adj[x]:
                if at[y] < 0:
                    at[y] = len(order)
                    order.append(y)
        if len(order) == n:
            yield adj
        elif (len(order) > ell
              and len({c for v in order for _, c in adj[v]}) >= ell):
            yield [[(at[y], c) for y, c in adj[v]] for v in order]


def _joins(adj, ell: int) -> bool:
    # the path test on one component: the half tables, or the walk from
    # every start where one table could take more than 48 * HALF_CEILING
    # bytes, a half's vertex mask about n/8 + 40 of them
    n = len(adj)
    h = ell // 2
    top = max(map(len, adj))
    weight = n // 8 + 40
    if top * (top - 1) ** (h - 1) * weight > 48 * HALF_CEILING:
        return any(_walk(adj, [s], [], 0, ell, _stop) for s in range(n))
    # the middles (x, y, color mask): each vertex (m, m, 0) at even ell,
    # each edge (x, y, 1 << c) with x < y at odd ell
    if ell % 2:
        middles = [(x, y, 1 << c) for x in range(n) for y, c in adj[x]
                   if x < y]
    else:
        middles = [(m, m, 0) for m in range(n)]
    last = [0] * n
    for i, (x, y, _) in enumerate(middles):
        last[x] = last[y] = i
    # tables kept for a later middle, `held` halves and common masks in
    # all, weighed against the same bytes as one table
    kept: dict[int, tuple] = {}
    held = 0
    cap = 48 * HALF_CEILING // weight
    for i, (x, y, cmask) in enumerate(middles):
        pair = []
        for v in (x, y) if x != y else (x,):
            table = kept.get(v)
            if table is None:
                table = _halves(adj, v, h)
                if last[v] > i and held + table[2] <= cap:
                    kept[v] = table
                    held += table[2]
            elif last[v] == i:
                del kept[v]
                held -= table[2]
            pair.append(table)
        # no half holds its own start, so x's avoids y and y's avoids x
        if _meets(pair[0], pair[-1], cmask, 1 << x | 1 << y, h):
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


def _between(adj, x: int, y: int, ell: int, cmask: int) -> list:
    # the rainbow paths of ell >= 2 edges from x to y whose colors avoid
    # the bits of cmask, as witnesses from x to y: y's closers, the
    # 2-paths through x left out, and a walk of ell - 2 edges from
    # [y, x], y kept off it, whose leaf closes through its last vertex's
    # row. The walk and the rows go up `adjacency`, so the witnesses come
    # out ascending
    closers = _closers(adj, y, x)
    found = []

    def leaf(path, cols, cmask):
        row = closers.get(path[-1])
        if row is not None:
            for w, c, d, mask in row:
                if not cmask & mask and w not in path:
                    found.append(tuple.__new__(RainbowWitness, (
                        "path", (*path[1:], w, y), (*cols, c, d))))

    if closers:
        _walk(adj, [y, x], [], cmask, ell - 2, leaf)
    return found


def rainbow_paths_between(g: EdgeColoredGraph, x: int, y: int, ell: int,
                          forbidden=frozenset()) -> list[RainbowWitness]:
    """Rainbow paths between x and y with exactly ell edges avoiding all
    colors in `forbidden`, each from the smaller endpoint to the larger."""
    _check_args(ell, 1)
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError("endpoint out of range")
    if x == y:
        raise ValueError("endpoints must differ")
    x, y = min(x, y), max(x, y)
    # forbidden colors start used
    banned = frozenset(forbidden)
    cmask = sum(1 << c for c in range(g.num_colors) if c in banned)
    if ell > min(g.num_colors - cmask.bit_count(), g.n - 1):
        return []
    adj = g.adjacency
    if ell == 1:
        return [RainbowWitness("path", (x, y), (c,)) for z, c in adj[x]
                if z == y and not cmask >> c & 1]
    return _between(adj, x, y, ell, cmask)


def vertices_on_rainbow_cycles(g: EdgeColoredGraph, ell: int) -> set[int]:
    """V': the set of vertices lying on at least one rainbow C_ell, the
    ends of the edges whose count in `count_per_edge` is positive."""
    return {v for e, f in count_per_edge(g, ell).items() if f for v in e}
