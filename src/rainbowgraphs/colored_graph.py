"""Core representation of edge-colored graphs.

An :class:`EdgeColoredGraph` is an undirected simple graph on vertices
``0..n-1`` whose edges carry integer color ids. Colors are normalized to a
gapless range ``0..k-1`` at build time; all counting quantities in this
package are invariant under color renaming, so normalization loses nothing.

The module also provides the exact canonical form used for isomorph
rejection: two graphs receive the same key iff some vertex bijection
combined with some color bijection maps one onto the other. The
canonicalizer builds one flat code, walking vertex orderings within a
refined partition on an explicit stack and following only the least rows
at each position; it starts with the isolated vertices placed in order.
A graph caches two records of the walk: the key holding that code, from
which the canonical graph is built, and the automorphism generators its
tied leaves give, in the canonical graph's labels. A search child may
carry automorphisms inherited from its parent (_cache["inherited"]);
the walk then tries one of each orbit of tied siblings under those of
them that fix the prefix. Public calls carry none and walk unpruned.
"""

from __future__ import annotations

from itertools import chain

#: Vertex ceiling of every graph, so a huge declared n fails fast instead of
#: allocating per-vertex tables; the largest construction is hypercube(16).
MAX_VERTICES = 1 << 16


class EdgeColoredGraph:
    """Immutable edge-colored graph.

    Attributes
    ----------
    n : int
        Vertex count; vertices are 0..n-1 and isolated vertices are allowed.
    edges : tuple[tuple[int, int, int], ...]
        Normalized edge list: each entry is (u, v, c) with u < v, sorted by
        (u, v), colors renumbered to 0..k-1 in order of first appearance.
    num_colors : int
        Number of distinct colors (k).
    """

    __slots__ = ("n", "edges", "num_colors", "_adj", "_nbr", "_cache")

    def __init__(self, n: int, edges: tuple[tuple[int, int, int], ...],
                 num_colors: int):
        # Not for direct use; go through build(), or _normalized() for
        # edges valid by construction.
        self.n = n
        self.edges = edges
        self.num_colors = num_colors
        self._adj: list[list[tuple[int, int]]] | None = None
        self._nbr: list[dict[int, int]] | None = None
        self._cache: dict = {}

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-vertex (neighbor, color) lists, built lazily from `edges`:
        sorted by (u, v), they give each row its smaller neighbors first,
        then its larger ones, so each row ascends. The only table the
        rainbow walks read."""
        if self._adj is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
            for u, v, c in self.edges:
                adj[u].append((v, c))
                adj[v].append((u, c))
            self._adj = adj
        return self._adj

    @property
    def neighbor_colors(self) -> list[dict[int, int]]:
        """Per-vertex dict neighbor -> color, built lazily from `edges`
        as `adjacency` is (neither table is built from the other), so
        each row's keys ascend. Degree, properness, canonical form and
        edge lookups read it."""
        if self._nbr is None:
            nbr: list[dict[int, int]] = [{} for _ in range(self.n)]
            for u, v, c in self.edges:
                nbr[u][v] = c
                nbr[v][u] = c
            self._nbr = nbr
        return self._nbr

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeColoredGraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return (f"EdgeColoredGraph(n={self.n}, m={self.m}, "
                f"colors={self.num_colors})")


def build(n: int, edge_list) -> EdgeColoredGraph:
    """Validate and normalize an edge list into an EdgeColoredGraph.

    Colors are renumbered to 0..k-1 preserving equality classes, in order
    of first appearance along the sorted edge list. Raises ValueError on
    n outside 0..MAX_VERTICES, loops, duplicate pairs (same unordered pair,
    any colors), vertices out of range, or malformed entries.
    """
    if not (0 <= n <= MAX_VERTICES):
        raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {n}")
    cleaned = []
    seen_pairs = set()
    for entry in edge_list:
        try:
            u, v, c = entry
        except (TypeError, ValueError):
            raise ValueError(f"edge entry must be a (u, v, c) triple: {entry!r}")
        if not (isinstance(u, int) and isinstance(v, int) and isinstance(c, int)):
            raise ValueError(f"edge entry must contain integers: {entry!r}")
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range 0..{n - 1} in edge {entry!r}")
        if u > v:
            u, v = v, u
        if (u, v) in seen_pairs:
            raise ValueError(f"duplicate edge pair ({u}, {v})")
        seen_pairs.add((u, v))
        cleaned.append((u, v, c))
    return _normalized(n, cleaned)


def _normalized(n: int, edges) -> EdgeColoredGraph:
    """build()'s normalization alone, for edges valid by construction:
    integer triples (u, v, c) with 0 <= u < v < n, no pair twice, and n
    in 0..MAX_VERTICES. Sorts them by (u, v) and renumbers the colors by
    first appearance, renaming none when they already read 0, 1, 2, ..."""
    edges = sorted(edges)
    remap: dict[int, int] = {}
    for _, _, c in edges:
        if c not in remap:
            remap[c] = len(remap)
    if any(c != i for c, i in remap.items()):
        edges = [(u, v, remap[c]) for u, v, c in edges]
    return EdgeColoredGraph(n, tuple(edges), len(remap))


def degree(g: EdgeColoredGraph, v: int) -> int:
    """Number of edges incident to v. Raises ValueError if v out of range."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range 0..{g.n - 1}")
    return len(g.neighbor_colors[v])


def is_properly_colored(g: EdgeColoredGraph) -> bool:
    """True iff no two edges sharing a vertex carry the same color."""
    cached = g._cache.get("proper")
    if cached is None:
        cached = all(len(set(row.values())) == len(row)
                     for row in g.neighbor_colors)
        g._cache["proper"] = cached
    return cached


# ---------------------------------------------------------------------------
# Canonical form


def _refined_ranks(g: EdgeColoredGraph) -> list[int]:
    """Iterated refinement of vertex classes, invariant under vertex and
    color permutations. Color identity enters only through class sizes.
    A neighbor of rank r across a class of size s counts as r * (m+1) + s,
    which sorts as the pair (r, s) does."""
    n = g.n
    nbr = g.neighbor_colors
    span = g.m + 1
    class_size = [0] * g.num_colors
    for _, _, c in g.edges:
        class_size[c] += 1
    rank = [0] * n
    distinct = 1
    while True:
        sig = [(rank[v], tuple(sorted([rank[u] * span + class_size[c]
                                       for u, c in nbr[v].items()])))
               for v in range(n)]
        order = {s: i for i, s in enumerate(sorted(set(sig)))}
        rank = [order[s] for s in sig]
        # a discrete partition refines to itself
        if len(order) == distinct or len(order) == n:
            return rank
        distinct = len(order)


def _find(orbit: list[int], x: int) -> int:
    # union-find root, halving the path on the way
    while orbit[x] != x:
        orbit[x] = x = orbit[orbit[x]]
    return x


def _join(orbit: list[int], pairs) -> int:
    # union each pair's orbits; the number of unions made
    joins = 0
    for x, y in pairs:
        x, y = _find(orbit, x), _find(orbit, y)
        if x != y:
            orbit[x] = y
            joins += 1
    return joins


def _orbit_mates(tied: list[int], maps) -> set[int]:
    """The vertices of `tied` after the first of their orbit under the
    group `maps` generate, which sends `tied` onto itself."""
    seen = set()
    mates = set()
    for v in tied:
        if v not in seen:
            seen.add(v)
            orbit = [v]
            for x in orbit:  # grows to the whole orbit
                for a in maps:
                    if a[x] not in seen:
                        seen.add(a[x])
                        mates.add(a[x])
                        orbit.append(a[x])
    return mates


def _canonical_code(g: EdgeColoredGraph):
    """Minimal flat edge-matrix code over all allowed vertex orderings,
    and automorphism generators of g in the code's labels.

    Row i, the i cells from index i*(i-1)/2 on, encodes the adjacency of
    the i-th placed vertex to the earlier ones: 0 for a non-edge, else
    1 + color slot, slots assigned in order of first appearance. Rows at one
    position have equal length, so flat codes compare as row sequences.
    Allowed orderings respect the refined vertex partition (cells in rank
    order), which is isomorphism-invariant, so the minimum is a complete
    invariant. A depth-first walk over a stack of prefixes finds it,
    pushing only the next vertices with the least row (a smaller sibling
    row beats every completion of a larger one). Every stack entry shares
    the rows of the path being walked, kept once in `rows`, so a prefix
    popped while a best code is known equals it up to its length, and
    only its least row is compared with the best's row at that position:
    a greater row drops the prefix, a smaller one clears the best, and the
    walk then runs straight down to a leaf that becomes the new best; a
    leaf reached while the best is kept only ties it. Isolated vertices,
    the only ones that can share a neighbor -> color map in a proper
    coloring, have the least refinement signature, so they fill the first
    cell with all-zero rows; the walk starts with them placed in order.
    The colors at one vertex are distinct, so a row numbers its unseen
    colors with a counter, and only a pushed prefix gets its slot dict.
    When every cell past the isolated vertices' holds one vertex, only
    one ordering is allowed: the code is then written row by row in one
    pass, slots numbered by first appearance along it, and there are no
    generators, since every automorphism fixes each vertex with an edge.

    Two leaves with one code give an automorphism, best_order[j] ->
    order[j], with the color bijection its edges induce. A tie keeps it
    only if it joins two vertex orbits of a union-find that starts with
    the isolated vertices joined (they are never moved, and all of them
    are interchangeable), so at most n - 1 are kept; once the orbits are
    as coarse as the cells, no tie can join two. The kept maps are
    conjugated into the code's labels, where vertex best_order[j] is j.

    g._cache["inherited"], set by the search on a child, holds vertex
    maps that are automorphisms of g fixing its isolated vertices: the
    parent's generators that fix the new edge and its color (McKay 1998).
    They seed the union-find, each kept if it joins two orbits. Each
    stack entry carries those of them that fix its prefix pointwise (a
    child's are its parent's that fix the vertex it adds), and of the
    tied siblings only the first of each orbit they generate is pushed.
    Such a map h fixes the prefix and preserves ranks and rows, so it
    sends a skipped sibling's subtree onto a pushed one's with every
    code kept: the minimum is unchanged, and every best leaf is the
    image under the inherited group of one the walk reaches, so the
    generators found, with the inherited ones, still have the vertex
    orbits of the whole group. With none inherited nothing is pruned.
    Returns (code, generators).
    """
    n = g.n
    if n == 0:
        return (), ()
    rank = _refined_ranks(g)
    nbr = g.neighbor_colors
    cells: list[list[int]] = [[] for _ in range(max(rank) + 1)]
    for v in range(n):
        cells[rank[v]].append(v)
    # the cell every position draws from
    cell_at = [cells[r] for r in sorted(rank)]
    iso = tuple(v for v in range(n) if not nbr[v])

    orbit = list(range(n))
    for v in iso[1:]:
        orbit[v] = iso[0]
    orbits = n - max(len(iso) - 1, 0)
    if orbits == len(cells):
        # one vertex per cell past the isolated ones: one allowed order
        order = iso + tuple(c[0] for c in cell_at[len(iso):])
        slot: dict[int, int] = {}
        code = [0 if c is None else 1 + slot.setdefault(c, len(slot))
                for i, v in enumerate(order)
                for c in map(nbr[v].get, order[:i])]
        return tuple(code), ()
    inherited = g._cache.get("inherited", ())
    autos: list = []
    for a in inherited:
        joins = _join(orbit, enumerate(a))
        if joins:
            orbits -= joins
            autos.append(a)

    best: list | None = None
    best_order: tuple[int, ...] = iso
    rows: list = [(0,) * i for i in range(len(iso))]
    # an entry's last part: the inherited maps that fix its prefix
    stack: list = [(iso, {}, inherited)]
    while stack:
        order, slot, stab = stack.pop()
        i = len(order)
        del rows[i:]
        if i == n:
            if best is None:
                best, best_order = rows[:], order
            elif orbits > len(cells):
                joins = _join(orbit, zip(best_order, order))
                if joins:
                    orbits -= joins
                    autos.append(dict(zip(best_order, order)))
            continue
        placed = set(order)
        fresh = len(slot)
        children = []
        for v in cell_at[i]:
            if v in placed:
                continue
            vn = nbr[v]
            nxt = fresh
            row = []
            for u in order:
                c = vn.get(u)
                if c is None:
                    row.append(0)
                else:
                    s = slot.get(c)
                    if s is None:
                        s = nxt
                        nxt += 1
                    row.append(1 + s)
            children.append((tuple(row), v))
        least = min(children)[0]
        if best is not None:
            if least > best[i]:
                continue
            if least < best[i]:
                best = None
        rows.append(least)
        grows = fresh + 1 in least  # the first unseen color's entry
        skip = stab and _orbit_mates(
            [v for row, v in children if row == least], stab)
        for row, v in reversed(children):
            if row == least and v not in skip:
                vslot = slot
                if grows:
                    vslot = dict(slot)
                    for c in [nbr[v][u] for u in order if u in nbr[v]]:
                        vslot.setdefault(c, len(vslot))
                stack.append((order + (v,), vslot,
                              stab and [a for a in stab if a[v] == v]))
    assert best is not None
    at = [0] * n
    for pos, v in enumerate(best_order):
        at[v] = pos
    gens = tuple(tuple([at[a[v]] for v in best_order]) for a in autos)
    return tuple(chain.from_iterable(best)), gens


def _run_walk(g: EdgeColoredGraph) -> None:
    if not is_properly_colored(g):
        raise ValueError("canonical form requires a properly colored graph")
    code, gens = _canonical_code(g)
    g._cache["key"] = (g.n, g.num_colors, code)
    g._cache["gens"] = gens


def canonical_key(g: EdgeColoredGraph):
    """Opaque isomorphism-class key (vertex bijection + color bijection).

    Equal keys mean a vertex bijection plus a color bijection maps one
    graph onto the other. The key is (n, k, flat canonical code), cached
    on g beside the automorphism generators the same walk finds (see
    canonical_generators); no graph is built for it, so rejecting a
    duplicate costs only the canonical walk. Requires a properly colored
    input.
    """
    if "key" not in g._cache:
        _run_walk(g)
    return g._cache["key"]


def canonical_generators(g: EdgeColoredGraph) -> tuple[tuple[int, ...], ...]:
    """Automorphisms of graph_of_key(canonical_key(g)), as vertex maps in
    its labels (each with the color bijection its edges induce), cached
    beside the key by the walk that found it. With the permutations of
    the isolated vertices, which none of them moves, they generate a
    group with the same vertex orbits as the full automorphism group.
    A graph that carries only a key, as graph_of_key's do, is walked."""
    if "gens" not in g._cache:
        _run_walk(g)
    return g._cache["gens"]


def graph_of_key(key) -> EdgeColoredGraph:
    """The canonical representative of the class `key` names, built from
    the code the key holds: identical bytes for every member of the
    class. It carries the key in its cache, so canonical_key never walks
    it."""
    n, _, code = key
    # cell j of row i sits at flat index i*(i-1)/2 + j
    pairs = [(j, i) for i in range(n) for j in range(i)]
    g = _normalized(n, [(j, i, cell - 1)
                        for (j, i), cell in zip(pairs, code) if cell])
    g._cache["key"] = key
    return g


def canonical_form(g: EdgeColoredGraph):
    """Return (key, canonically relabeled graph).

    The key is canonical_key(g) and the graph is graph_of_key(key), the
    canonical representative, decoded from the key on every call.
    """
    key = canonical_key(g)
    return key, graph_of_key(key)
