"""Core representation of edge-colored graphs.

An :class:`EdgeColoredGraph` is an undirected simple graph on vertices
``0..n-1`` whose edges carry integer color ids. Colors are normalized to a
gapless range ``0..k-1`` at build time; all counting quantities in this
package are invariant under color renaming, so normalization loses nothing.

The module also provides the exact canonical form used for isomorph
rejection: two graphs receive the same key iff some vertex bijection
combined with some color bijection maps one onto the other. The
canonicalizer walks vertex orderings within a refined partition on an
explicit stack, following only the least rows at each position.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # Not for direct use; go through build().
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
        """Per-vertex list of (neighbor, color), sorted, built lazily."""
        if self._adj is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
            for u, v, c in self.edges:
                adj[u].append((v, c))
                adj[v].append((u, c))
            for row in adj:
                row.sort()
            self._adj = adj
        return self._adj

    @property
    def neighbor_colors(self) -> list[dict[int, int]]:
        """Per-vertex dict neighbor -> color, built lazily."""
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


@dataclass(frozen=True)
class ColorPartition:
    """A proper edge coloring as a partition of the edge set into matchings.

    ``classes[c]`` is the frozenset of (u, v) pairs carrying color c. The
    classes are disjoint, cover every edge, and each one is a matching;
    the last point is exactly properness.
    """

    classes: tuple[frozenset, ...]


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
    cleaned.sort()
    remap: dict[int, int] = {}
    normalized = []
    for u, v, c in cleaned:
        if c not in remap:
            remap[c] = len(remap)
        normalized.append((u, v, remap[c]))
    return EdgeColoredGraph(n, tuple(normalized), len(remap))


def degree(g: EdgeColoredGraph, v: int) -> int:
    """Number of edges incident to v. Raises ValueError if v out of range."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range 0..{g.n - 1}")
    return len(g.adjacency[v])


def is_properly_colored(g: EdgeColoredGraph) -> bool:
    """True iff no two edges sharing a vertex carry the same color."""
    cached = g._cache.get("proper")
    if cached is None:
        cached = True
        for row in g.adjacency:
            colors = [c for _, c in row]
            if len(set(colors)) != len(colors):
                cached = False
                break
        g._cache["proper"] = cached
    return cached


def color_partition(g: EdgeColoredGraph) -> ColorPartition:
    """Partition the edges into their color classes (all matchings).

    Raises ValueError if g is not properly colored.
    """
    if not is_properly_colored(g):
        raise ValueError("graph is not properly colored")
    classes: list[set] = [set() for _ in range(g.num_colors)]
    for u, v, c in g.edges:
        classes[c].add((u, v))
    return ColorPartition(tuple(frozenset(s) for s in classes))


# ---------------------------------------------------------------------------
# Canonical form


def _refined_ranks(g: EdgeColoredGraph) -> list[int]:
    """Iterated refinement of vertex classes, invariant under vertex and
    color permutations. Color identity enters only through class sizes."""
    n = g.n
    adj = g.adjacency
    class_size = [0] * g.num_colors
    for _, _, c in g.edges:
        class_size[c] += 1
    rank = [0] * n
    distinct = 1
    while True:
        sig = [(rank[v],
                tuple(sorted((rank[u], class_size[c]) for u, c in adj[v])))
               for v in range(n)]
        order = {s: i for i, s in enumerate(sorted(set(sig)))}
        rank = [order[s] for s in sig]
        if len(order) == distinct:
            return rank
        distinct = len(order)


def _canonical_code(g: EdgeColoredGraph) -> tuple[tuple[int, ...], ...]:
    """Minimal edge-matrix code over all allowed vertex orderings.

    Row i encodes adjacency of the i-th placed vertex to the previously
    placed ones: cell j is 0 for a non-edge, otherwise 1 + color slot,
    slots assigned in order of first appearance along the code. Allowed
    orderings respect the refined vertex partition (cells in rank order),
    which is itself isomorphism-invariant, so the minimum is a complete
    invariant. A depth-first walk over a stack of prefixes finds it,
    pushing only the next vertices with the least row (a smaller sibling
    row beats every completion of a larger one) and, of vertices with
    identical labeled adjacency (automorphic swaps), only the smallest.
    """
    n = g.n
    if n == 0:
        return ()
    rank = _refined_ranks(g)
    nbr = g.neighbor_colors
    # exact-adjacency signature for the interchangeable-vertex prune
    vsig = [tuple(sorted(nbr[v].items())) for v in range(n)]
    cells: list[list[int]] = [[] for _ in range(max(rank) + 1)]
    for v in range(n):
        cells[rank[v]].append(v)
    # the cell every position draws from
    cell_at = [cells[r] for r in sorted(rank)]

    best: tuple[tuple[int, ...], ...] | None = None
    stack: list = [((), (), {})]
    while stack:
        order, rows, slot = stack.pop()
        i = len(order)
        if best is not None and rows > best[:i]:
            continue
        if i == n:
            best = rows
            continue
        placed = set(order)
        seen_sigs = set()
        children = []
        for v in cell_at[i]:
            if v in placed or vsig[v] in seen_sigs:
                continue
            seen_sigs.add(vsig[v])
            vn = nbr[v]
            vslot = slot
            for u in order:
                c = vn.get(u)
                if c is not None and c not in vslot:
                    vslot = {**vslot, c: len(vslot)}
            row = tuple([1 + vslot[vn[u]] if u in vn else 0 for u in order])
            children.append((row, v, vslot))
        least = min(children)[0]  # ties break on v, never on the dicts
        for row, v, vslot in reversed(children):
            if row == least:
                stack.append((order + (v,), rows + (row,), vslot))
    assert best is not None
    return best


def canonical_key(g: EdgeColoredGraph):
    """Opaque isomorphism-class key (vertex bijection + color bijection).

    Equal keys mean a vertex bijection plus a color bijection maps one
    graph onto the other. The key is (n, k, flattened canonical code) and
    is cached on the graph; no graph is built for it, so rejecting a
    duplicate costs only the canonical walk. Requires a properly colored
    input.
    """
    key = g._cache.get("key")
    if key is None:
        if not is_properly_colored(g):
            raise ValueError("canonical form requires a properly colored graph")
        code = _canonical_code(g)
        key = (g.n, g.num_colors, tuple([x for row in code for x in row]))
        g._cache["key"] = key
    return key


def canonical_form(g: EdgeColoredGraph):
    """Return (key, canonically relabeled graph).

    The key is canonical_key(g). The relabeled graph is the canonical
    representative itself, identical bytes for every member of an
    isomorphism class; it is built from the code held in the key, only
    when asked for, and then cached.
    """
    cached = g._cache.get("canon")
    if cached is None:
        key = canonical_key(g)
        # cell j of row i sits at flat index i*(i-1)/2 + j
        pairs = [(j, i) for i in range(g.n) for j in range(i)]
        edges = [(j, i, cell - 1) for (j, i), cell in zip(pairs, key[2])
                 if cell]
        cached = (key, build(g.n, edges))
        g._cache["canon"] = cached
    return cached
