"""Output checks that do not call the code they check.

Each function works on plain edge lists ``(u, v, c)`` or on the vertex and
color sequences of a witness, never on the library's enumeration or
canonical-form code. They are exhaustive and slow on purpose: they run
outside the timed spans, on inputs small enough for brute force.
"""

from __future__ import annotations

from itertools import permutations


def neighbor_colors(n: int, edges) -> list[dict[int, int]]:
    """Per-vertex map neighbor -> color."""
    nbr: list[dict[int, int]] = [{} for _ in range(n)]
    for u, v, c in edges:
        nbr[u][v] = c
        nbr[v][u] = c
    return nbr


def is_proper(n: int, edges) -> bool:
    """No two edges at a vertex share a color, and no pair is repeated."""
    seen: set = set()
    pairs: set = set()
    for u, v, c in edges:
        pair = (min(u, v), max(u, v))
        if u == v or pair in pairs or (u, c) in seen or (v, c) in seen:
            return False
        pairs.add(pair)
        seen.update(((u, c), (v, c)))
    return all(0 <= u < n and 0 <= v < n for u, v, _ in edges)


def is_rainbow_walk(nbr, vertices, colors, closed: bool) -> bool:
    """The sequence is a simple path (or cycle, when closed) of the graph
    whose stated edge colors are right and pairwise distinct."""
    hops = len(vertices) if closed else len(vertices) - 1
    if len(colors) != hops or len(set(vertices)) != len(vertices):
        return False
    if len(set(colors)) != len(colors):
        return False
    for i in range(hops):
        a, b = vertices[i], vertices[(i + 1) % len(vertices)]
        if nbr[a].get(b) != colors[i]:
            return False
    return True


def distinct_copies(witnesses, closed: bool) -> bool:
    """No two witnesses describe the same subgraph copy."""
    seen = set()
    for w in witnesses:
        vs = w.vertices
        hops = len(vs) if closed else len(vs) - 1
        copy = frozenset(frozenset((vs[i], vs[(i + 1) % len(vs)]))
                         for i in range(hops))
        if copy in seen:
            return False
        seen.add(copy)
    return True


def rainbow_paths_from(n: int, edges, x: int, ell: int,
                       forbidden=()) -> set:
    """Every rainbow path with ell edges starting at x and avoiding the
    `forbidden` colors, as a set of (vertices, colors), found by walking
    all ell-step walks from x and filtering them."""
    nbr = neighbor_colors(n, edges)
    walks = [((x,), ())]
    for _ in range(ell):
        walks = [(vs + (u,), cs + (c,))
                 for vs, cs in walks for u, c in nbr[vs[-1]].items()]
    return {(vs, cs) for vs, cs in walks
            if len(set(vs)) == len(vs) and len(set(cs)) == ell
            and not set(cs) & set(forbidden)}


def rainbow_paths_between(n: int, edges, x: int, y: int, ell: int,
                          forbidden=()) -> set:
    """The paths of rainbow_paths_from(x) that end at y."""
    return {(vs, cs) for vs, cs in rainbow_paths_from(n, edges, x, ell, forbidden)
            if vs[-1] == y}


def isomorphic(n: int, edges_a, edges_b) -> bool:
    """Some vertex bijection plus some color bijection maps one colored
    graph onto the other; tries every vertex permutation (n <= 7)."""
    if len(edges_a) != len(edges_b):
        return False
    target = {frozenset((u, v)): c for u, v, c in edges_b}
    for perm in permutations(range(n)):
        color_map: dict[int, int] = {}
        for u, v, c in edges_a:
            c2 = target.get(frozenset((perm[u], perm[v])))
            if c2 is None or color_map.setdefault(c, c2) != c2:
                break
        else:
            if len(set(color_map.values())) == len(color_map):
                return True
    return False
