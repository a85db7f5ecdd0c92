"""Isomorph-free exhaustive search over properly edge-colored graphs.

The search space is (underlying graph on n vertices, partition of its
edges into matchings), which is exactly the space of proper colorings up
to color renaming. Candidates are grown level by level, one edge at a
time; at every level isomorph rejection keeps one canonical representative
per class (colored_graph.canonical_key), which is sound because the
constraint (no rainbow path of length ell) is closed under edge deletion:
every feasible graph with m+1 edges extends a feasible graph with m edges.

The cheap tests run on the parent, and only what survives is built
(McKay, "Isomorph-free exhaustive generation", 1998), in two parts.

Orbit pruning: candidate edges (u, v, c) in one orbit of the parent's
automorphisms give isomorphic children, so only the first of each orbit
is tried. The generators come free from the canonical walk that found
the parent's class (colored_graph.canonical_generators) and are kept,
packed as bytes, for the classes that have any; the isolated vertices,
all interchangeable, are read off the degrees instead. The same
generators prune the child's own canonical walk: those that fix the
pair {u, v} and the color c are automorphisms of the child, and it
inherits them, so its walk tries one of each orbit of tied siblings.

Canonical deletion: deleting an edge of largest inv(x, y, d) = (min
degree, max degree, size of class d) from a feasible graph with m+1
edges leaves a class of the level before, and inv is
isomorphism-invariant. So every class is reached by a candidate edge
(u, v, c) that has the largest inv in its child, and a candidate that
does not is a duplicate; that test reads the parent's degrees and class
sizes, and no child is built for it. Per vertex pair it takes one
bound, the largest inv over the parent's edges with the degrees of u
and v raised. Edges of the new edge's class c may enter that bound:
they touch neither u nor v, so unless one of them already has a larger
degree pair (checked per class), each is one size short of the new
edge and below it. inv is invariant, so orbit-mates pass or fail this
test together, and orbit pruning loses no class.

Both tests run on integer tables built once per parent. inv is the int
(lo*n + hi)*n + size: each part is below n, so the ints sort as the
triples do. A vertex's colors are a bitmask, so a pair's free colors
are the bits clear at both ends, and a generator is a table of vertex
pair images, so a candidate's image is two list lookups.

A parent is rainbow-P_ell-free, so a candidate makes an infeasible child
exactly when a rainbow P_ell runs through it;
rainbow.has_rainbow_path_through decides that on the parent's adjacency,
and infeasible children are never built. A feasible child is
deduplicated by its canonical key alone, and a level is the sorted list
of its keys. Each parent is decoded from its key
(colored_graph.graph_of_key) when its turn comes, so a class's
canonical graph is built once and lives only through that turn, with
the tables cached on it; optima are kept as keys and decoded at the
end. Node counts count every candidate tried.

Objectives: max_edges and max_rainbow_cycles, both under the
rainbow-path freeness constraint. Rainbow C_ell counts are carried, not
recounted: a new class's count is its parent's plus the cycles through
its new edge (u, v, c), which are the parent's rainbow P_(ell-1) between
u and v that avoid c (rainbow.rainbow_paths_between, one walk on the
parent), so evaluating a class reads an int; only the witness is
recounted, on a fresh build.

Edge cut (max_edges, colors None): _threshold(n, ell) is the edge count
T of an explicit rainbow-P_ell-free coloring, a floor on the optimum.
The constraint is closed under edge deletion, so each pair added on the
way to a descendant of a class is addable in it: it takes a free old
color or the new one. A class whose edges and addable pairs fall short
of T is evaluated and its candidates are tried, but its children are
dropped and it counts in `pruned_bound`. Each class on an optimum's
deletion chain bounds at least the optimum, so the value, witness,
optima and `levels` stay; a complete run that ends below T is an error.

Everything runs in the caller's thread in a fixed order (`threads` is
validated but idle), so value, witness bytes, node counts and budget
truncation at an exact node are reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain, combinations

from .colored_graph import (EdgeColoredGraph, _normalized, build,
                            canonical_form, canonical_generators,
                            canonical_key, degree, graph_of_key,
                            is_properly_colored)
from .rainbow import (MAX_LEN, enumerate_rainbow_cycles, has_rainbow_path,
                      has_rainbow_path_through, rainbow_paths_between)

_OBJECTIVES = ("max_edges", "max_rainbow_cycles")


@dataclass
class SearchProblem:
    """Parameters of one exhaustive run.

    The constraint is always rainbow-P_ell-freeness. `colors` restricts
    the optimum to colorings using exactly that many classes (None: no
    restriction).
    """

    n: int
    ell: int
    objective: str
    colors: int | None = None
    all_optima: bool = False
    node_budget: int = 10 ** 9
    time_budget: float | None = None
    threads: int = 1

    def __post_init__(self):
        if not (2 <= self.n <= 10):
            raise ValueError(f"n must be in 2..10 for exhaustive search, got {self.n}")
        if self.objective not in _OBJECTIVES:
            raise ValueError(f"objective must be one of {_OBJECTIVES}")
        low = 3 if self.objective == "max_rainbow_cycles" else 1
        if not (low <= self.ell <= MAX_LEN):
            raise ValueError(f"ell must be in {low}..{MAX_LEN}, got {self.ell}")
        if self.colors is not None and self.colors < 1:
            raise ValueError("colors must be >= 1")
        if self.node_budget < 1:
            raise ValueError("node budget must be positive")
        if self.time_budget is not None and not self.time_budget >= 0:  # nan too
            raise ValueError("time budget must be >= 0")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass
class ExtremalResult:
    """Outcome of solve(): optimum value, one optimal witness graph with
    minimal canonical key, whether the space was fully explored, and run
    statistics. `optima` holds every optimal isomorphism class when
    all_optima was requested."""

    value: int
    witness: EdgeColoredGraph | None
    exhaustive: bool
    stats: dict = field(default_factory=dict)
    optima: tuple[EdgeColoredGraph, ...] | None = None


@dataclass(frozen=True)
class ColorProbeTable:
    """Rows (k, best objective value over colorings with exactly k
    classes); partial tables are flagged via exhaustive=False."""

    rows: tuple[tuple[int, int], ...]
    exhaustive: bool


def _objective_value(g: EdgeColoredGraph, p: SearchProblem,
                     carried: int | None = None) -> int:
    # `carried` is the cycle count the search carried to g's class; with
    # none, as in the witness re-check, the cycles are enumerated afresh
    if p.objective == "max_edges":
        return g.m
    if carried is None:
        return len(enumerate_rainbow_cycles(g, p.ell))
    return carried


def _orbit_maps(g: EdgeColoredGraph, gens: bytes):
    """Each packed generator of g as (vertex map, color map): a color goes
    where the generator sends its edges, and the new color k to itself."""
    n, nbr = g.n, g.neighbor_colors
    maps = []
    for i in range(0, len(gens), n):
        a = gens[i:i + n]
        cmap = list(range(g.num_colors + 1))
        for x, y, d in g.edges:
            cmap[d] = nbr[a[x]][a[y]]
        maps.append((a, cmap))
    return maps


def _extend_one(g: EdgeColoredGraph, p: SearchProblem,
                gens: bytes | None = None):
    """Yield one event per tried one-edge extension (u, v, c) of a
    canonical representative, in a fixed order: the child graph if it is
    feasible and its new edge has the largest inv, else the name of the
    counter the candidate falls in, "pruned_duplicate" or
    "pruned_infeasible".

    `gens` packs automorphisms of g, n bytes each (canonical_generators),
    and the permutations of g's isolated vertices join them. Candidates
    in one orbit of that group give isomorphic children, so only the
    first of each orbit is tried: its isolated endpoints are the first
    isolated vertices, and the generators' images of it are marked
    covered. A candidate is coded as (pair index, color), and each
    generator as a table of pair images beside its color map, so an
    image is two list lookups. With gens None every candidate is tried.

    inv(x, y, d) = (min degree, max degree, size of class d) in the
    child (McKay 1998), coded as the int (lo*n + hi)*n + size. Degrees
    are below n, and so is a class size, since a class is a matching of
    at most n/2 edges; so the ints sort exactly as the triples do. Per
    vertex pair, `bound` is the largest inv of g's edges with the degrees
    of u and v raised and the sizes of g. Raising an endpoint's degree
    never lowers an inv, so that is the larger of up[u] and up[v], where
    up[w] is the largest inv of g with the degree of w alone raised. The
    new edge's inv is pair*n + size[c] + 1. No class-c edge touches u or
    v, and in the child each gains one in size: the candidate loses to
    one of them exactly when pair < top_pair[c], the largest degree pair
    in class c. Otherwise each class-c inv in g, pair_e*n + size[c], is
    below the new one, so letting class c into `bound` adds nothing.
    g is rainbow-P_ell-free, so a child is infeasible exactly when a
    rainbow P_ell runs through its new edge; that is decided on g's own
    adjacency, and only feasible children are built. The new color is
    free at u and at v (its bit is clear in both endpoints' color masks),
    so every child is proper, and is marked so. A child adds a non-edge
    u < v to g's valid edges, so it is normalized without build()'s
    checks, and it carries that edge, in g's colors, as _cache["added"],
    and as _cache["inherited"] the vertex maps of the generators that
    keep {u, v} as a pair and c as c, which its canonical walk prunes
    with; each infeasible candidate (u, v, c) joins the set
    g._cache["dead"]. Lazy, so a node budget stops the work at the exact
    candidate that breaches it."""
    n, nbr, edges = g.n, g.neighbor_colors, g.edges
    dead = g._cache.setdefault("dead", set())
    k = g.num_colors
    new = [k] if p.colors is None or k < p.colors else []
    deg = [len(row) for row in nbr]
    colors_at = [0] * n  # bit c set: color c is used at the vertex
    size = [0] * (k + 1)  # class k is the new color
    for x, y, d in edges:
        colors_at[x] |= 1 << d
        colors_at[y] |= 1 << d
        size[d] += 1
    top_pair = [0] * (k + 1)
    top = 0  # the largest inv in g
    at = [0] * n  # the largest inv of an edge at w, w's degree raised
    for x, y, d in edges:
        dx, dy = deg[x], deg[y]
        pair = dx * n + dy if dx < dy else dy * n + dx
        top_pair[d] = max(top_pair[d], pair)
        top = max(top, pair * n + size[d])
        for w, dw, dz in ((x, dx + 1, dy), (y, dy + 1, dx)):
            pair = dw * n + dz if dw < dz else dz * n + dw
            at[w] = max(at[w], pair * n + size[d])
    up = [max(top, b) for b in at]
    every = list(combinations(range(n), 2))
    pairs = [(i, u, v) for i, (u, v) in enumerate(every) if v not in nbr[u]]
    maps = []
    autos = []  # (vertex map, color map) of each generator
    if gens is not None:
        # an isolated endpoint is the first isolated vertex, or the
        # second when the first is the other endpoint
        iso = tuple(v for v in range(n) if not deg[v])
        spare = set(iso[1:])
        pairs = [(i, u, v) for i, u, v in pairs
                 if spare.isdisjoint((u, v)) or (u, v) == iso[:2]]
        if gens:
            index = [0] * (n * n)
            for i, (x, y) in enumerate(every):
                index[x * n + y] = index[y * n + x] = i
            autos = _orbit_maps(g, gens)
            maps = [([index[a[x] * n + a[y]] for x, y in every], cmap)
                    for a, cmap in autos]
            covered = [bytearray(k + 1) for _ in every]
    for i, u, v in pairs:
        du, dv = deg[u] + 1, deg[v] + 1
        pair = du * n + dv if du < dv else dv * n + du
        bound = max(up[u], up[v])
        used = colors_at[u] | colors_at[v]
        for c in [c for c in range(k) if not used >> c & 1] + new:
            if maps:
                if covered[i][c]:
                    continue
                covered[i][c] = 1
                orbit = [(i, c)]
                for x, d in orbit:  # grows to the whole orbit
                    for images, cmap in maps:
                        y, e = images[x], cmap[d]
                        if not covered[y][e]:
                            covered[y][e] = 1
                            orbit.append((y, e))
            if pair * n + size[c] + 1 < bound or pair < top_pair[c]:
                yield "pruned_duplicate"
            elif has_rainbow_path_through(g, u, v, c, p.ell):
                dead.add((u, v, c))
                yield "pruned_infeasible"
            else:
                child = _normalized(n, edges + ((u, v, c),))
                child._cache["added"] = (u, v, c)
                child._cache["proper"] = True
                inherited = tuple(a for a, cmap in autos if cmap[c] == c
                                  and {a[u], a[v]} == {u, v})
                if inherited:
                    child._cache["inherited"] = inherited
                yield child


def _threshold(n: int, ell: int) -> int:
    """Edges of a rainbow-P_ell-free proper coloring on n vertices:
    n // 2^(ell-1) blocks d_star(ell), and on the r vertices left K_r if
    r <= ell, else ell - 1 (near-)perfect matchings of a 1-factorization
    of K_r. 0, no cut, at ell < 3 or below one block."""
    size = 1 << (ell - 1)
    if ell < 3 or n < size:
        return 0
    r = n % size
    return n // size * ell * size // 2 + (
        r * (r - 1) // 2 if r <= ell else (ell - 1) * (r // 2))


def _reaches(g: EdgeColoredGraph, ell: int, need: int, live: set) -> bool:
    """Whether at least `need` non-edges of g take a feasible color; the
    pairs in `live` do, and count first. A rainbow P_ell through (u, v, c)
    stays rainbow with c recolored to the new color k, so k is feasible
    only where each free old color is: it is tried only where none is
    free. No verdict in g._cache["dead"] is tested again, and the count
    stops once it is decided either way."""
    nbr, k = g.neighbor_colors, g.num_colors
    dead = g._cache.get("dead", ())
    colors_at = [sum(1 << c for c in row.values()) for row in nbr]
    todo = [(u, v) for u, v in combinations(range(g.n), 2)
            if v not in nbr[u] and (u, v) not in live]
    have, left = len(live), len(todo)
    for u, v in todo:
        if have >= need or have + left < need:
            break
        left -= 1
        used = colors_at[u] | colors_at[v]
        have += any((u, v, c) not in dead
                    and not has_rainbow_path_through(g, u, v, c, ell)
                    for c in [c for c in range(k) if not used >> c & 1] or [k])
    return have >= need


def _eligible(g: EdgeColoredGraph, p: SearchProblem) -> bool:
    return p.colors is None or g.num_colors == p.colors


def _run(p: SearchProblem):
    """Level BFS core shared by solve() and probe_color_count()."""
    t0 = time.perf_counter()
    stats = {
        "nodes": 0, "levels": 0, "evaluated": 0,
        "pruned_infeasible": 0, "pruned_duplicate": 0, "pruned_bound": 0,
    }
    best: int | None = None
    optima: list = []
    per_k: dict[int, int] = {}
    truncated = None

    # a level is the sorted list of its classes' keys; `gens_of` holds the
    # packed generators of those with any, and most classes have none;
    # `counts` holds each class's rainbow C_ell count, its parent's plus
    # the cycles through its new edge (max_edges runs hold none)
    root = canonical_form(build(p.n, []))[0]
    level = [root]
    gens_of: dict = {}
    counts = {root: 0} if p.objective == "max_rainbow_cycles" else None
    # the edge cut's T (module docstring); 0 turns it off
    floor = _threshold(p.n, p.ell) \
        if p.objective == "max_edges" and p.colors is None else 0
    while level and truncated is None:
        stats["levels"] += 1
        children: dict = {}
        symmetric: dict = {}
        for ck in level:
            g = graph_of_key(ck)
            count = None if counts is None else counts[ck]
            if _eligible(g, p):
                stats["evaluated"] += 1
                val = _objective_value(g, p, count)
                k = g.num_colors
                if per_k.get(k, -1) < val:
                    per_k[k] = val
                if best is None or val > best:
                    best = val
                    optima = [ck]
                elif val == best:
                    optima.append(ck)
            fresh = []
            for child in _extend_one(g, p, gens_of.get(ck, b"")):
                stats["nodes"] += 1
                if stats["nodes"] > p.node_budget:
                    truncated = "nodes"
                    break
                if isinstance(child, str):
                    stats[child] += 1
                else:
                    fresh.append(child)
            if floor > g.m and truncated is None and not _reaches(
                    g, p.ell, floor - g.m,
                    {c._cache["added"][:2] for c in fresh}):
                stats["pruned_bound"] += 1
                fresh = []
            for child in fresh:
                key = canonical_key(child)
                if key in children:
                    stats["pruned_duplicate"] += 1
                    continue
                # the C_ell through a new edge (u, v, c) are the rainbow
                # P_(ell-1) of g between u and v that avoid c
                u, v, c = child._cache["added"]
                children[key] = None if count is None else count + len(
                    rainbow_paths_between(g, u, v, p.ell - 1, (c,)))
                gens = canonical_generators(child)
                if gens:
                    symmetric[key] = bytes(chain.from_iterable(gens))
            if truncated is None and p.time_budget is not None \
                    and time.perf_counter() - t0 > p.time_budget:
                truncated = "time"
            if truncated is not None:
                break
        level, gens_of = sorted(children), symmetric
        if counts is not None:
            counts = children

    stats["wall_time_s"] = time.perf_counter() - t0
    stats["truncated_by"] = truncated
    value = 0 if best is None else best
    if truncated is None and value < floor:
        raise RuntimeError(f"search found {value} edges, below the "
                           f"{floor} of the lower-bound construction")
    ordered = tuple(graph_of_key(k) for k in sorted(optima))
    return value, ordered, per_k, stats, truncated is None


def solve(p: SearchProblem) -> ExtremalResult:
    """Exhaustively optimize the objective over all proper colorings of
    n-vertex graphs with no rainbow path of length ell.

    The witness is re-verified through the rainbow module before return;
    among optimal classes the one with minimal canonical key is the
    witness. exhaustive=False means a budget truncated the run and the
    value is only a best-so-far.
    """
    value, ordered, _per_k, stats, complete = _run(p)
    witness = ordered[0] if ordered else None
    if witness is not None:
        _verify_witness_graph(witness, p, value)
        if p.all_optima and complete:
            for g in ordered[1:]:
                _verify_witness_graph(g, p, value)
    return ExtremalResult(
        value=value,
        witness=witness,
        exhaustive=complete,
        stats=stats,
        optima=ordered if p.all_optima else None,
    )


def _verify_witness_graph(g: EdgeColoredGraph, p: SearchProblem, value: int):
    # independent re-check on a fresh copy, so nothing cached on g is read
    g = build(g.n, g.edges)
    if not is_properly_colored(g):
        raise RuntimeError("search witness is not properly colored")
    if has_rainbow_path(g, p.ell):
        raise RuntimeError("search witness violates the freeness constraint")
    if not _eligible(g, p):
        raise RuntimeError("search witness violates the color restriction")
    if _objective_value(g, p) != value:
        raise RuntimeError("search witness does not achieve the claimed value")


def verify_extremal_regularity(r: ExtremalResult, d: int) -> bool:
    """True iff the witness (all stored optima, when present) is d-regular.
    Only proven optima qualify: non-exhaustive results are an error."""
    if not r.exhaustive:
        raise ValueError("regularity check requires an exhaustive result")
    graphs = r.optima if r.optima is not None else \
        ((r.witness,) if r.witness is not None else ())
    if not graphs:
        raise ValueError("result carries no witness")
    return all(degree(g, v) == d for g in graphs for v in range(g.n))


def probe_color_count(n: int, ell: int, node_budget: int = 10 ** 9,
                      threads: int = 1) -> ColorProbeTable:
    """Best rainbow-C_ell count per exact number of color classes, over
    all rainbow-P_ell-free colorings on n vertices. Probes whether more
    than the minimum number of colors ever helps."""
    p = SearchProblem(n, ell, "max_rainbow_cycles",
                      node_budget=node_budget, threads=threads)
    _value, _optima, per_k, _stats, complete = _run(p)
    rows = tuple(sorted(per_k.items()))
    return ColorProbeTable(rows=rows, exhaustive=complete)
