"""Isomorph-free exhaustive search over properly edge-colored graphs.

The search space is (underlying graph on n vertices, partition of its
edges into matchings), which is exactly the space of proper colorings up
to color renaming. Candidates are grown level by level, one edge at a
time; at every level isomorph rejection keeps one canonical representative
per class (colored_graph.canonical_form), which is sound because the
constraint (no rainbow path of length ell) is closed under edge deletion:
every feasible graph with m+1 edges extends a feasible graph with m edges.

The cheap tests run on the parent, and only what survives is built
(McKay, "Isomorph-free exhaustive generation", 1998). A parent is
rainbow-P_ell-free, so candidate edge (u, v, c) makes an infeasible child
exactly when a rainbow P_ell runs through it; rainbow.has_rainbow_path_through
decides that on the parent's adjacency, and infeasible children are never
built. A feasible child is deduplicated by its canonical key alone; the
canonical graph is built only for a key not seen before at this level.

Objectives: max_edges and max_rainbow_cycles, both under the rainbow-path
freeness constraint. For max_rainbow_cycles a remaining-capacity cut
drops a representative when its cycle count plus (addable edges) x
(per-edge capacity (2*ell-3)^(ell-2)) cannot beat the incumbent; the cut
is strict, so optimum ties are never lost and the stored optima set is
complete. max_edges needs no cut: its incumbent is an evaluated edge
count, which no room of at most n(n-1)/2 edges can fall below. Per-edge
degree caps are heuristics for cycle counting only, never a correctness
assumption here.

Everything runs in the caller's thread in a fixed order (`threads` is
validated but idle), so value, witness bytes, node counts and budget
truncation at an exact node are reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

from .colored_graph import (EdgeColoredGraph, build, canonical_form,
                            canonical_key, degree, is_properly_colored)
from .rainbow import (enumerate_rainbow_cycles, has_rainbow_path,
                      has_rainbow_path_through)

_OBJECTIVES = ("max_edges", "max_rainbow_cycles")


@dataclass
class SearchProblem:
    """Parameters of one exhaustive run.

    The constraint is always rainbow-P_ell-freeness. `colors` restricts
    the optimum to colorings using exactly that many classes (None: no
    restriction). `prune_iso` and `prune_bound` exist so tests can verify
    that pruning never changes the value.
    """

    n: int
    ell: int
    objective: str
    colors: int | None = None
    all_optima: bool = False
    node_budget: int = 10 ** 9
    time_budget: float | None = None
    threads: int = 1
    prune_iso: bool = True
    prune_bound: bool = True

    def __post_init__(self):
        if not (2 <= self.n <= 10):
            raise ValueError(f"n must be in 2..10 for exhaustive search, got {self.n}")
        if self.objective not in _OBJECTIVES:
            raise ValueError(f"objective must be one of {_OBJECTIVES}")
        low = 3 if self.objective == "max_rainbow_cycles" else 1
        if not (low <= self.ell <= 62):
            raise ValueError(f"ell must be in {low}..62, got {self.ell}")
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


def _objective_value(g: EdgeColoredGraph, p: SearchProblem) -> int:
    if p.objective == "max_edges":
        return g.m
    return len(enumerate_rainbow_cycles(g, p.ell))


def _extend_one(g: EdgeColoredGraph, p: SearchProblem):
    """Yield one event per one-edge extension of a representative, in a
    fixed order: the child graph if it is feasible, None if not.

    g is rainbow-P_ell-free, so a child is infeasible exactly when a
    rainbow P_ell runs through its new edge; that is decided on g's own
    adjacency, and only feasible children are built. Lazy, so a node
    budget stops the work at the exact candidate that breaches it."""
    nbr = g.neighbor_colors
    max_new = p.colors if p.colors is not None else p.n * p.n
    for u, v in combinations(range(g.n), 2):
        if v in nbr[u]:
            continue
        used = set(nbr[u].values()) | set(nbr[v].values())
        allowed = [c for c in range(g.num_colors) if c not in used]
        if g.num_colors < max_new:
            allowed.append(g.num_colors)
        for c in allowed:
            if has_rainbow_path_through(g, u, v, c, p.ell):
                yield None
            else:
                yield build(g.n, g.edges + ((u, v, c),))


def _eligible(g: EdgeColoredGraph, p: SearchProblem) -> bool:
    return p.colors is None or g.num_colors == p.colors


def _run(p: SearchProblem):
    """Level BFS core shared by solve() and probe_color_count()."""
    t0 = time.perf_counter()
    total_pairs = p.n * (p.n - 1) // 2
    cap = (2 * p.ell - 3) ** (p.ell - 2)
    stats = {
        "nodes": 0, "levels": 0, "evaluated": 0,
        "pruned_infeasible": 0, "pruned_duplicate": 0, "pruned_bound": 0,
    }
    best: int | None = None
    optima: dict = {}
    per_k: dict[int, int] = {}
    truncated = None

    # level entries are (canonical key, canonical graph) pairs
    level = [canonical_form(build(p.n, []))]
    while level and truncated is None:
        stats["levels"] += 1
        # Phase 1: evaluate representatives (deterministic order).
        values = [_objective_value(g, p) for _, g in level]
        for (ck, g), val in zip(level, values):
            if not _eligible(g, p):
                continue
            stats["evaluated"] += 1
            k = g.num_colors
            if per_k.get(k, -1) < val:
                per_k[k] = val
            if best is None or val > best:
                best = val
                optima = {ck: g}
            elif val == best:
                optima.setdefault(ck, g)

        # Phase 2: extend, with the remaining-capacity cut (strict, so
        # optimum ties survive for the all-optima listing).
        children: dict = {}
        child_list: list = []
        for (_, g), val in zip(level, values):
            if p.prune_bound and best is not None \
                    and p.objective == "max_rainbow_cycles" \
                    and val + (total_pairs - g.m) * cap < best:
                stats["pruned_bound"] += 1
                continue
            for child in _extend_one(g, p):
                stats["nodes"] += 1
                if stats["nodes"] > p.node_budget:
                    truncated = "nodes"
                    break
                if child is None:
                    stats["pruned_infeasible"] += 1
                elif not p.prune_iso:
                    child_list.append(canonical_form(child))
                else:
                    # key first: the canonical graph is built only for a
                    # new class
                    key = canonical_key(child)
                    if key in children:
                        stats["pruned_duplicate"] += 1
                    else:
                        children[key] = canonical_form(child)[1]
            if truncated is None and p.time_budget is not None \
                    and time.perf_counter() - t0 > p.time_budget:
                truncated = "time"
            if truncated is not None:
                break
        if p.prune_iso:
            level = sorted(children.items())
        else:
            level = child_list

    stats["wall_time_s"] = time.perf_counter() - t0
    stats["truncated_by"] = truncated
    value = 0 if best is None else best
    ordered = tuple(optima[k] for k in sorted(optima))
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
    # independent re-check of the returned certificate
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
