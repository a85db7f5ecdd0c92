"""Executable verifiers for per-edge and per-vertex rainbow-cycle bounds.

Every bound checker is one row of the spec table `_SPECS`, read by the
single function `_check`. A row fixes the length ell or takes the
caller's, names the hypotheses, gives the bound as a function of ell and
the number k of colors in use, and picks the quantity compared with it:
the maximum over edges e of f(e), the number of rainbow C_ell through e;
the maximum degree over V', the vertices on at least one rainbow C_ell;
or the average degree over V', kept as an exact Fraction to avoid float
ties at the boundary. The bounds are (k-1)!/(k-ell)!, 2*ell-3 and
(2*ell-3)^(ell-2) at any ell >= 3, and 24, 7 and 5 at ell = 5.

Hypotheses are verified, not assumed: a graph that violates one (improper
coloring, fewer than ell colors, a rainbow path of ell edges, an empty V')
yields a `skipped` report with a reason, never a failure, because the
underlying statements say nothing about such graphs. Skipped reports
carry holds=True vacuously.

Checkers never mutate the input graph, and failing reports carry the
extremal witnesses so `holds` can be recomputed from the report plus the
host graph alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .colored_graph import EdgeColoredGraph, degree, is_properly_colored
from .constructions import d_star
from .rainbow import (count_per_edge, enumerate_rainbow_cycles,
                      has_rainbow_path, vertices_on_rainbow_cycles)


@dataclass(frozen=True)
class CheckReport:
    """Structured verdict of one checker on one graph."""

    check_name: str
    holds: bool
    bound: object = None
    observed_max: object = None
    witnesses: tuple = ()
    skipped: bool = False
    reason: str | None = None


class _Spec(NamedTuple):
    ell: int | None            # fixed length, or None for the caller's
    bound: Callable            # (ell, k) -> bound
    quantity: str              # "edge_max", "degree_max" or "degree_avg"
    colors: bool = False       # hypothesis: k >= ell colors in use
    path_free: bool = False    # hypothesis: no rainbow P_ell
    v_prime: bool = False      # hypothesis: V' is non-empty


#: report name -> spec, in run_suite order
_SPECS = {
    "k_color_edge_bound": _Spec(
        None, lambda ell, k: math.perm(k - 1, ell - 1), "edge_max",
        colors=True),
    "degree_on_cycle_vertices": _Spec(
        None, lambda ell, k: 2 * ell - 3, "degree_max", path_free=True),
    "general_upper_per_edge": _Spec(
        None, lambda ell, k: (2 * ell - 3) ** (ell - 2), "edge_max",
        path_free=True),
    "p5_edge_bound": _Spec(5, lambda ell, k: 24, "edge_max", path_free=True),
    "p5_max_degree": _Spec(5, lambda ell, k: 7, "degree_max",
                           path_free=True, v_prime=True),
    "avg_degree_on_v_prime": _Spec(5, lambda ell, k: 5, "degree_avg",
                                   path_free=True, v_prime=True),
}


def _skipped(name: str, reason: str) -> CheckReport:
    return CheckReport(name, holds=True, skipped=True, reason=reason)


def _check(name: str, g: EdgeColoredGraph,
           ell: int | None = None) -> CheckReport:
    """Run row `name` of the table on g; fixed-length rows ignore ell."""
    spec = _SPECS[name]
    ell = spec.ell or ell
    if ell < 3:
        raise ValueError(f"cycle length must be >= 3, got {ell}")
    k = g.num_colors
    if not is_properly_colored(g):
        return _skipped(name, "coloring is not proper")
    if spec.colors and k < ell:
        return _skipped(name, f"only {k} colors in use; "
                              f"no rainbow cycle with {ell} edges can exist")
    if spec.path_free and has_rainbow_path(g, ell):
        return _skipped(name, f"graph contains a rainbow path with {ell} edges")
    if spec.quantity == "edge_max":
        values = count_per_edge(g, ell)
    else:
        values = {v: degree(g, v) for v in vertices_on_rainbow_cycles(g, ell)}
        if spec.v_prime and not values:
            return _skipped(name, f"no vertex lies on a rainbow cycle "
                                  f"with {ell} edges")
    if spec.quantity == "degree_avg":
        observed = Fraction(sum(values.values()), len(values))
        witnesses = tuple(sorted(values))
    else:
        observed = max(values.values(), default=0)
        witnesses = tuple(sorted(x for x, d in values.items()
                                 if d == observed)) if observed > 0 else ()
    bound = spec.bound(ell, k)
    return CheckReport(name, observed <= bound, bound, observed, witnesses)


def check_k_color_edge_bound(g: EdgeColoredGraph, ell: int) -> CheckReport:
    """Per-edge rainbow-C_ell count against (k-1)!/(k-ell)! for a proper
    coloring with k colors. Vacuous (skipped) when k < ell."""
    return _check("k_color_edge_bound", g, ell)


def check_degree_lemma(g: EdgeColoredGraph, ell: int) -> CheckReport:
    """Degrees of vertices on rainbow C_ell copies against 2*ell-3, under
    the hypothesis that g has no rainbow P_ell."""
    return _check("degree_on_cycle_vertices", g, ell)


def check_general_upper_per_edge(g: EdgeColoredGraph, ell: int) -> CheckReport:
    """Per-edge rainbow-C_ell count against (2*ell-3)^(ell-2), under the
    no-rainbow-P_ell hypothesis."""
    return _check("general_upper_per_edge", g, ell)


def check_p5_edge_bound(g: EdgeColoredGraph) -> CheckReport:
    """Per-edge rainbow-C_5 count against 4! = 24 in rainbow-P_5-free
    graphs; tight on the diagonal construction."""
    return _check("p5_edge_bound", g)


def check_avg_degree_on_v_prime(g: EdgeColoredGraph) -> CheckReport:
    """Average degree over V' (vertices on rainbow 5-cycles) against 5,
    in exact rational arithmetic."""
    return _check("avg_degree_on_v_prime", g)


def check_p5_max_degree(g: EdgeColoredGraph) -> CheckReport:
    """Maximum degree over a non-empty V' against 7 for ell = 5."""
    return _check("p5_max_degree", g)


def verify_construction(ell: int) -> CheckReport:
    """Full self-check of d_star(ell): properly colored, no rainbow path
    of length ell, ell * 2^(ell-2) edges, exactly (ell-1)! * 2^(ell-2)
    rainbow cycles of length ell, and every such cycle through exactly one
    diagonal edge. Supported for 3 <= ell <= 7."""
    name = "construction_suite"
    if not (3 <= ell <= 7):
        raise ValueError(f"parameter must be in 3..7, got {ell}")
    g = d_star(ell)
    expected_cycles = math.factorial(ell - 1) * (1 << (ell - 2))
    expected_edges = ell * (1 << (ell - 2))
    cycles = enumerate_rainbow_cycles(g, ell)
    diag = g.neighbor_colors[0][(1 << (ell - 1)) - 1]
    offenders = tuple(w for w in cycles if w.colors.count(diag) != 1)
    holds = (is_properly_colored(g)
             and not has_rainbow_path(g, ell)
             and g.m == expected_edges
             and len(cycles) == expected_cycles
             and not offenders)
    return CheckReport(name, holds, expected_cycles, len(cycles), offenders)


def run_suite(g: EdgeColoredGraph, ell: int) -> list[CheckReport]:
    """All checkers applicable at the given length, in a fixed order."""
    return [_check(name, g, ell) for name, spec in _SPECS.items()
            if spec.ell in (None, ell)]
