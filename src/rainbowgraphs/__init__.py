"""Toolkit for rainbow paths and cycles in properly edge-colored graphs:
constructions, enumeration, bound checkers, and exhaustive search."""

from .checkers import (CheckReport, check_avg_degree_on_v_prime,
                       check_degree_lemma, check_general_upper_per_edge,
                       check_k_color_edge_bound, check_p5_edge_bound,
                       check_p5_max_degree, run_suite, verify_construction)
from .colored_graph import (EdgeColoredGraph, build, canonical_form,
                            canonical_key, degree, is_properly_colored)
from .constructions import d_star, disjoint_union, hypercube, lower_bound_graph
from .graph_io import (parse_graph_file, parse_witness_line, to_dot,
                       witness_line, write_graph_file)
from .rainbow import (RainbowWitness, count_per_edge, enumerate_rainbow_cycles,
                      enumerate_rainbow_paths, has_rainbow_path,
                      rainbow_paths_between, vertices_on_rainbow_cycles)
from .search import (ColorProbeTable, ExtremalResult, SearchProblem,
                     probe_color_count, solve, verify_extremal_regularity)

__version__ = "0.1.0"

__all__ = [
    "CheckReport", "ColorProbeTable", "EdgeColoredGraph", "ExtremalResult",
    "RainbowWitness", "SearchProblem", "build", "canonical_form",
    "canonical_key", "check_avg_degree_on_v_prime", "check_degree_lemma",
    "check_general_upper_per_edge", "check_k_color_edge_bound",
    "check_p5_edge_bound", "check_p5_max_degree", "count_per_edge",
    "d_star", "degree", "disjoint_union",
    "enumerate_rainbow_cycles", "enumerate_rainbow_paths", "has_rainbow_path",
    "hypercube", "is_properly_colored", "lower_bound_graph",
    "parse_graph_file", "parse_witness_line", "probe_color_count",
    "rainbow_paths_between", "run_suite", "solve", "to_dot",
    "verify_construction", "verify_extremal_regularity",
    "vertices_on_rainbow_cycles", "witness_line", "write_graph_file",
]
