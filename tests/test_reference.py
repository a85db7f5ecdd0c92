"""The naive reference oracles, pinned byte for byte.

Every optimized path is tested against these oracles, so a rewrite of
them must not change a single output: the digests below pin all five
oracles and the reference search on a seeded corpus.
"""

import hashlib
from random import Random

import pytest

from rainbowgraphs.constructions import d_star
from rainbowgraphs.corpus import random_colored_graph, random_proper_graph
from rainbowgraphs.reference import (_count_rainbow_cycles_brute,
                                     _has_rainbow_path_brute, naive_colorings,
                                     naive_rainbow_cycles, naive_rainbow_paths,
                                     naive_rainbow_paths_between, naive_search)

#: SHA-256 per oracle over the repr of each output on `_corpus()`, in
#: query order.
ORACLE_DIGESTS = {
    "naive_rainbow_paths":
        "f7fcffb079220ae2dad7d85af007896869ded90a26f5359e0a482692820b638c",
    "_has_rainbow_path_brute":
        "94b6e28496340f27aa6ef39d15533458f11863cd38b7647ca909064f60baa125",
    "naive_rainbow_cycles":
        "ec262461d681d1561fa8b337c4abea6e631e10e4725387001f9c5c462e3b8551",
    "_count_rainbow_cycles_brute":
        "979b32c36b317e287bb03a6ff50ac8be0c80950d0fe508987f9f4f62484cdd47",
    "naive_rainbow_paths_between":
        "b8ce3bb48560cd03071ba5ad4f20d6c6845df80eb5dafecc456e5090b982fe2f",
    "naive_search":
        "5d2f599b803da3f68c83dc3fdee2e9e4b23b1cf958c90d9aec92b94cadf4b66e",
}


def _corpus():
    """352 graphs of at most 8 vertices: random improper colorings,
    sparse and dense random proper ones, d_star(3) and d_star(4)."""
    rng = Random(271)
    graphs = [random_colored_graph(rng, max_n=7) for _ in range(120)]
    graphs += [random_proper_graph(rng, n=rng.randint(3, 8))
               for _ in range(120)]
    graphs += [random_proper_graph(rng, dense=True) for _ in range(110)]
    return rng, graphs + [d_star(3), d_star(4)]


def _oracle_outputs():
    """(oracle name, output) for every query, in a fixed order."""
    rng, graphs = _corpus()
    for g in graphs:
        nbr = g.neighbor_colors
        for ell in range(7):
            yield "naive_rainbow_paths", naive_rainbow_paths(g, ell)
            yield "_has_rainbow_path_brute", _has_rainbow_path_brute(
                g.n, nbr, ell)
        for ell in range(2, 8):
            yield "naive_rainbow_cycles", naive_rainbow_cycles(g, ell)
            yield "_count_rainbow_cycles_brute", _count_rainbow_cycles_brute(
                g.n, nbr, ell)
        for _ in range(4):
            # x == y and colors the graph lacks are drawn too
            x, y = rng.randrange(g.n), rng.randrange(g.n)
            forbidden = [c for c in range(g.num_colors + 1)
                         if rng.random() < 0.25]
            yield "naive_rainbow_paths_between", naive_rainbow_paths_between(
                g, x, y, rng.randint(0, 6), forbidden)
    searches = [(n, ell) for n in range(1, 5) for ell in range(1, 5)]
    for n, ell in searches + [(5, 3)]:
        for objective in ("max_edges", "max_rainbow_cycles"):
            best, per_k = naive_search(n, ell, objective)
            yield "naive_search", (best, sorted(per_k.items()))


def test_reference_oracle_bytes_are_frozen():
    # the oracles may change how they walk a graph, never what they return
    hashes = {}
    for name, out in _oracle_outputs():
        hashes.setdefault(name, hashlib.sha256()).update(repr(out).encode())
    got = {name: h.hexdigest() for name, h in hashes.items()}
    assert got == ORACLE_DIGESTS


def test_naive_colorings_refuse_an_unknown_objective():
    # the generator refuses at its first step, before any graph is drawn
    for run in (lambda: next(naive_colorings(3, 3, "most_edges")),
                lambda: naive_search(3, 3, "most_edges")):
        with pytest.raises(ValueError,
                           match=r"^unknown objective 'most_edges'$"):
            run()
