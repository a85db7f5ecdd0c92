"""Seeded instance generators: frozen draws and rainbow-path freeness."""

import hashlib
from random import Random

import pytest

from rainbowgraphs import corpus
from rainbowgraphs.colored_graph import build, is_properly_colored
from rainbowgraphs.constructions import d_star, lower_bound_graph
from rainbowgraphs.corpus import rainbow_free_instances, random_proper_graph
from rainbowgraphs.rainbow import has_rainbow_path
from rainbowgraphs.reference import naive_rainbow_paths

#: SHA-256 over repr((n, num_colors, edges)) of `_frozen_corpus()`,
#: computed with every generated graph still going through build(); a
#: changed order of random draws changes it.
CORPUS_DIGEST = (
    "b033cbd6ea9a607a0dd467573aa7670180441fdb9543620568cc42c991e5c125")


def _frozen_corpus():
    for seed in (0, 1, 2026):
        for ell in (3, 4, 5):
            yield from rainbow_free_instances(Random(seed), ell, 40)
        rng = Random(seed)
        yield from (random_proper_graph(rng) for _ in range(40))
        yield from (random_proper_graph(rng, dense=True) for _ in range(20))


def test_corpus_bytes_are_frozen():
    h = hashlib.sha256()
    for g in _frozen_corpus():
        again = build(g.n, g.edges)
        assert again == g and again.num_colors == g.num_colors
        h.update(repr((g.n, g.num_colors, g.edges)).encode())
    assert h.hexdigest() == CORPUS_DIGEST


@pytest.mark.parametrize("ell", [3, 4, 5])
def test_rainbow_free_instances_fall_back_after_rejected_draws(monkeypatch,
                                                               ell):
    # with every random draw rejected, the random branch falls back to an
    # edge subset of the block after 60 tries; every graph is then a
    # subgraph of d_star(ell) or of a padded union of blocks, its colors
    # renumbered one to one
    tried = []

    def reject(g, length):
        tried.append(length)
        return True

    monkeypatch.setattr(corpus, "has_rainbow_path", reject)
    graphs = rainbow_free_instances(Random(7), ell, 30)
    assert len(graphs) == 30 and tried and set(tried) == {ell}
    assert len(tried) % 60 == 0
    assert graphs[0] == d_star(ell)
    for g in graphs:
        # one block is d_star(ell) itself
        host = lower_bound_graph(g.n, ell)
        colors = {(u, v): c for u, v, c in host.edges}
        assert {(u, v) for u, v, _ in g.edges} <= colors.keys()
        renamed = {(c, colors[u, v]) for u, v, c in g.edges}
        assert len(renamed) == len(dict(renamed)) == len(
            {d for _, d in renamed})
        assert is_properly_colored(g)


@pytest.mark.parametrize("ell", [6, 7])
def test_rainbow_free_instances_past_the_20_vertex_draw(ell):
    # one block of 32 or 64 vertices, padded by up to 4 isolated vertices
    # in the lower-bound branch; the draw once had an empty range here
    block = 1 << (ell - 1)
    sizes = set()
    for seed in range(3):
        graphs = rainbow_free_instances(Random(seed), ell, 12)
        assert len(graphs) == 12
        for g in graphs:
            sizes.add(g.n)
            assert is_properly_colored(g)
            if g.n <= 9:
                assert not naive_rainbow_paths(g, ell)
            else:
                assert not has_rainbow_path(g, ell)
    assert block in sizes and max(sizes) <= block + 4
    assert any(block < n for n in sizes)
