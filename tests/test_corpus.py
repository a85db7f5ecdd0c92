"""Seeded instance generators: frozen draws and rainbow-path freeness."""

import hashlib
from random import Random

import pytest

from rainbowgraphs.colored_graph import build, is_properly_colored
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
