"""Structured bound checkers: report contents, skip semantics,
self-certification, and tightness on the diagonal constructions."""

import math
from fractions import Fraction
from random import Random

import pytest

from rainbowgraphs.checkers import (check_avg_degree_on_v_prime,
                                    check_degree_lemma,
                                    check_general_upper_per_edge,
                                    check_k_color_edge_bound,
                                    check_p5_edge_bound, check_p5_max_degree,
                                    run_suite, verify_construction)
from rainbowgraphs.colored_graph import build, canonical_key, degree
from rainbowgraphs.constructions import d_star, lower_bound_graph
from rainbowgraphs.corpus import rainbow_free_instances, random_proper_graph
from rainbowgraphs.rainbow import count_per_edge

RAINBOW_PATH_5 = build(6, [(0, 1, 0), (1, 2, 1), (2, 3, 2), (3, 4, 3),
                           (4, 5, 4)])
IMPROPER = build(3, [(0, 1, 0), (1, 2, 0)])


# ------------------------------------------------- k-color edge bound


def test_k_color_bound_tight_on_d_star5():
    r = check_k_color_edge_bound(d_star(5), 5)
    assert r.holds and not r.skipped
    assert r.bound == 24 and r.observed_max == 24


def test_k_color_bound_tight_on_d_star3():
    r = check_k_color_edge_bound(d_star(3), 3)
    assert r.holds and r.bound == 2 and r.observed_max == 2
    # uniform: every edge of K_4 lies on two of the four rainbow triangles
    assert len(r.witnesses) == 6


def test_k_color_bound_zero_on_cycle_free_graph():
    g = build(4, [(0, 1, 0), (1, 2, 1), (2, 3, 2)])
    r = check_k_color_edge_bound(g, 3)
    assert r.holds and r.observed_max == 0 and r.witnesses == ()


def test_k_color_bound_skips_when_too_few_colors():
    g = build(4, [(0, 1, 0), (2, 3, 1)])
    r = check_k_color_edge_bound(g, 3)
    assert r.skipped and r.holds and "color" in r.reason


def test_k_color_bound_skips_improper_coloring():
    r = check_k_color_edge_bound(IMPROPER, 3)
    assert r.skipped and r.holds and "proper" in r.reason


def test_k_color_bound_formula_and_oracle_on_random_corpus():
    rng = Random(53)
    checked = 0
    for _ in range(150):
        g = random_proper_graph(rng)
        k = g.num_colors
        for ell in range(3, min(k, g.n) + 1):
            r = check_k_color_edge_bound(g, ell)
            assert not r.skipped
            assert r.bound == math.perm(k - 1, ell - 1)
            counts = count_per_edge(g, ell)
            assert r.observed_max == max(counts.values(), default=0)
            assert r.holds
            checked += 1
    assert checked > 50


# ----------------------------------------------------- degree lemma


def test_degree_lemma_on_d_star5():
    r = check_degree_lemma(d_star(5), 5)
    assert r.holds and not r.skipped
    assert r.bound == 7 and r.observed_max == 5
    assert r.witnesses == tuple(range(16))  # 5-regular, all on cycles


def test_degree_lemma_vacuous_without_cycles():
    g = build(4, [(0, 1, 0), (1, 2, 1), (2, 3, 2)])
    r = check_degree_lemma(g, 4)
    assert r.holds and not r.skipped and r.observed_max == 0


def test_degree_lemma_skips_when_rainbow_path_present():
    r = check_degree_lemma(RAINBOW_PATH_5, 5)
    assert r.skipped and r.holds and "rainbow path" in r.reason


def test_degree_lemma_skips_improper():
    assert check_degree_lemma(IMPROPER, 3).skipped


# ---------------------------------------------- general per-edge bound


def test_general_upper_on_d_star4():
    r = check_general_upper_per_edge(d_star(4), 4)
    assert r.holds and r.bound == 25 and r.observed_max == 6


def test_general_upper_on_d_star5():
    r = check_general_upper_per_edge(d_star(5), 5)
    assert r.holds and r.bound == 343 and r.observed_max == 24


def test_general_upper_vacuous_on_edgeless_graph():
    r = check_general_upper_per_edge(build(4, []), 4)
    assert r.holds and not r.skipped and r.observed_max == 0


def test_general_upper_skips_on_rainbow_path():
    assert check_general_upper_per_edge(RAINBOW_PATH_5, 5).skipped


# --------------------------------------------------- length-5 checks


def test_p5_edge_bound_tight_on_d_star5():
    r = check_p5_edge_bound(d_star(5))
    assert r.holds and r.bound == 24 and r.observed_max == 24


def test_p5_edge_bound_on_short_path_graph():
    g = build(4, [(0, 1, 0), (1, 2, 1), (2, 3, 2)])
    r = check_p5_edge_bound(g)
    assert r.holds and r.observed_max == 0


def test_p5_max_degree_on_d_star5():
    r = check_p5_max_degree(d_star(5))
    assert r.holds and r.bound == 7 and r.observed_max == 5


def test_avg_degree_on_d_star5_is_exactly_five():
    r = check_avg_degree_on_v_prime(d_star(5))
    assert r.holds and not r.skipped
    assert isinstance(r.observed_max, Fraction)
    assert r.observed_max == Fraction(5, 1)


def test_avg_degree_skips_on_empty_v_prime():
    g = build(6, [(0, 1, 0), (1, 2, 1), (0, 2, 2)])  # triangle + isolated
    r = check_avg_degree_on_v_prime(g)
    assert r.skipped and r.holds and "no vertex" in r.reason


def test_length5_checks_skip_on_rainbow_p5():
    for check in (check_p5_edge_bound, check_p5_max_degree,
                  check_avg_degree_on_v_prime):
        r = check(RAINBOW_PATH_5)
        assert r.skipped and r.holds


# ------------------------------------------------- cross-check links


def test_p5_and_general_upper_observe_the_same_quantity():
    rng = Random(59)
    for g in rainbow_free_instances(rng, 5, 40):
        a = check_p5_edge_bound(g)
        b = check_general_upper_per_edge(g, 5)
        assert not a.skipped and not b.skipped
        assert a.observed_max == b.observed_max
        assert (a.bound, b.bound) == (24, 343)


def test_reports_are_self_certifying():
    """holds must be recomputable from (witnesses, host graph, bound)."""
    for ell in (3, 4, 5):
        g = d_star(ell)
        r = check_k_color_edge_bound(g, ell)
        counts = count_per_edge(g, ell)
        for u, v in r.witnesses:
            assert counts[(u, v)] == r.observed_max
        assert r.holds == (r.observed_max <= r.bound)
        d = check_degree_lemma(g, ell)
        for v in d.witnesses:
            assert degree(g, v) == d.observed_max
        assert d.holds == (d.observed_max <= d.bound)


def test_checkers_do_not_mutate_input():
    g = d_star(4)
    edges_before = g.edges
    key_before = canonical_key(g)
    run_suite(g, 4)
    check_general_upper_per_edge(g, 4)
    assert g.edges is edges_before
    assert canonical_key(g) == key_before


# -------------------------------------------------- construction suite


@pytest.mark.parametrize("ell,cycles", [(3, 4), (4, 24), (5, 192), (6, 1920)])
def test_verify_construction_holds(ell, cycles):
    r = verify_construction(ell)
    assert r.holds and not r.skipped
    assert r.bound == cycles and r.observed_max == cycles


def test_verify_construction_rejects_out_of_range():
    with pytest.raises(ValueError):
        verify_construction(2)
    with pytest.raises(ValueError):
        verify_construction(8)


def test_run_suite_order_and_length():
    reports = run_suite(d_star(5), 5)
    assert [r.check_name for r in reports] == [
        "k_color_edge_bound", "degree_on_cycle_vertices",
        "general_upper_per_edge", "p5_edge_bound", "p5_max_degree",
        "avg_degree_on_v_prime"]
    assert all(r.holds for r in reports)
    short = run_suite(d_star(3), 3)
    assert len(short) == 3 and all(r.holds for r in short)


def test_all_applicable_checkers_hold_on_constructions():
    for ell in (3, 4, 5, 6):
        assert all(r.holds for r in run_suite(d_star(ell), ell))


def _verdicts(g, ell):
    return [(r.check_name, r.holds, r.skipped, r.bound, r.observed_max)
            for r in run_suite(g, ell)]


def _circulant(n):
    """C_n with colors alternating 0/1 plus the antipodal chords in color
    2 (n even): a vertex-transitive cubic colored graph."""
    edges = [(i, (i + 1) % n, i % 2) for i in range(n)]
    edges += [(i, i + n // 2, 2) for i in range(n // 2)]
    return build(n, edges)


def test_run_suite_verdicts_survive_relabeling_symmetric_inputs():
    rng = Random(71)
    cases = [(ell, g) for ell in (3, 4, 5, 6)
             for g in (d_star(ell), lower_bound_graph(2 ** (ell - 1) + 3, ell))]
    cases += [(ell, _circulant(2 * k)) for k in range(4, 8) for ell in (3, 4)]
    moved = 0
    for ell, g in cases:
        vperm = list(range(g.n))
        cperm = list(range(g.num_colors))
        rng.shuffle(vperm)
        rng.shuffle(cperm)
        h = build(g.n, [(vperm[u], vperm[v], cperm[c]) for u, v, c in g.edges])
        moved += h.edges != g.edges
        assert _verdicts(h, ell) == _verdicts(g, ell)
    # d_star(3) may map onto itself; the others must move
    assert moved >= len(cases) - 1


def test_cycle_length_below_three_is_refused():
    # a length below 3 is a caller error, not a skipped hypothesis
    for check in (check_degree_lemma, check_k_color_edge_bound,
                  check_general_upper_per_edge):
        with pytest.raises(ValueError,
                           match=r"^cycle length must be >= 3, got 2$"):
            check(d_star(3), 2)


def test_skipped_reports_always_carry_reason_and_hold():
    reports = run_suite(IMPROPER, 5) + run_suite(RAINBOW_PATH_5, 5)
    assert any(r.skipped for r in reports)
    for r in reports:
        if r.skipped:
            assert r.holds and r.reason
