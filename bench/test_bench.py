"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def lib():
    return workloads.load_library()


def _only(*names) -> workloads.Inputs:
    """Search inputs whose every round solves just the named grid points."""
    return workloads.Inputs({}, [names] * workloads.POOL)


def _outcomes(log: run.Log) -> list:
    return [(s.kind, s.ok, s.observed) for s in log.samples]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(lib, name, tmp_path):
    make = workloads.WORKLOADS[name].make_inputs
    first = make(lib, 3, str(tmp_path))
    assert make(lib, 3, str(tmp_path)) == first
    assert make(lib, 4, str(tmp_path)) != first


@pytest.mark.parametrize("trace", [False, True])
def test_names_match_benchmark_json(trace):
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    result, detail = run.run_workload("rainbow-check", 1, 0.01, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert [m["unit"] for m in result["metrics"].values()] == \
        [m["unit"] for m in declared]
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert detail["environment"]["workloads"] == ["rainbow-check"]


@pytest.mark.parametrize("name", ["canon", "rainbow-check", "search"])
def test_traced_round_verifies_like_untraced(lib, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = _only("n5l5-cycles", "n8l3-edges") if name == "search" \
        else workload.make_inputs(lib, 5, str(tmp_path))
    plain, traced = run.Log(), run.Log()
    run.run_paired(workload, lib, inputs, 0, plain, traced, tracing.Tracer())
    assert _outcomes(traced) == _outcomes(plain)
    assert all(ok for _, ok, _ in _outcomes(plain)), plain.failures


@pytest.mark.parametrize("name", ["canon", "rainbow-check"])
def test_repeated_round_is_not_served_from_memo(lib, name, tmp_path):
    # every operation gets a freshly built graph, so a second pass over the
    # same inputs makes the same calls and does the same work again
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(lib, 1, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        passes = []
        for _ in range(2):
            run.run_round(workload, lib, inputs, 0, run.Log(), tracer)
            passes.append(tracer.collect())
    finally:
        tracer.uninstall()
    first, second = passes
    for prefix, agg in first.items():
        assert second[prefix]["calls"] == agg["calls"], prefix
        if agg["self_s"] > 0.02:
            assert 1 / 3 < second[prefix]["self_s"] / agg["self_s"] < 3, prefix


def test_corrupted_outputs_count_as_failed(lib):
    good = lib.search.solve(lib.search.SearchProblem(5, 5, "max_rainbow_cycles"))
    # a properly colored path with 5 colors: a rainbow P_5 on 6 vertices
    path = lib.colored_graph.build(6, [(i, i + 1, i) for i in range(5)])
    with_path = lib.search.ExtremalResult(12, path, True, {})
    assert workloads.check_solve(lib, "n5l5-cycles", good)
    assert not workloads.check_solve(lib, "n6l5-cycles", with_path)

    def fixed(kind, out, check):
        return workloads.Op(kind, lambda: (), lambda: out, check)

    def boom():
        raise RuntimeError("injected")

    ops = [
        fixed("solve:n5l5-cycles", good,
              lambda res: workloads.check_solve(lib, "n5l5-cycles", res)),
        fixed("solve:n5l5-cycles", dataclasses.replace(good, value=11),
              lambda res: workloads.check_solve(lib, "n5l5-cycles", res)),
        fixed("solve:n6l5-cycles", with_path,
              lambda res: workloads.check_solve(lib, "n6l5-cycles", res)),
        workloads.Op("solve:n5l5-cycles", lambda: (), boom, lambda res: True),
    ]
    log = run.Log()
    run.run_round(workloads.Workload(None, lambda *_: ops), lib, None, 0, log)
    assert [s.ok for s in log.samples] == [True, False, False, False]
    assert len(log.failures) == 3 and "injected" in log.failures[2]


def test_canon_pair_check_uses_brute_force_below_seven_vertices():
    square = (4, ((0, 1, 0), (1, 2, 1), (2, 3, 0), (0, 3, 1)))
    relabeled = ((0, 2, 5), (2, 1, 3), (1, 3, 5), (0, 3, 3))
    path = ((0, 1, 0), (1, 2, 1), (2, 3, 0), (0, 3, 0))  # not proper
    assert oracles.isomorphic(4, square[1], relabeled)
    assert not oracles.isomorphic(4, square[1], path)
    assert workloads._check_pair("k", "k", square, (4, relabeled))
    assert not workloads._check_pair("k", "other", square, (4, relabeled))
    assert not workloads._check_pair("k", "k", square, (4, path))


def test_frozen_path_count_matches_brute_force(lib):
    n, edges = workloads._plain(lib.constructions.d_star(6))
    directed = sum(len(oracles.rainbow_paths_from(n, edges, x, 5))
                   for x in range(n))
    assert directed == 2 * workloads.D6_PATHS5


def test_worker_thread_spans_are_children_of_the_caller(lib):
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        counts = {}
        for threads in (1, 2):
            tracer.on = True
            lib.search.solve(lib.search.SearchProblem(
                5, 5, "max_rainbow_cycles", threads=threads))
            tracer.on = False
            counts[threads] = tracer.collect()
    finally:
        tracer.uninstall()
    for prefix in ("colored_graph.canonical_form", "rainbow.has_rainbow_path"):
        assert counts[1][prefix]["calls"] == counts[2][prefix]["calls"] > 0
    for agg in counts[2].values():
        assert agg["self_s"] >= 0
    total = sum(agg["self_s"] for agg in counts[1].values())
    assert counts[1]["search"]["self_s"] < total


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
