"""Text formats and the command-line surface.

CLI tests drive rainbowgraphs.cli.run(argv) in-process and assert the
documented exit-code contract: 0 success, 1 failed check, 2 usage or
input error. stdout carries data only; timing goes to stderr.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import rainbowgraphs
from rainbowgraphs.checkers import (CheckReport, check_avg_degree_on_v_prime,
                                    check_degree_lemma,
                                    check_k_color_edge_bound, run_suite,
                                    verify_construction)
from rainbowgraphs.cli import run
from rainbowgraphs.colored_graph import build
from rainbowgraphs.constructions import d_star, hypercube, lower_bound_graph
from rainbowgraphs.corpus import random_proper_graph
from rainbowgraphs.graph_io import (graph_to_dict, parse_graph_file,
                                    parse_witness_line, report_to_dict,
                                    result_to_dict, to_dot, witness_line,
                                    write_graph_file)
from rainbowgraphs.rainbow import (count_per_edge, enumerate_rainbow_cycles,
                                   enumerate_rainbow_paths, verify_witness)
from rainbowgraphs.search import SearchProblem, probe_color_count, solve

D3_TEXT = write_graph_file(d_star(3))


# ------------------------------------------------------- edge-list text


def test_write_then_parse_round_trips():
    rng = Random(61)
    for _ in range(50):
        g = random_proper_graph(rng)
        assert parse_graph_file(write_graph_file(g)) == g


def test_parse_tolerates_comments_and_blank_lines():
    text = "# header comment\n\n3 2   # n m\n0 1 0\n\n1 2 1 # last\n"
    g = parse_graph_file(text)
    assert g.n == 3 and g.m == 2


def test_parse_is_write_stable():
    text = "#c\n4 2\n2 3 7\n0 1 7\n"
    g = parse_graph_file(text)
    assert write_graph_file(g) == "4 2\n0 1 0\n2 3 0\n"


@pytest.mark.parametrize("text,fragment", [
    ("", "empty input"),
    ("# only a comment\n", "empty input"),
    ("3\n", "header must be"),
    ("3 2\n0 1 0\n", "declares 2 edges but 1"),
    ("3 1\n0 1 zero\n", "non-integer token"),
    ("3 1\n0 1\n", "must be 'u v c'"),
    ("3 1\n0 0 0\n", "loop"),
    ("2 1\n0 5 0\n", "out of range"),
    ("3 2\n0 1 0\n0 1 1\n", "duplicate"),
    ("1000000000 0\n", "vertex count must be in 0..65536"),
])
def test_parse_rejects_malformed_input(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_graph_file(text)


# ----------------------------------------------------------- witnesses


def test_witness_line_round_trip():
    g = d_star(4)
    for w in enumerate_rainbow_cycles(g, 4):
        again = parse_witness_line(witness_line(w))
        assert again == w
        assert verify_witness(g, again)


def test_parse_witness_line_rejects_garbage():
    with pytest.raises(ValueError):
        parse_witness_line("triangle 0 1 2 : 0 1 2")
    with pytest.raises(ValueError):
        parse_witness_line("path")


# ----------------------------------------------------------- dot / json


def test_to_dot_structure():
    g = build(3, [(0, 1, 0), (1, 2, 1)])
    dot = to_dot(g)
    assert dot.startswith("graph G {")
    assert dot.rstrip().endswith("}")
    assert '0 -- 1 [label="0"];' in dot
    assert dot.count(";") == g.n + g.m


def test_graph_to_dict_fields():
    d = graph_to_dict(d_star(3))
    assert d["n"] == 4 and len(d["edges"]) == 6
    assert all(len(e) == 3 for e in d["edges"])


def test_report_to_dict_witness_rendering():
    degree_report = check_degree_lemma(d_star(3), 3)
    doc = report_to_dict(degree_report)
    assert doc["witnesses"] == ["vertex 0", "vertex 1", "vertex 2", "vertex 3"]
    assert doc["holds"] is True and doc["skipped"] is False
    json.dumps(doc)  # schema must be JSON-serializable
    edge_doc = report_to_dict(check_k_color_edge_bound(d_star(3), 3))
    assert edge_doc["witnesses"] == ["edge 0 1", "edge 0 2", "edge 0 3",
                                     "edge 1 2", "edge 1 3", "edge 2 3"]
    # a failing construction report carries its offending cycles; a
    # RainbowWitness is a tuple too, so it must not render as an edge
    offenders = tuple(enumerate_rainbow_cycles(d_star(3), 3)[:2])
    failed = report_to_dict(CheckReport("construction_suite", False, 4, 4,
                                        offenders))
    assert failed["witnesses"] == ["cycle 0 1 2 : 0 2 1",
                                   "cycle 0 1 3 : 0 1 2"]
    assert failed["holds"] is False
    json.dumps(failed)


def test_report_to_dict_serializes_exact_fractions():
    g = d_star(5)
    trimmed = build(16, [e for e in g.edges if e[:2] != (0, 1)])
    r = check_avg_degree_on_v_prime(trimmed)
    assert r.observed_max == Fraction(39, 8)
    doc = report_to_dict(r)
    assert doc["observed_max"] == "39/8"
    whole = report_to_dict(check_avg_degree_on_v_prime(g))
    assert whole["observed_max"] == 5


# ------------------------------------------------------------- CLI: data


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_construct_emits_parseable_construction(capsys):
    code, out, _ = _run(capsys, "construct", "--ell", "3")
    assert code == 0
    assert parse_graph_file(out) == d_star(3)


def test_cli_construct_with_total_vertex_count(capsys):
    code, out, _ = _run(capsys, "construct", "--ell", "3", "--n", "9")
    assert code == 0
    assert parse_graph_file(out) == lower_bound_graph(9, 3)


def test_cli_construct_cube_json(capsys):
    code, out, _ = _run(capsys, "construct", "--cube", "2", "--json")
    assert code == 0
    assert json.loads(out) == graph_to_dict(hypercube(2))


def test_cli_construct_writes_files(tmp_path, capsys):
    cel = tmp_path / "g.cel"
    dot = tmp_path / "g.dot"
    code, out, _ = _run(capsys, "construct", "--ell", "4",
                        "--out", str(cel), "--dot", str(dot))
    assert code == 0 and out == ""
    assert parse_graph_file(cel.read_text()) == d_star(4)
    assert dot.read_text().startswith("graph G {")


def test_cli_construct_rejects_n_with_cube(capsys):
    code, _, err = _run(capsys, "construct", "--cube", "3", "--n", "9")
    assert code == 2 and "--n" in err


def test_cli_count_cycles_table(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(D3_TEXT))
    code, out, _ = _run(capsys, "count", "--input", "-", "--cycles", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "total 4"
    rows = [line.split() for line in lines[1:]]
    assert len(rows) == 6
    assert all(row[3] == "2" for row in rows)  # uniform per-edge count


def test_cli_count_witnesses_verify(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(D3_TEXT))
    code, out, _ = _run(capsys, "count", "--input", "-", "--cycles", "3",
                        "--witnesses")
    assert code == 0
    g = d_star(3)
    witness_lines = out.splitlines()[7:]
    assert len(witness_lines) == 4
    for line in witness_lines:
        assert verify_witness(g, parse_witness_line(line))


def test_cli_count_paths_json(tmp_path, capsys):
    path = tmp_path / "g.cel"
    path.write_text(D3_TEXT)
    code, out, _ = _run(capsys, "count", "--input", str(path),
                        "--paths", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"kind": "paths", "ell": 2, "total": 12}


def test_cli_check_construction(capsys):
    code, out, _ = _run(capsys, "check", "--construction", "4")
    assert code == 0
    assert "construction_suite PASS" in out


def test_cli_check_file_with_p5_suite(tmp_path, capsys):
    path = tmp_path / "g.cel"
    path.write_text(write_graph_file(d_star(5)))
    code, out, _ = _run(capsys, "check", "--input", str(path), "--suite", "p5")
    assert code == 0
    passes = [line for line in out.splitlines() if " PASS " in line]
    assert len(passes) == 6


def test_cli_check_suite_rejects_flags_it_would_ignore(tmp_path, capsys):
    path = tmp_path / "g.cel"
    path.write_text(write_graph_file(d_star(4)))
    for argv, word in ((("--input", str(path), "--ell", "4"), "--ell 4"),
                       (("--construction", "5"), "--input"),
                       (("--random", "2", "--ell", "5"), "--input")):
        code, out, err = _run(capsys, "check", *argv, "--suite", "p5")
        assert code == 2 and out == "" and word in err and "--suite" in err
    code, _, _ = _run(capsys, "check", "--input", str(path), "--suite", "p5",
                      "--ell", "5")
    assert code != 2


def test_cli_check_rejects_flags_its_source_would_ignore(tmp_path, capsys):
    path = tmp_path / "g.cel"
    path.write_text(write_graph_file(d_star(3)))
    for argv, flag in ((("--construction", "4", "--seed", "9", "--max-n", "5",
                         "--ell", "7"), "--seed"),
                       (("--construction", "4", "--seed", "0"), "--seed"),
                       (("--construction", "4", "--max-n", "10"), "--max-n"),
                       (("--construction", "4", "--ell", "4"), "--ell"),
                       (("--input", str(path), "--ell", "3", "--seed", "4",
                         "--max-n", "6"), "--seed"),
                       (("--input", str(path), "--ell", "3", "--max-n", "6"),
                        "--max-n")):
        code, out, err = _run(capsys, "check", *argv)
        assert code == 2 and out == "" and flag in err
    code, out, _ = _run(capsys, "check", "--random", "2", "--ell", "3",
                        "--seed", "0", "--max-n", "10")
    assert code == 0 and out == _run(capsys, "check", "--random", "2",
                                     "--ell", "3")[1]


def test_cli_check_random_prints_seed_and_is_deterministic(capsys):
    code, out1, _ = _run(capsys, "check", "--random", "5", "--ell", "3",
                         "--seed", "7")
    assert code == 0
    assert out1.splitlines()[0] == "seed 7"
    code, out2, _ = _run(capsys, "check", "--random", "5", "--ell", "3",
                         "--seed", "7")
    assert code == 0 and out1 == out2


def test_cli_check_exit_1_on_failing_report(monkeypatch, capsys):
    bad = CheckReport("stub", holds=False, bound=1, observed_max=2)
    monkeypatch.setattr("rainbowgraphs.cli.checkers.run_suite",
                        lambda g, ell: [bad])
    code, out, _ = _run(capsys, "check", "--random", "1", "--ell", "3")
    assert code == 1
    assert "FAIL" in out


def test_cli_check_usage_errors(tmp_path, capsys):
    path = tmp_path / "g.cel"
    path.write_text(D3_TEXT)
    code, _, err = _run(capsys, "check", "--input", str(path))
    assert code == 2 and "--ell" in err
    code, _, err = _run(capsys, "check", "--random", "3")
    assert code == 2 and "--ell" in err


def test_cli_check_random_rejects_bad_count_and_max_n(monkeypatch, capsys):
    # rejected before any graph is built
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")
    monkeypatch.setattr("rainbowgraphs.cli.random_proper_graph", refuse)
    for argv, word in ((("--random", "-1"), "COUNT"),
                       (("--random", "0"), "COUNT"),
                       (("--random", "2", "--max-n", "2"), "--max-n"),
                       (("--random", "2", "--max-n", "1001"), "--max-n")):
        code, out, err = _run(capsys, "check", *argv, "--ell", "3")
        assert code == 2 and word in err and out == ""


def test_cli_search_text_output(capsys):
    code, out, err = _run(capsys, "search", "--n", "4", "--ell", "3",
                          "--objective", "edges")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value 6"
    assert lines[1] == "exhaustive true"
    assert "witness:" in lines
    block = out.split("witness:\n", 1)[1]
    w = parse_graph_file(block)
    assert w.n == 4 and w.m == 6
    assert "search took" in err and "nodes" in err


def test_cli_search_json_with_optima(capsys):
    code, out, _ = _run(capsys, "search", "--n", "4", "--ell", "3",
                        "--objective", "cycles", "--all-optima", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 4 and doc["exhaustive"] is True
    assert len(doc["optima"]) == 1
    assert "wall_time_s" not in doc["stats"]


def test_cli_search_probe_colors(capsys):
    code, out, _ = _run(capsys, "search", "--n", "4", "--ell", "3",
                        "--probe-colors")
    assert code == 0
    assert out.splitlines() == ["exhaustive true", "0 0", "1 0", "2 0", "3 4"]


def test_cli_search_probe_colors_rejects_flags_it_would_ignore(capsys):
    for extra in (("--objective", "edges"), ("--colors", "2"),
                  ("--all-optima",), ("--time-budget", "0")):
        code, out, err = _run(capsys, "search", "--n", "4", "--ell", "3",
                              "--probe-colors", *extra)
        assert code == 2 and out == "" and extra[0] in err


def test_cli_search_requires_objective_or_probe(capsys):
    code, _, err = _run(capsys, "search", "--n", "4", "--ell", "3")
    assert code == 2 and "--objective" in err


def test_cli_export_formats(tmp_path, capsys):
    path = tmp_path / "g.cel"
    path.write_text(D3_TEXT)
    code, out, _ = _run(capsys, "export", "--input", str(path),
                        "--format", "cel")
    assert code == 0 and out == D3_TEXT
    code, out, _ = _run(capsys, "export", "--input", str(path),
                        "--format", "dot")
    assert code == 0 and out.startswith("graph G {")
    code, out, _ = _run(capsys, "export", "--input", str(path),
                        "--format", "json")
    assert code == 0 and json.loads(out) == graph_to_dict(d_star(3))


# ----------------------------------------------------- CLI: golden bytes

# Exit code and SHA-256 of stdout for CLI runs on fixed inputs. They pin
# every byte of CLI text and JSON across refactors of the rainbow walk
# kernel and the checker table. Only the search runs' node counters may
# move, when the search tries candidates differently (and with them how
# far a run truncated by --node-budget gets: its levels and evaluated
# counts), and a re-pin must show that nothing else changed. "{d5}" and
# "{d4}" stand for files holding d_star(5) and d_star(4).
GOLDEN_CLI = [
    (("check", "--construction", "5", "--json"), 0,
     "a032427149e2a4fddc88d0dee765867d2382268864504448c0c00e5c27670755"),
    (("check", "--input", "{d5}", "--suite", "p5", "--json"), 0,
     "32671a8979147717542550cd81a849f4e8d80b46d8d5c1f8d0de8de4808bbda4"),
    (("check", "--input", "{d5}", "--suite", "p5"), 0,
     "cc4b2e4b3bdc61d546e107748468d837f85cb1b8b98c7c50885a6b152ad78f77"),
    (("check", "--random", "40", "--ell", "4", "--seed", "7", "--json"), 0,
     "4d99d345f9744c8304440ef4e963537db69eb8057ea15c5f5b95c9a983046fec"),
    (("count", "--input", "{d4}", "--cycles", "4", "--witnesses", "--json"), 0,
     "c865949fc2ff412b75f7ded120753c3e826f656ae727844b6016126d3e8f00aa"),
    (("count", "--input", "{d4}", "--paths", "3", "--witnesses"), 0,
     "d8bb52c8c3d76acf8a70423fc714967549dc2d3103343045daba0196068a1e07"),
    (("search", "--n", "5", "--ell", "4", "--objective", "cycles",
      "--all-optima", "--json"), 0,
     "ec7871008b62a940684ac6f9cc246054aed842e2a8bdb49d083a748f413813c0"),
    (("search", "--n", "6", "--ell", "4", "--objective", "edges"), 0,
     "8987b6313ca1a416aedb3eaf56714dc9fe339cb4169ecca470a956491ab45926"),
    (("search", "--n", "5", "--ell", "4", "--objective", "cycles",
      "--node-budget", "20"), 0,
     "1e55e81b8342ad119e211016596655b9e5814762b632673d5cd8dd39da1381d2"),
    (("search", "--n", "4", "--ell", "3", "--probe-colors"), 0,
     "c4ac3f988fa46c72db7056f0833b75b1bdfaca6a708546e33ef0332a6bec9de8"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN_CLI,
                         ids=["_".join(t.strip("-{}") for t in a)
                              for a, _, _ in GOLDEN_CLI])
def test_cli_output_bytes_are_frozen(argv, code, digest, tmp_path, capsys):
    files = {}
    for name, ell in (("d5", 5), ("d4", 4)):
        path = tmp_path / f"{name}.cel"
        path.write_text(write_graph_file(d_star(ell)))
        files[name] = str(path)
    got_code, out, _ = _run(capsys, *(a.format(**files) for a in argv))
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ------------------------------------------ CLI: against library calls

# Every verb, on seeded inputs, in text and --json modes: stdout must be
# exactly what the library calls it stands for produce through graph_io.


def _json_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _lines(lines):
    return "".join(f"{line}\n" for line in lines)


def _seeded_graph_files(tmp_path):
    rng = Random(223)
    graphs = [random_proper_graph(rng, dense=i % 2 == 1) for i in range(4)]
    graphs += [d_star(4), lower_bound_graph(9, 3)]
    for i, g in enumerate(graphs):
        path = tmp_path / f"g{i}.cel"
        path.write_text(write_graph_file(g))
        yield g, str(path)


def test_cli_construct_and_export_match_library(tmp_path, capsys):
    for argv, g in ((("--ell", "4"), d_star(4)),
                    (("--ell", "3", "--n", "11"), lower_bound_graph(11, 3)),
                    (("--cube", "3"), hypercube(3))):
        assert _run(capsys, "construct", *argv)[:2] == \
            (0, write_graph_file(g))
        assert _run(capsys, "construct", *argv, "--json")[:2] == \
            (0, _json_text(graph_to_dict(g)))
    for g, path in _seeded_graph_files(tmp_path):
        for fmt, text in (("cel", write_graph_file(g)), ("dot", to_dot(g)),
                          ("json", _json_text(graph_to_dict(g)))):
            assert _run(capsys, "export", "--input", path,
                        "--format", fmt)[:2] == (0, text)


def test_cli_count_matches_library(tmp_path, capsys):
    for g, path in _seeded_graph_files(tmp_path):
        for kind, ell in (("cycles", 3), ("cycles", 4), ("paths", 1),
                          ("paths", 3)):
            if kind == "cycles":
                ws = enumerate_rainbow_cycles(g, ell)
                per_edge = count_per_edge(g, ell)
                table = [[u, v, c, per_edge[(u, v)]] for u, v, c in g.edges]
            else:
                ws = enumerate_rainbow_paths(g, ell)
                table = None
            argv = ("count", "--input", path, f"--{kind}", str(ell))
            text = [f"total {len(ws)}"]
            doc = {"kind": kind, "ell": ell, "total": len(ws)}
            if table is not None:
                text += [" ".join(map(str, row)) for row in table]
                doc["per_edge"] = table
            assert _run(capsys, *argv)[:2] == (0, _lines(text))
            assert _run(capsys, *argv, "--json")[:2] == (0, _json_text(doc))
            lines = [witness_line(w) for w in ws]
            doc["witnesses"] = lines
            assert _run(capsys, *argv, "--witnesses")[:2] == \
                (0, _lines(text + lines))
            assert _run(capsys, *argv, "--witnesses", "--json")[:2] == \
                (0, _json_text(doc))


def _check_expected(reports, seed=None):
    """(exit code, text, JSON) of `check` for (prefix, report) pairs."""
    text = [] if seed is None else [f"seed {seed}"]
    for pfx, r in reports:
        if r.skipped:
            text.append(f"{pfx}{r.check_name} SKIP reason: {r.reason}")
        else:
            verdict = "PASS" if r.holds else "FAIL"
            text.append(f"{pfx}{r.check_name} {verdict} "
                        f"bound={r.bound} observed={r.observed_max}")
    doc = {"reports": [dict(report_to_dict(r), context=pfx.strip())
                       for pfx, r in reports]}
    if seed is not None:
        doc["seed"] = seed
    code = 1 if any(not r.holds for _, r in reports) else 0
    return code, _lines(text), _json_text(doc)


def test_cli_check_matches_library(tmp_path, capsys):
    cases = []
    for g, path in _seeded_graph_files(tmp_path):
        for ell in (3, 4):
            cases.append((("--input", path, "--ell", str(ell)),
                          [("", r) for r in run_suite(g, ell)], None))
        cases.append((("--input", path, "--suite", "p5"),
                      [("", r) for r in run_suite(g, 5)], None))
    for ell in (3, 4, 5):
        cases.append((("--construction", str(ell)),
                      [("", verify_construction(ell))], None))
    rng = Random(9)
    reports = []
    for i in range(6):
        g = random_proper_graph(rng, n=rng.randint(3, 7))
        reports += [(f"graph {i} ", r) for r in run_suite(g, 4)]
    cases.append((("--random", "6", "--ell", "4", "--seed", "9",
                   "--max-n", "7"), reports, 9))
    for argv, reports, seed in cases:
        code, text, doc = _check_expected(reports, seed)
        assert _run(capsys, "check", *argv)[:2] == (code, text)
        assert _run(capsys, "check", *argv, "--json")[:2] == (code, doc)


def test_cli_search_matches_library(capsys):
    for n, ell, objective in ((4, 3, "edges"), (5, 3, "cycles"),
                              (5, 4, "edges"), (4, 4, "cycles")):
        full = "max_edges" if objective == "edges" else "max_rainbow_cycles"
        for extra, kwargs in (((), {}),
                              (("--all-optima",), {"all_optima": True}),
                              (("--colors", "2"), {"colors": 2}),
                              (("--node-budget", "20"), {"node_budget": 20})):
            res = solve(SearchProblem(n, ell, full, **kwargs))
            text = [f"value {res.value}",
                    f"exhaustive {str(res.exhaustive).lower()}"]
            text += [f"{key} {res.stats[key]}" for key in (
                "nodes", "levels", "evaluated", "pruned_infeasible",
                "pruned_duplicate", "pruned_bound")]
            out = _lines(text)
            if res.witness is not None:
                out += "witness:\n" + write_graph_file(res.witness)
            if res.optima is not None:
                out += f"optima {len(res.optima)}\n"
            argv = ("search", "--n", str(n), "--ell", str(ell),
                    "--objective", objective, *extra)
            assert _run(capsys, *argv)[:2] == (0, out)
            assert _run(capsys, *argv, "--json")[:2] == \
                (0, _json_text(result_to_dict(res)))
    for n, ell, budget in ((4, 3, 10 ** 9), (5, 3, 10 ** 9), (5, 4, 30)):
        table = probe_color_count(n, ell, node_budget=budget)
        text = [f"exhaustive {str(table.exhaustive).lower()}"]
        text += [f"{k} {v}" for k, v in table.rows]
        doc = {"rows": [list(r) for r in table.rows],
               "exhaustive": table.exhaustive}
        argv = ("search", "--n", str(n), "--ell", str(ell), "--probe-colors",
                "--node-budget", str(budget))
        assert _run(capsys, *argv)[:2] == (0, _lines(text))
        assert _run(capsys, *argv, "--json")[:2] == (0, _json_text(doc))


# ---------------------------------------------------- CLI: exit contract


def test_cli_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cel"
    path.write_text("2 5\n0 1 0\n")
    code, out, err = _run(capsys, "count", "--input", str(path),
                          "--cycles", "3")
    assert code == 2 and out == ""
    assert "error:" in err and "declares 5 edges" in err


def test_cli_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, "count", "--input", "/no/such/file",
                        "--cycles", "3")
    assert code == 2 and "error:" in err


def test_cli_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert run(["frobnicate"]) == 2
    assert run(["search", "--n", "4"]) == 2
    capsys.readouterr()


def test_cli_count_rejects_lengths_below_the_minimum(tmp_path, capsys):
    # --cycles 0 is a length to reject, not an absent flag
    path = tmp_path / "g.cel"
    path.write_text(D3_TEXT)
    for kind, ell, least in (("--cycles", "0", 3), ("--cycles", "2", 3),
                             ("--paths", "0", 1)):
        code, out, err = _run(capsys, "count", "--input", str(path), kind, ell)
        assert code == 2 and out == ""
        assert f"error: length parameter must be >= {least}, got {ell}" in err


def test_cli_invalid_search_parameters_exit_2(tmp_path, capsys):
    code, _, err = _run(capsys, "search", "--n", "40", "--ell", "3",
                        "--objective", "edges")
    assert code == 2 and "error:" in err
    path = tmp_path / "g.cel"
    path.write_text(D3_TEXT)
    for t in ("0", "-5"):
        for argv in (("search", "--n", "4", "--ell", "3", "--objective",
                      "edges", "--threads", t),
                     ("search", "--n", "4", "--ell", "3", "--probe-colors",
                      "--threads", t),
                     ("count", "--input", str(path), "--cycles", "3",
                      "--threads", t),
                     ("count", "--input", str(path), "--paths", "2",
                      "--threads", t)):
            code, out, err = _run(capsys, *argv)
            assert code == 2 and out == ""
            assert "threads must be >= 1" in err
    for t in ("nan", "-1"):
        code, out, err = _run(capsys, "search", "--n", "4", "--ell", "3",
                              "--objective", "edges", "--time-budget", t)
        assert code == 2 and out == ""
        assert "time budget must be >= 0" in err


def test_cli_vertex_ceiling_exits_2(tmp_path, capsys):
    # rejected before any per-vertex table is allocated
    path = tmp_path / "huge.cel"
    path.write_text("1000000000 0\n")
    code, out, err = _run(capsys, "count", "--input", str(path),
                          "--cycles", "3")
    assert code == 2 and out == "" and "vertex count" in err
    code, out, err = _run(capsys, "construct", "--ell", "3",
                          "--n", "1000000000")
    assert code == 2 and out == "" and "exceed the limit" in err


def test_cli_module_runs_as_a_script(capsys):
    # python -m rainbowgraphs.cli must run main(), not import and exit 0
    src = str(Path(rainbowgraphs.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])

    def module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "rainbowgraphs.cli", *argv], env=env,
            capture_output=True, text=True, timeout=60)

    done = module("construct", "--cube", "17")
    assert done.returncode == 2 and done.stdout == ""
    done = module("construct", "--ell", "4", "--n", "10")
    code, out, _ = _run(capsys, "construct", "--ell", "4", "--n", "10")
    assert done.returncode == code == 0
    assert done.stdout == out != ""


def test_cli_broken_pipe_escapes_run(monkeypatch):
    # a vanished consumer is not an input error; run() re-raises so
    # main() can exit quietly instead of printing "error:"
    def boom(args):
        raise BrokenPipeError
    monkeypatch.setitem(
        __import__("rainbowgraphs.cli", fromlist=["_COMMANDS"])._COMMANDS,
        "construct", boom)
    with pytest.raises(BrokenPipeError):
        run(["construct", "--ell", "3"])


# ------------------------------------------------------- CLI: threading


def test_cli_explicit_threads_flag(tmp_path, capsys):
    path = tmp_path / "g.cel"
    path.write_text(D3_TEXT)
    outs = set()
    for t in ("1", "2", "8"):
        code, out, _ = _run(capsys, "count", "--input", str(path),
                            "--cycles", "3", "--threads", t)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
