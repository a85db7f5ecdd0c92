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
                                    check_degree_lemma)
from rainbowgraphs.cli import run
from rainbowgraphs.colored_graph import build
from rainbowgraphs.constructions import d_star, hypercube, lower_bound_graph
from rainbowgraphs.corpus import random_proper_graph
from rainbowgraphs.graph_io import (graph_to_dict, parse_graph_file,
                                    parse_witness_line, report_to_dict,
                                    to_dot, witness_line, write_graph_file)
from rainbowgraphs.rainbow import enumerate_rainbow_cycles, verify_witness

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

# Exit code and SHA-256 of stdout for CLI runs on fixed inputs. Never
# regenerate these: they pin every byte of CLI text and JSON across
# refactors of the rainbow walk kernel and the checker table. "{d5}" and
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


def test_cli_threads_env_default(monkeypatch, tmp_path, capsys):
    path = tmp_path / "g.cel"
    path.write_text(write_graph_file(d_star(4)))
    base_code, base_out, _ = _run(capsys, "count", "--input", str(path),
                                  "--cycles", "4")
    monkeypatch.setenv("RAINBOWGRAPHS_THREADS", "3")
    code, out, _ = _run(capsys, "count", "--input", str(path), "--cycles", "4")
    assert code == base_code == 0 and out == base_out
    monkeypatch.setenv("RAINBOWGRAPHS_THREADS", "not-a-number")
    code, out, _ = _run(capsys, "count", "--input", str(path), "--cycles", "4")
    assert code == 0 and out == base_out


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
