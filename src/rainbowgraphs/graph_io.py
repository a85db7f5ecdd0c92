"""Stable text formats: colored edge lists, witness lines, DOT, reports.

The interchange unit for all CLI commands is the colored edge-list format:
first line ``n m``, then m lines ``u v c`` (whitespace-separated decimal).
``#`` starts a comment that runs to end of line; blank lines are ignored.
Files are UTF-8, line-feed terminated. Writing always emits the
normalized edge order, so parse followed by write is byte-stable.
"""

from __future__ import annotations

from fractions import Fraction

from .checkers import CheckReport
from .colored_graph import EdgeColoredGraph, build
from .rainbow import RainbowWitness
from .search import ExtremalResult


def write_graph_file(g: EdgeColoredGraph) -> str:
    """Serialize a graph to colored edge-list text."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v} {c}" for u, v, c in g.edges)
    return "\n".join(lines) + "\n"


def parse_graph_file(text: str) -> EdgeColoredGraph:
    """Parse colored edge-list text; raises ValueError on malformed input,
    header/count mismatch, or any edge the builder rejects."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer token in {raw!r}")
        rows.append((lineno, values))
    if not rows:
        raise ValueError("empty input: missing 'n m' header")
    (hline, header), body = rows[0], rows[1:]
    if len(header) != 2:
        raise ValueError(f"line {hline}: header must be 'n m'")
    n, m = header
    if m != len(body):
        raise ValueError(f"header declares {m} edges but {len(body)} edge lines found")
    edges = []
    for lineno, values in body:
        if len(values) != 3:
            raise ValueError(f"line {lineno}: edge line must be 'u v c'")
        edges.append(tuple(values))
    return build(n, edges)


def witness_line(w: RainbowWitness) -> str:
    """One-line witness form: `kind v0 v1 ... : c0 c1 ...`."""
    vs = " ".join(map(str, w.vertices))
    cs = " ".join(map(str, w.colors))
    return f"{w.kind} {vs} : {cs}"


def parse_witness_line(line: str) -> RainbowWitness:
    head, _, tail = line.partition(":")
    parts = head.split()
    if len(parts) < 2 or parts[0] not in ("path", "cycle"):
        raise ValueError(f"malformed witness line: {line!r}")
    vertices = tuple(int(p) for p in parts[1:])
    colors = tuple(int(p) for p in tail.split())
    return RainbowWitness(parts[0], vertices, colors)


def to_dot(g: EdgeColoredGraph) -> str:
    """DOT rendering with color ids as edge labels (write-only sugar)."""
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f'  {u} -- {v} [label="{c}"];' for u, v, c in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _number(x):
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    return x


def report_to_dict(r: CheckReport) -> dict:
    """Schema-stable mapping of a CheckReport for machine consumption."""
    witnesses = []
    for w in r.witnesses:
        if isinstance(w, RainbowWitness):
            witnesses.append(witness_line(w))
        elif isinstance(w, tuple):
            witnesses.append("edge " + " ".join(map(str, w)))
        else:
            witnesses.append(f"vertex {w}")
    return {
        "check_name": r.check_name,
        "holds": r.holds,
        "bound": _number(r.bound),
        "observed_max": _number(r.observed_max),
        "witnesses": witnesses,
        "skipped": r.skipped,
        "reason": r.reason,
    }


def graph_to_dict(g: EdgeColoredGraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def result_to_dict(res: ExtremalResult) -> dict:
    """ExtremalResult as a plain document. Timing is left out, so output
    bytes are reproducible across worker counts."""
    stats = {k: v for k, v in res.stats.items() if k != "wall_time_s"}
    doc = {
        "value": res.value,
        "exhaustive": res.exhaustive,
        "stats": stats,
        "witness": graph_to_dict(res.witness) if res.witness else None,
    }
    if res.optima is not None:
        doc["optima"] = [graph_to_dict(g) for g in res.optima]
    return doc
