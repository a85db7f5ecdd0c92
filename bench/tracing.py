"""Call spans around rainbowgraphs functions, for the traced run only.

install() replaces each traced function by a wrapper under every name a
rainbowgraphs module holds it by (the names each consuming module calls,
such as rainbowgraphs.search.canonical_form), and uninstall() puts the
originals back. A span records its name, start, end and parent; spans
stay in memory until collect() reduces them to calls and self time per
metric prefix. Self time is a span's duration minus the part of it that
its child spans cover.

Wrappers are thread-safe. A span opened in a worker thread with no open
span of its own takes the innermost open span of the main thread as its
parent, so the work a thread pool does on behalf of solve() or
enumerate_rainbow_cycles() is not counted as their self time.
"""

from __future__ import annotations

import threading
from array import array
from collections import defaultdict
from time import perf_counter
from types import ModuleType

#: (defining module, function, metric prefix). Several functions may share
#: a prefix, which then measures the whole module.
TRACED = (
    ("colored_graph", "build", "colored_graph.build"),
    ("colored_graph", "canonical_form", "colored_graph.canonical_form"),
    ("rainbow", "has_rainbow_path", "rainbow.has_rainbow_path"),
    ("rainbow", "enumerate_rainbow_cycles", "rainbow.enumerate_rainbow_cycles"),
    ("rainbow", "enumerate_rainbow_paths", "rainbow.enumerate_rainbow_paths"),
    ("rainbow", "rainbow_paths_between", "rainbow.rainbow_paths_between"),
    ("rainbow", "count_per_edge", "rainbow.count_per_edge"),
    ("rainbow", "vertices_on_rainbow_cycles",
     "rainbow.vertices_on_rainbow_cycles"),
    ("checkers", "run_suite", "checkers.run_suite"),
    ("search", "solve", "search"),
    ("cli", "run", "cli.run"),
    ("graph_io", "parse_graph_file", "graph_io.parse_graph_file"),
    ("constructions", "hypercube", "constructions"),
    ("constructions", "d_star", "constructions"),
    ("constructions", "lower_bound_graph", "constructions"),
    ("constructions", "disjoint_union", "constructions"),
    ("corpus", "random_proper_graph", "corpus"),
    ("corpus", "rainbow_free_instances", "corpus"),
)

#: Counts taken from return values, where the work happens.
RESULT_TALLIES = {
    "rainbow.has_rainbow_path": lambda out: {"true": 1 if out else 0},
    "rainbow.enumerate_rainbow_cycles": lambda out: {"witnesses": len(out)},
    "checkers.run_suite": lambda out: {
        "reports": len(out), "skipped": sum(r.skipped for r in out)},
}


class _Buffer:
    """The spans of one thread; only that thread appends to it."""

    def __init__(self, slot: int, is_main: bool):
        self.slot = slot << 32      # span id = slot | index in this buffer
        self.is_main = is_main
        self.stack: list[int] = []  # ids of the open spans, innermost last
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.tallies: dict = defaultdict(lambda: defaultdict(int))


class Tracer:
    """In-memory span recorder; records only while `on` is true."""

    def __init__(self):
        self.on = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._prefixes: list[str] = []
        self._patches: list = []
        self._main_top = -1
        self._buffers: list[_Buffer] = []

    def install(self, lib) -> None:
        """Wrap every TRACED function under all the names it is held by."""
        modules = [lib, *(m for m in vars(lib).values()
                          if isinstance(m, ModuleType)
                          and m.__name__.startswith(lib.__name__ + "."))]
        for module_name, func_name, prefix in TRACED:
            orig = getattr(getattr(lib, module_name), func_name)
            wrapper = self._wrap(prefix, orig)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is orig]:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def _wrap(self, prefix: str, orig):
        if prefix not in self._prefixes:
            self._prefixes.append(prefix)
        index = self._prefixes.index(prefix)
        tally = RESULT_TALLIES.get(prefix)

        def wrapper(*args, **kwargs):
            if not self.on:
                return orig(*args, **kwargs)
            buf, local_index = self._open(index)
            try:
                out = orig(*args, **kwargs)
            finally:
                self._close(buf, local_index)
            if tally is not None:
                for key, value in tally(out).items():
                    buf.tallies[prefix][key] += value
            return out

        return wrapper

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers),
                              threading.current_thread() is threading.main_thread())
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _open(self, index: int):
        buf = self._buffer()
        if buf.stack:
            parent = buf.stack[-1]
        else:
            parent = -1 if buf.is_main else self._main_top
        local_index = len(buf.start)
        buf.parent.append(parent)
        buf.name.append(index)
        buf.end.append(0.0)
        buf.start.append(perf_counter())
        sid = buf.slot | local_index
        buf.stack.append(sid)
        if buf.is_main:
            self._main_top = sid
        return buf, local_index

    def _close(self, buf: _Buffer, local_index: int) -> None:
        buf.end[local_index] = perf_counter()
        buf.stack.pop()
        if buf.is_main:
            self._main_top = buf.stack[-1] if buf.stack else -1

    def collect(self) -> dict:
        """Per prefix: {"calls", "self_s", and any result tallies}; then
        forget the spans."""
        out = {prefix: {"calls": 0, "self_s": 0.0} for prefix in self._prefixes}
        spans = {}  # id -> (start, end, name index)
        children = defaultdict(list)
        for buf in self._buffers:
            for i, p in enumerate(buf.parent):
                sid = buf.slot | i
                spans[sid] = (buf.start[i], buf.end[i], buf.name[i])
                if p >= 0:
                    children[p].append(sid)
            for prefix, counts in buf.tallies.items():
                for key, value in counts.items():
                    out[prefix][key] = out[prefix].get(key, 0) + value
        for sid, (start, end, index) in spans.items():
            kids = sorted(spans[k][:2] for k in children.get(sid, ()))
            agg = out[self._prefixes[index]]
            agg["calls"] += 1
            agg["self_s"] += end - start - _union_length(kids, start, end)
        self._buffers = []
        self._local = threading.local()
        return out


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals (sorted by start), clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in intervals:
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total
