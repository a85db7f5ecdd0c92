#!/usr/bin/env python3
"""Benchmark of rainbowgraphs: one closed-loop workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it imports rainbowgraphs from the src/ directory of
the checkout it sits in and exits with code 2, printing no result, when
that directory is missing. Workloads are defined in workloads.py.

Set-up (import plus seeded input construction) is repeated SETUP_REPEATS
times and reported as its median. Then whole rounds of operations run,
one operation at a time, until --seconds have passed. Every operation's
output is checked outside its timed span; an operation whose check fails
or that raises counts as failed.

With --trace 0 the metrics are the end-to-end ones, measured with no
tracing installed; times are scaled to a reference machine speed (see
SpeedSampler). With --trace 1 every round runs twice, untraced and
then traced with the wrappers of tracing.py installed; the per-layer
metrics come from the traced rounds, divided by their number, and
trace.overhead_ratio compares the two.

The last line of stdout is the result, one JSON object with the keys
correct, attempted, failed and metrics. The line before it is a JSON
object with the details: environment, per-kind latencies, search counts,
witness digests and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import traceback
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
#: op_p99_ms is given only with at least this many operations, so that at
#: least ten samples lie beyond it.
P99_MIN_OPS = 1000
#: Layers that only set-up calls; reported per set-up, not per round.
SETUP_LAYERS = ("constructions", "corpus")
#: How often the speed sampler interrupts the run, and the CPU seconds one
#: sample takes on the reference machine (2 CPUs, Python 3.11.7).
SAMPLE_PERIOD_S = 0.05
SAMPLE_REF_S = 0.00045
_Q4 = tuple(tuple(v ^ 1 << b for b in range(4)) for v in range(16))


def _walks(v: int, seen: set, depth: int) -> int:
    if depth == 0:
        return 1
    total = 0
    for u in _Q4[v]:
        if u not in seen:
            seen.add(u)
            total += _walks(u, seen, depth - 1)
            seen.discard(u)
    return total


class SpeedSampler:
    """Samples the machine's speed while operations run.

    On a shared host the speed of a core drifts by up to half within
    seconds, with whatever runs beside it. A timer signal interrupts the
    process every SAMPLE_PERIOD_S, and its handler times a fixed
    pure-Python loop that runs no library code. The loop is timed in CPU
    time of the main thread, so waiting for the interpreter lock does not
    count. A latency has the handlers' own time taken out. It is then
    scaled by SAMPLE_REF_S over the mean of the samples taken during the
    operation, or the nearest ones for an operation shorter than the
    period. Unscaled times stay in the detail line.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.secs: list[float] = []
        self.spent = 0.0  # wall time spent in the handler so far

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        w0, c0 = perf_counter(), thread_time()
        for v in range(4):
            _walks(v, {v}, 5)
        c1, w1 = thread_time(), perf_counter()
        self.ends.append(w1)
        self.secs.append(c1 - c0)
        self.spent += w1 - w0

    def scaled(self, start: float, wall: float, spent: float) -> float:
        """Latency of an operation that ran from `start` for `wall`
        seconds, of which `spent` in the handler, at reference speed."""
        if not self.secs:
            return wall - spent
        margin = 1.2 * SAMPLE_PERIOD_S
        lo = bisect_left(self.ends, start - margin)
        hi = bisect_right(self.ends, start + wall + margin)
        window = self.secs[lo:hi] or [self.secs[min(lo, len(self.secs) - 1)]]
        return (wall - spent) * SAMPLE_REF_S / statistics.fmean(window)


@dataclass
class Sample:
    """One operation as run: what, how long, and whether its output held."""

    kind: str
    start: float
    wall_s: float
    sampling_s: float  # of wall_s, spent in the speed sampler
    cpu_s: float
    ok: bool
    observed: dict | None = None


@dataclass
class Log:
    rounds: list = field(default_factory=list)   # one list of Samples each
    failures: list = field(default_factory=list)

    @property
    def samples(self) -> list[Sample]:
        return [s for rnd in self.rounds for s in rnd]


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_round(workload, lib, inputs, r: int, log: Log, tracer=None,
              sampler: SpeedSampler | None = None) -> None:
    """Run round r of the workload: each operation's arguments are made
    fresh, the call alone is timed (and traced), then its output checked."""
    samples = []
    for op in workload.round_ops(lib, inputs, r):
        args = op.prepare()
        out = None
        if tracer is not None:
            tracer.on = True
        s0 = sampler.spent if sampler else 0.0
        c0, t0 = _cpu(), perf_counter()
        try:
            out = op.call(*args)
            raised = None
        except Exception:  # counted as a failed operation, run goes on
            raised = traceback.format_exc(limit=3)
        finally:
            wall, cpu = perf_counter() - t0, _cpu() - c0
            sampling = sampler.spent - s0 if sampler else 0.0
            if tracer is not None:
                tracer.on = False
        ok, observed = False, None
        if raised is None:
            try:
                ok = bool(op.check(out))
                observed = op.observe(out) if op.observe else None
            except Exception:
                raised = traceback.format_exc(limit=3)
        if not ok:
            log.failures.append(f"round {r} {op.kind}: "
                                + (raised or "output check failed"))
        samples.append(Sample(op.kind, t0, wall, sampling, cpu, ok, observed))
    log.rounds.append(samples)


def run_for(workload, lib, inputs, seconds: float, log: Log,
            sampler: SpeedSampler) -> None:
    """Whole rounds until `seconds` have passed, at least one."""
    t0 = perf_counter()
    r = 0
    while r == 0 or perf_counter() - t0 < seconds:
        run_round(workload, lib, inputs, r, log, sampler=sampler)
        r += 1


def run_paired(workload, lib, inputs, seconds: float, plain: Log,
               traced: Log, tracer) -> None:
    """Like run_for, but every round runs twice: untraced, then again on
    the same inputs with the tracing wrappers installed."""
    t0 = perf_counter()
    r = 0
    while r == 0 or perf_counter() - t0 < seconds:
        run_round(workload, lib, inputs, r, plain)
        tracer.install(lib)
        try:
            run_round(workload, lib, inputs, r, traced, tracer)
        finally:
            tracer.uninstall()
        r += 1


def by_kind(samples, times) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for s, t in zip(samples, times):
        out.setdefault(s.kind, []).append(t)
    return out


def round_wall_s(log: Log, times) -> float:
    """Time of one round: for each operation kind, its median latency
    times how often it occurs in a round, summed. Medians per kind keep a
    slow outlier of one relabeling or one corpus graph from moving it."""
    return sum(statistics.median(ts) * len(ts) / len(log.rounds)
               for ts in by_kind(log.samples, times).values())


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest
    waited-for child, if any (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def kind_p50(log: Log, times) -> float:
    """Median over all operations, each taken at the median latency of its
    kind. Where kinds take very different times, the plain median falls
    between two kinds and jumps with their extremes; this one does not."""
    medians = {k: statistics.median(ts)
               for k, ts in by_kind(log.samples, times).items()}
    return statistics.median(medians[s.kind] for s in log.samples)


def end_to_end(log: Log, setups: list[float], times: list[float]) -> dict:
    """From set-up times and operation latencies at reference speed."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (round_wall_s(log, times), "s"),
        "op_p50_ms": (kind_p50(log, times) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _search_totals(log: Log) -> dict:
    """Search counters per round, summed over grid points, and per grid
    point; solve latency medians per grid point."""
    per_round = max(len(log.rounds), 1)
    out = {}
    totals = dict.fromkeys(workloads.SEARCH_COUNTERS, 0)
    for name in workloads.GRID:
        runs = [s for s in log.samples if s.kind == f"solve:{name}"]
        nodes = 0
        for s in runs:
            if s.observed:
                nodes += s.observed["nodes"]
                for key in totals:
                    totals[key] += s.observed[key]
        out[f"search.nodes.{name}"] = (nodes / per_round, "count")
        out[f"search.solve_s.{name}"] = (
            statistics.median(s.wall_s for s in runs) if runs else 0.0, "s")
    for key, value in totals.items():
        out[f"search.{key}"] = (value / per_round, "count")
    nodes = totals["nodes"]
    kept = nodes - totals["pruned_infeasible"] - totals["pruned_duplicate"]
    out["search.kept_ratio"] = (kept / nodes if nodes else 0.0, "ratio")
    solves = [s for s in log.samples if s.kind.startswith("solve:")]
    wall = sum(s.wall_s for s in solves)
    out["search.cpu_util"] = (
        sum(s.cpu_s for s in solves) / wall if wall else 0.0, "ratio")
    return out


def per_layer(setup_spans: dict, spans: dict, plain: Log, traced: Log) -> dict:
    """Per-layer metrics: span counts and self time per traced round
    (constructions and corpus: per set-up), search counters and solve
    times from the untraced rounds, and the tracing overhead."""
    per_round = len(traced.rounds)
    out = {}
    for prefix in dict.fromkeys(p for _, _, p in tracing.TRACED):
        agg, scale = spans[prefix], per_round
        if prefix in SETUP_LAYERS:
            agg, scale = setup_spans[prefix], 1
        out[f"{prefix}.calls"] = (agg["calls"] / scale, "count")
        out[f"{prefix}.self_s"] = (agg["self_s"] / scale, "s")
    hrp = spans["rainbow.has_rainbow_path"]
    out["rainbow.has_rainbow_path.true_ratio"] = (
        hrp.get("true", 0) / hrp["calls"] if hrp["calls"] else 0.0, "ratio")
    erc = spans["rainbow.enumerate_rainbow_cycles"]
    out["rainbow.enumerate_rainbow_cycles.witnesses"] = (
        erc.get("witnesses", 0) / per_round, "count")
    suite = spans["checkers.run_suite"]
    out["checkers.skipped_ratio"] = (
        suite.get("skipped", 0) / suite["reports"]
        if suite.get("reports") else 0.0, "ratio")
    out.update(_search_totals(plain))
    plain_s = sum(s.wall_s for s in plain.samples)
    traced_s = sum(s.wall_s for s in traced.samples)
    out["trace.overhead_ratio"] = (traced_s / plain_s - 1, "ratio")
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git, or
    "unknown" when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def kinds_detail(log: Log) -> dict:
    """Unscaled latency medians per operation kind."""
    kinds = by_kind(log.samples, [s.wall_s for s in log.samples])
    return {k: {"ops": len(ts), "median_ms": statistics.median(ts) * 1000}
            for k, ts in sorted(kinds.items())}


def observed_detail(log: Log) -> dict:
    """Node counts and witness digests per grid point, first round seen."""
    out = {}
    for s in log.samples:
        if s.observed and s.kind not in out:
            out[s.kind] = s.observed
    return out


def _check_origin(lib) -> None:
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: rainbowgraphs imported from {lib.__file__}")


def _untraced(workload, seed: int, seconds: float, workdir: str):
    """SETUP_REPEATS set-ups, then rounds, all under the speed sampler."""
    setups = []
    with SpeedSampler() as sampler:
        for _ in range(SETUP_REPEATS):
            s0, t0 = sampler.spent, perf_counter()
            lib = workloads.load_library()
            inputs = workload.make_inputs(lib, seed, workdir)
            setups.append(sampler.scaled(t0, perf_counter() - t0,
                                         sampler.spent - s0))
        _check_origin(lib)
        log = Log()
        run_for(workload, lib, inputs, seconds, log, sampler)
    times = [sampler.scaled(s.start, s.wall_s, s.sampling_s)
             for s in log.samples]
    detail = {
        "setup_s_samples": setups,
        "op_p99_ms": (statistics.quantiles(times, n=100)[98] * 1000
                      if len(times) >= P99_MIN_OPS else None),
        "speed_samples": len(sampler.secs),
        "speed_sample_ms_median": 1000 * statistics.median(sampler.secs),
    }
    return log, end_to_end(log, setups, times), detail


def _traced(workload, seed: int, seconds: float, workdir: str):
    """One traced set-up, then rounds run untraced and traced in pairs."""
    tracer = tracing.Tracer()
    lib = workloads.load_library()
    tracer.install(lib)
    tracer.on = True
    try:
        inputs = workload.make_inputs(lib, seed, workdir)
    finally:
        tracer.on = False
        tracer.uninstall()
    _check_origin(lib)
    setup_spans = tracer.collect()
    plain, traced = Log(), Log()
    run_paired(workload, lib, inputs, seconds, plain, traced, tracer)
    return plain, traced, per_layer(setup_spans, tracer.collect(), plain, traced)


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result, detail) as printed."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[name]
    load_before = os.getloadavg()
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as workdir:
        if trace:
            log, traced, metrics = _traced(workload, seed, seconds, workdir)
            extra = {}
        else:
            log, metrics, extra = _untraced(workload, seed, seconds, workdir)
            traced = Log()
    samples = log.samples + traced.samples
    failures = log.failures + traced.failures
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": sum(not s.ok for s in samples),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    walls = [s.wall_s for s in log.samples]
    detail = {
        "environment": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "commit": git_commit(),
            "seed": seed,
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "workloads": [name],
        },
        "seconds": seconds,
        "trace": trace,
        "rounds": len(log.rounds),
        "wall_s_unscaled": round_wall_s(log, walls),
        "ops": len(walls),
        "failed_ratio": result["failed"] / result["attempted"],
        "kinds": kinds_detail(log),
        "search": observed_detail(log),
        "failures": failures[:10],
        **extra,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rainbowgraphs" / "__init__.py").is_file():
        print(f"error: no rainbowgraphs sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    result, detail = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
