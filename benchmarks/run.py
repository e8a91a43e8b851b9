"""linksn benchmark: one workload, one process, one operation at a time.

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 25 \
        --trace 0

Run from the root of a checkout.  Operations go through
``linksn.cli.main(argv, out=StringIO())`` in a closed loop with one
client and no threads.  The workload's fixed corpus is run in passes
until ``--seconds`` is used up; every output is checked after its pass,
outside the timed region.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` half the time runs untraced and
half traced, and the metrics are the per-layer ones.  Lines before the
last one are a readable report with sample counts.  Spans are written to
``.bench_work/<workload>-seed<seed>/trace.jsonl``.
"""

import argparse
import bisect
import gc
import importlib
import io
import json
import random
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("cli", "diagram", "lee", "linalg", "calculus", "movie", "verify")
SETUP_REPEATS = 21
CALIBRATION_S = 0.010        # nominal time of one calibration loop
CALIBRATION_EVERY_S = 0.5    # sampling interval between operations
P90_MIN_OPS = 100   # at least ten samples beyond the 90th percentile


def fresh_import():
    """Import linksn and all its modules anew, as a new process would."""
    for name in [m for m in sys.modules
                 if m == "linksn" or m.startswith("linksn.")]:
        del sys.modules[name]
    pkg = importlib.import_module("linksn")
    for mod in MODULES:
        importlib.import_module(f"linksn.{mod}")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"linksn was imported from {pkg.__file__}, "
                         f"not from {SRC}")
    return pkg


class Calibration:
    """Host speed, sampled between operations with a fixed interpreter
    loop that does not touch linksn.

    The host's speed drifts by tens of percent over seconds to minutes,
    and the program's times follow it.  Each measured interval is scaled
    by CALIBRATION_S over the mean loop time sampled just before and just
    after it, so times read as seconds on a host where the loop takes
    CALIBRATION_S.  Drift then cancels, and a change in the program does
    not, since the loop does not run its code."""

    def __init__(self):
        self.times = []     # when each sample ended
        self.loops = []     # the sample: median loop time

    def sample(self, every=CALIBRATION_EVERY_S):
        """Time the loop, unless it was timed less than ``every`` ago."""
        if self.times and perf_counter() - self.times[-1] < every:
            return
        reps = []
        for _ in range(3):
            t0 = perf_counter()
            total = 0
            for i in range(100_000):
                total += i * i % 7
            reps.append(perf_counter() - t0)
        self.loops.append(statistics.median(reps))
        self.times.append(perf_counter())

    def scaled(self, start, end):
        """Scaled length of [start, end]; needs samples on both sides."""
        i = bisect.bisect_right(self.times, start) - 1
        j = bisect.bisect_left(self.times, end)
        return (end - start) * CALIBRATION_S * 2 / (self.loops[i]
                                                    + self.loops[j])


class Phase:
    """Timed passes over the corpus and the outcome of every operation.
    ``passes`` and ``latencies`` are scaled seconds; ``raw_*`` the same
    as measured."""

    def __init__(self):
        self.passes, self.raw_passes = [], []
        self.latencies, self.raw_latencies = [], []
        self.attempted = 0
        self.failed = 0
        self.errors = []


def run_phase(ops, linksn, budget, tracer=None, roots=None):
    """Passes over ``ops`` while another pass still fits in ``budget``
    seconds; at least one.  A pass's time is the sum of its operations'
    times: calibration and checks between them are not counted."""
    main = linksn.cli.main
    phase, cal = Phase(), Calibration()
    began = perf_counter()
    while True:
        results = []
        for op in ops:
            cal.sample()
            out = io.StringIO()
            if tracer:
                tracer.enter("op", merge=False)
                roots[tracer.stack[-1][0]] = op
            t0 = perf_counter()
            try:
                rc, exc = main(list(op.argv), out=out), None
            except (Exception, SystemExit) as err:  # one failed operation
                rc, exc = None, err
            t1 = perf_counter()
            if tracer:
                tracer.exit()
            results.append((op, rc, exc, out.getvalue(), t0, t1))
        cal.sample(every=0)
        raw = [t1 - t0 for *_, t0, t1 in results]
        scaled = [cal.scaled(t0, t1) for *_, t0, t1 in results]
        phase.raw_passes.append(sum(raw))
        phase.passes.append(sum(scaled))
        phase.raw_latencies += raw
        phase.latencies += scaled
        for op, rc, exc, text, _, _ in results:
            phase.attempted += 1
            problem = f"raised {exc!r}" if exc is not None else None
            if problem is None:
                try:
                    op.check(rc, text)
                except Exception as err:  # a wrong or malformed answer
                    problem = str(err) or repr(err)
            if problem:
                phase.failed += 1
                phase.errors.append(f"{op.label}: {problem}")
        elapsed = perf_counter() - began
        if elapsed + statistics.median(phase.raw_passes) > budget:
            return phase


def setup(workload, seed, workdir, size, repeats):
    """Import plus input generation, ``repeats`` times; scaled seconds.
    Each repeat starts from a collected heap, with the calibration loop
    timed just before it.  The input files are written once, untimed:
    on a 2-core virtual machine with a shared disk, writing certify's 210
    files took 0.02 s, or 0.2 s while the disk was busy, with no change
    in the program."""
    cal, spans = Calibration(), []
    for _ in range(repeats):
        gc.collect()
        cal.sample(every=0)
        t0 = perf_counter()
        linksn = fresh_import()
        ops = workloads.WORKLOADS[workload](
            linksn, random.Random(f"{workload}:{seed}"), workdir, size)
        spans.append((t0, perf_counter()))
    cal.sample(every=0)
    for op in ops:
        for path, text in op.files.items():
            path.write_text(text)
    return linksn, ops, [cal.scaled(t0, t1) for t0, t1 in spans]


def end_to_end(phase, setup_times):
    raw_wall = statistics.median(phase.raw_passes)
    raw_p50 = statistics.median(phase.raw_latencies)
    return {
        "wall_s": (statistics.median(phase.passes), "s",
                   f"median of {len(phase.passes)} passes; raw "
                   f"{raw_wall:.4f} s"),
        "latency_p50_s": (statistics.median(phase.latencies), "s",
                          f"{len(phase.latencies)} operations; raw "
                          f"{raw_p50:.5f} s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", "ru_maxrss of this process"),
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
    }


def report_only(phase):
    """Issue metrics the result line cannot carry: a p90 needs at least
    100 samples, and the fail ratio is 0 on a correct run."""
    n = len(phase.latencies)
    p90 = (statistics.quantiles(phase.latencies, n=10)[-1], "s",
           f"{n} operations") \
        if n >= P90_MIN_OPS else (None, "s", f"not reported, {n} < "
                                            f"{P90_MIN_OPS} operations")
    return {"latency_p90_s": p90,
            "fail_ratio": (phase.failed / phase.attempted, "ratio",
                           f"{phase.failed} of {phase.attempted} operations")}


def per_layer(tracer, traced, untraced, suites):
    """Per-layer figures per traced pass.  Times are scaled like the
    end-to-end ones, by the traced passes' scaled-to-raw ratio."""
    p = len(traced.passes)
    k = sum(traced.passes) / sum(traced.raw_passes)
    s = defaultdict(float, {n: v * k for n, v in tracer.self_s.items()})
    incl = defaultdict(float, {n: v * k for n, v in tracer.incl_s.items()})
    calls, counts, maxima = tracer.calls, tracer.counts, tracer.maxima

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "linalg.reduce_s": (s["linalg.reduce"] / p, "s"),
        "linalg.reduce_calls": (calls["linalg.reduce"] / p, "count"),
        "linalg.echelons": (counts["linalg.echelons"] / p, "count"),
        "linalg.echelons_per_qgr": (ratio(counts["linalg.echelons_in_qgr"],
                                          counts["lee.qgr_calls"]), "ratio"),
        "linalg.max_coeff_bits": (maxima["linalg.max_coeff_bits"], "bits"),
        "linalg.pivots": (counts["linalg.pivots"] / p, "count"),
        "linalg.add_useful_ratio": (ratio(counts["linalg.pivots"],
                                          counts["linalg.adds"]), "ratio"),
        "linalg.rank_s": (incl["linalg.rank"] / p, "s"),
        "lee.builds": (counts["lee.builds"] / p, "count"),
        "lee.build_s": (s["lee.build"] / p, "s"),
        "lee.dim": (counts["lee.dim"] / p, "count"),
        "lee.max_dim": (maxima["lee.max_dim"], "count"),
        "lee.nnz": (counts["lee.nnz"] / p, "count"),
        "lee.boundary_cols": (counts["lee.boundary_cols"] / p, "count"),
        "lee.qgr_calls": (counts["lee.qgr_calls"] / p, "count"),
        "lee.qgr_s": (s["lee.qgr"] / p, "s"),
        "lee.qgr_per_build": (ratio(counts["lee.qgr_calls"],
                                    counts["lee.builds"]), "ratio"),
        "lee.cycle_s": (s["lee.cycle"] / p, "s"),
        "lee.check_s": (s["lee.check"] / p, "s"),
        "diagram.circles_s": (s["diagram.circles"] / p, "s"),
        "diagram.circles_calls": (calls["diagram.circles"] / p, "count"),
        "diagram.parse_s": (s["diagram.parse"] / p, "s"),
        "diagram.parse_calls": (calls["diagram.parse"] / p, "count"),
        "diagram.serialize_s": (s["diagram.serialize"] / p, "s"),
        "diagram.rewrite_s": (s["diagram.rewrite"] / p, "s"),
        "calculus.eval_calls": (counts["calculus.eval_calls"] / p, "count"),
        "calculus.eval_s": (s["calculus.eval"] / p, "s"),
        "calculus.interval_s": (s["calculus.interval"] / p, "s"),
        "calculus.refine_calls": (calls["calculus.refine"] / p, "count"),
        "calculus.refine_s": (incl["calculus.refine"] / p, "s"),
        "calculus.exact_ratio": (ratio(counts["calculus.exact"],
                                       counts["calculus.eval_calls"]),
                                 "ratio"),
        "calculus.expr_io_s": (s["calculus.expr_io"] / p, "s"),
        "movie.files": (counts["movie.files"] / p, "count"),
        "movie.load_s": (s["movie.load"] / p, "s"),
        "movie.replays": (counts["movie.replays"] / p, "count"),
        "movie.replays_per_file": (ratio(counts["movie.replays"],
                                         counts["movie.files"]), "ratio"),
        "movie.frames": (counts["movie.frames"] / p, "count"),
        "movie.validate_s": (s["movie.validate"] / p, "s"),
        "movie.order_s": (s["movie.order"] / p, "s"),
        "movie.cert_s": (s["movie.cert"] / p, "s"),
        "cli.self_s": (s["cli.main"] / p, "s"),
        "verify.checks": (counts["verify.checks"] / p, "count"),
    }
    for suite in suites:
        m[f"verify.suite_s.{suite}"] = (incl[f"verify.suite.{suite}"] / p, "s")
    m["trace_overhead_ratio"] = (statistics.median(traced.passes)
                                 / statistics.median(untraced.passes), "ratio")
    return m


def trace_lines(tracer, roots, untraced, traced):
    """Wall time of both halves, and the build and qgr times of each
    operation of the traced half that spends 0.1 s or more in the engine
    (inclusive, scaled and raw)."""
    k = sum(traced.passes) / sum(traced.raw_passes)
    lines = [f"# {name} wall_s = {statistics.median(ph.passes)} s (median "
             f"of {len(ph.passes)} passes; raw "
             f"{statistics.median(ph.raw_passes):.4f} s)"
             for name, ph in (("untraced", untraced), ("traced", traced))]
    rows = {}
    summaries = tracer.op_summaries()
    for rid, op in roots.items():
        t = summaries[rid]
        b, q, n = rows.get(op.label, (0.0, 0.0, 0))
        rows[op.label] = (b + t["lee.build"], q + t["lee.qgr"], n + 1)
    lines += [f"# op {label}: build_s={b / n * k:.3f} qgr_s={q / n * k:.3f} "
              f"(mean of {n}; raw {b / n:.3f} and {q / n:.3f})"
              for label, (b, q, n) in rows.items() if b + q >= 0.1 * n]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the smallest input of each kind")
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    repeats = 2 if args.size == "smoke" else SETUP_REPEATS
    linksn, ops, setup_times = setup(args.workload, args.seed, workdir,
                                     args.size, repeats)

    if args.trace:
        untraced = run_phase(ops, linksn, args.seconds / 2)
        tracer, roots = Tracer(), {}
        tracer.install(linksn)
        try:
            traced = run_phase(ops, linksn, args.seconds / 2, tracer, roots)
        finally:
            tracer.uninstall()
        tracer.write(workdir / "trace.jsonl", roots)
        phases = (untraced, traced)
        shown = {k: (v, u, f"per pass, {len(traced.passes)} traced passes")
                 for k, (v, u) in per_layer(
                     tracer, traced, untraced,
                     sorted(linksn.verify.PROPERTIES)).items()}
        extra = trace_lines(tracer, roots, untraced, traced)
    else:
        phase = run_phase(ops, linksn, args.seconds)
        phases = (phase,)
        shown = end_to_end(phase, setup_times)
        extra = [f"# {k} = {v} {u} ({note})" for k, (v, u, note)
                 in report_only(phase).items()]

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        for err in p.errors[:10]:
            print(f"FAILED {err}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} size={args.size}: "
          f"{len(ops)} operations per pass")
    for k, (v, u, note) in shown.items():
        print(f"# {k} = {v} {u} ({note})")
    for line in extra:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "linksn" / "__init__.py").is_file():
        print(f"error: no linksn sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
