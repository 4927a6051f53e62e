"""Benchmark of cluster stability selection: one workload per process.

    python3 bench/run.py --workload run-csv --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The workload is set up SETUP_ROUNDS times (fresh inputs
and one untimed warm-up operation each), then operations on fresh inputs
run back to back for ``--seconds``, each timed alone and checked.  The last
line of standard output is one JSON object with the counts of operations
attempted and failed and the metrics: end-to-end with ``--trace 0``,
per layer with ``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_ROUNDS = 3
REF_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Counts:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True


def timed(workload, inp, counts: Counts, tracer=None):
    """Run one operation; return (wall s, cpu s) or None when it failed."""
    counts.attempted += 1
    gc.collect()
    if tracer is not None:
        tracer.install()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        out = workload.run(inp)
    except Exception:
        counts.failed += 1
        log(traceback.format_exc())
        return None
    finally:
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    try:
        workload.check(inp, out)
    except AssertionError as exc:
        counts.failed += 1
        counts.correct = False
        log(f"output check failed: {exc}")
        return None
    return wall, cpu


def set_up(workload, seed: int) -> float:
    """Median over SETUP_ROUNDS of making inputs plus one warm-up operation."""
    rounds = []
    for index in range(SETUP_ROUNDS):
        start = time.perf_counter()
        inp = workload.make_input(seed, index)
        out = workload.run(inp)
        rounds.append(time.perf_counter() - start)
        workload.check(inp, out)
        workload.cleanup(inp)
    return statistics.median(rounds)


def measure(workload, seed: int, seconds: float, counts: Counts):
    walls, cpus = [], []
    index = SETUP_ROUNDS
    deadline = time.perf_counter() + seconds
    while True:
        inp = workload.make_input(seed, index)
        result = timed(workload, inp, counts)
        workload.cleanup(inp)
        index += 1
        if result is not None:
            walls.append(result[0])
            cpus.append(result[1])
        if time.perf_counter() >= deadline:
            return walls, cpus


def measure_traced(workload, seed: int, seconds: float, counts: Counts):
    """Each input runs once untraced and once traced, in alternating order.

    Spans of a traced operation count only when both runs of its input
    succeeded, so the layer sums and the operation times cover the same
    operations.  The run ends after an even number of inputs, so each
    order weighs the same in the mean overhead: the second run of an input
    is often faster, by more than the tracing costs.
    """
    from spans import Tracer

    total = Tracer()
    traced, plain = [], []
    index = SETUP_ROUNDS
    deadline = time.perf_counter() + seconds
    while True:
        inp = workload.make_input(seed, index)
        tracer = Tracer()
        order = (None, tracer) if index % 2 == 0 else (tracer, None)
        pair = {}
        for which in order:
            pair[which is not None] = timed(workload, inp, counts, which)
        workload.cleanup(inp)
        index += 1
        if pair[True] is not None and pair[False] is not None:
            total.add(tracer)
            traced.append(pair[True][0])
            plain.append(pair[False][0])
        if time.perf_counter() >= deadline and (index - SETUP_ROUNDS) % 2 == 0:
            return total, traced, plain


def reference_threads(seed: int) -> dict:
    """run_base_selections on the run-csv plan at threads=1 and threads=2."""
    from cssel import core, lasso, simgen, subsampling

    data = simgen.gen_sparse_instance(seed, 0).data
    lam = lasso.cross_validate_lambda(data, seed=seed)
    plan = subsampling.draw_complementary_pairs(data.n, 50, seed)
    times = {1: [], 2: []}
    for _ in range(REF_REPEATS):
        for threads in times:
            start = time.perf_counter()
            core.run_base_selections(data, plan, lambdas=(lam,), threads=threads)
            times[threads].append(time.perf_counter() - start)
    return {t: statistics.median(v) for t, v in times.items()}


def layer_metrics(tracer, traced, plain, ref) -> dict:
    ops = len(traced)

    def per_op(value):
        return value / ops

    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    knots = counts["knots"]
    op_s = per_op(sum(traced))
    plain_op_s = per_op(sum(plain))
    untraced = op_s - per_op(tracer.covered_s)
    accounted = sum(s.values()) / ops + untraced
    log(
        f"accounting: layer self times {sum(s.values()) / ops:.6f} s + untraced "
        f"{untraced:.6f} s = {accounted:.6f} s; traced op {op_s:.6f} s"
    )
    metrics = {
        "lasso.path_calls": (per_op(calls["lasso.path"]), "count"),
        "lasso.path_s": (per_op(s["lasso.path"]), "s"),
        "lasso.knots": (per_op(knots), "count"),
        "lasso.us_per_knot": (1e6 * s["lasso.path"] / knots if knots else 0.0, "us"),
        "lasso.cv_calls": (per_op(calls["lasso.cv"]), "count"),
        "lasso.cv_self_s": (per_op(s["lasso.cv"]), "s"),
        "lasso.cd_calls": (per_op(calls["lasso.cd"]), "count"),
        "lasso.cd_s": (per_op(s["lasso.cd"]), "s"),
        "subsampling.plan_s": (per_op(s["subsampling.plan"]), "s"),
        "subsampling.restrict_calls": (per_op(calls["subsampling.restrict"]), "count"),
        "subsampling.restrict_s": (per_op(s["subsampling.restrict"]), "s"),
        "core.halves": (per_op(counts["halves"]), "count"),
        "core.base_self_s": (per_op(s["core.base"]), "s"),
        "core.aggregate_s": (per_op(s["core.aggregate"]), "s"),
        "clustering.s": (per_op(s["clustering"]), "s"),
        "dataio.read_s": (per_op(s["dataio.read"]), "s"),
        "dataio.write_s": (per_op(s["dataio.write"]), "s"),
        "simgen.rows": (per_op(counts["rows"]), "count"),
        "simgen.s": (per_op(s["simgen"]), "s"),
        "baselines.s": (per_op(s["baselines"]), "s"),
        "evaluation.refits": (per_op(calls["evaluation.refit"]), "count"),
        "evaluation.refit_s": (per_op(s["evaluation.refit"]), "s"),
        "evaluation.stability_s": (per_op(s["evaluation.stability"]), "s"),
        "op.untraced_s": (untraced, "s"),
        "trace.op_s": (op_s, "s"),
        "trace.plain_op_s": (plain_op_s, "s"),
        "trace.overhead_s": (op_s - plain_op_s, "s"),
        "ref.base_threads1_s": (ref[1], "s"),
        "ref.base_threads2_s": (ref[2], "s"),
    }
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cssel" / "__init__.py").is_file():
        log(f"bench: no package source under {ROOT / 'src'}")
        return 2
    if args.seconds <= 0:
        log("bench: --seconds must be positive")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    from workloads import WORKLOADS  # imports numpy, scipy and the package

    import_s = time.perf_counter() - start
    if args.workload not in WORKLOADS:
        log(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2

    work = ROOT / "bench" / "_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work)
        setup_s = import_s + set_up(workload, args.seed)
        counts = Counts()
        if args.trace:
            tracer, traced, plain = measure_traced(
                workload, args.seed, args.seconds, counts
            )
            if not traced:
                log("bench: every traced operation failed")
                return 1
            ref = reference_threads(args.seed)
            metrics = layer_metrics(tracer, traced, plain, ref)
        else:
            walls, cpus = measure(workload, args.seed, args.seconds, counts)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            log(f"op wall s: {[round(w, 4) for w in walls]}")
            log(f"op cpu s: {[round(c, 4) for c in cpus]}")
            if not walls:
                log("bench: every operation failed")
                return 1
            metrics = {
                "op_s": (statistics.median(walls), "s"),
                "cpu_s": (statistics.median(cpus), "s"),
                "peak_rss_mb": (peak_mb, "MB"),
                "setup_s": (setup_s, "s"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {counts.attempted}, failed = {counts.failed}")
    print(
        json.dumps(
            {
                "correct": counts.correct,
                "attempted": counts.attempted,
                "failed": counts.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
