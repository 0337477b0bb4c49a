"""One benchmark process for one workload; started by run.py, not by hand.

Prints ``ready <unix time>`` once mildheat is imported and the inputs are
built, then computes the untimed references, runs whole passes over the
workload for the given seconds, and prints report lines followed by one JSON
object on the last line.  With ``--trace 1`` it runs untraced passes for the
first half of the time and traced passes for the second, and reports the
per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_package():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import mildheat

    if not os.path.abspath(mildheat.__file__).startswith(src + os.sep):
        raise ImportError(f"mildheat resolved outside {src}: {mildheat.__file__}")
    return mildheat


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    threads = {k: os.environ.get(k, "") for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": threads,
        "seed": seed,
    }


class Runner:
    def __init__(self, workload) -> None:
        self.wl = workload
        self.passes = 0
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[tuple[int, str, str]] = []

    def one_pass(self, data, tracer=None, timed=True) -> tuple[float, dict]:
        """Run and check every operation once; return the pass wall time and
        the per-layer failure counts of this pass.  An untimed pass keeps
        no latencies."""
        k = self.passes
        self.passes += 1
        self.wl.begin_pass(k)
        failed_by_layer: dict[str, int] = {}
        start = time.perf_counter()
        for i, op in enumerate(self.wl.ops):
            if tracer is not None:
                tracer.op_id = k * len(self.wl.ops) + i
            t0 = time.perf_counter()
            try:
                result = op.call(data)
                reason = None
            except Exception as exc:  # an operation that raises is a failed operation
                result, reason = None, f"{type(exc).__name__}: {exc}"
            if timed:
                self.latencies.append(time.perf_counter() - t0)
            if reason is None:
                try:
                    reason = op.check(result)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
            self.attempted += 1
            if reason is not None:
                self.failures.append((k, op.name, reason))
                failed_by_layer[op.layer] = failed_by_layer.get(op.layer, 0) + 1
        wall = time.perf_counter() - start
        self.wl.end_pass(k)
        return wall, failed_by_layer


def run_untraced(runner, seconds: float, min_passes: int) -> list[float]:
    walls = []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        walls.append(runner.one_pass(runner.wl.data)[0])
    return walls


def end_to_end(runner, walls) -> tuple[dict, list[str]]:
    wl = runner.wl
    lat = runner.latencies
    m = len(wl.ops)
    # one latency per operation of the batch, averaged over the passes: the
    # host drifts between a fast and a slow state, and the median of all
    # pooled samples flips between the two where a per-operation mean moves
    # smoothly with the share of slow time
    op_means = [statistics.fmean(lat[i::m]) for i in range(m)]
    n_min = wl.min_passes * m
    # highest whole percentile that leaves >= 10 samples beyond it at the
    # guaranteed minimum sample count, so it names the same rank every run
    pct = int(100 * (1 - 10 / n_min))
    tail = statistics.quantiles(lat, n=100, method="inclusive")[pct - 1]
    beyond = sum(1 for v in lat if v > tail)
    q = statistics.quantiles(walls, n=4)
    failed = len(runner.failures)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(op_means) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ops_frac": ((runner.attempted - failed) / runner.attempted, "ratio"),
    }
    notes = [
        f"wall_s over {len(walls)} passes: median {q[1]:.6f} s, quartiles "
        f"[{q[0]:.6f}, {q[2]:.6f}] s",
        "pass walls (s): " + " ".join(f"{w:.4f}" for w in walls),
        f"op_p50_ms is the median over {m} operations of each one's mean latency; "
        f"the median of all {len(lat)} latencies is {statistics.median(lat) * 1e3:.6f} ms",
        f"op_tail_ms is p{pct} of {len(lat)} operation latencies "
        f"({beyond} beyond it; {m} operations per pass)",
        f"failed_ops_frac = {failed}/{runner.attempted} = {failed / runner.attempted:.6g}",
    ]
    return metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    package = _import_package()
    import workloads

    wl = workloads.BY_NAME[args.workload](args.seed, ROOT)
    print(f"ready {time.time():.6f}", flush=True)
    if args.setup_only:
        return 0
    try:
        wl.prepare()
        runner = Runner(wl)
        # warm-up pass: first-call costs (allocator growth, lazy imports)
        # stay out of the timings; it is checked and counted like any pass
        runner.one_pass(wl.data, timed=False)
        drift: list[str] = []
        if args.trace:
            metrics, notes, drift = traced_run(package, runner, args)
        else:
            walls = run_untraced(runner, args.seconds, wl.min_passes)
            metrics, notes = end_to_end(runner, walls)
    finally:
        wl.close()

    machine = machine_record(args.seed)
    print(f"# machine: {json.dumps(machine, sort_keys=True)}")
    print(f"# workload {wl.name}: {runner.passes} passes, {runner.attempted} operations")
    for line in notes:
        print(f"# {line}")
    for k, name, reason in runner.failures[:20]:
        print(f"# FAILED pass {k}: {name}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not runner.failures and not drift,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(package, runner, args):
    import layers
    from spans import Tracer

    wl = runner.wl
    untraced = run_untraced(runner, args.seconds / 2.0, 1)
    tracer = Tracer()
    data = {k: tracer.traced_datum(v) for k, v in wl.data.items()}
    tracer.install(package)
    snapshots, walls = [], []
    try:
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds / 2.0:
            tracer.new_pass()
            wall, failed = runner.one_pass(data, tracer)
            walls.append(wall)
            snapshots.append(layers.pass_values(tracer, failed))
    finally:
        tracer.uninstall()
    overhead = statistics.median(walls) / statistics.median(untraced) - 1.0
    metrics, drift = layers.combine(snapshots, overhead)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{wl.name}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "machine": machine_record(args.seed),
            "workload": wl.name,
            "ops": [op.name for op in wl.ops],
            "span_fields": ["name", "start", "end", "parent", "op_id"],
            "spans": tracer.spans,
        }, fh)
    notes = [
        f"trace: {len(untraced)} untraced and {len(walls)} traced passes, "
        f"{len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}",
        "no layer has a waiting-time metric: single-threaded runs have no queues",
    ] + [f"count drift between traced passes: {d}" for d in drift]
    return metrics, notes, drift


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        sys.exit(2)
