"""Benchmark launcher for mildheat.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the program is imported from
``src/`` and the suite workload reads ``configs/``.  The launcher pins the
BLAS/OpenMP thread pools to one thread, starts one fresh worker process for
the workload (single-threaded, closed loop, one client), forwards its report
and prints one JSON object as the last line of standard output.  Without
tracing it adds ``setup_s``, the median time from starting a worker process
to the worker being ready (interpreter start, ``import mildheat``, building
the inputs) over the measured worker and SETUP_PROBES extra starts.
Workloads and metrics are described in README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("similarity-grid", "bounds-scalar", "fd-flow", "suite")
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    # every start compiles the sources afresh, so setup_s never depends on
    # whether an earlier run left bytecode behind
    "PYTHONDONTWRITEBYTECODE": "1",
}


def start_worker(argv: list[str], timeout: float) -> tuple[float, list[str]]:
    """Run one worker to completion; return its setup time and output lines."""
    env = {**os.environ, **PINNED}
    t0 = time.time()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.splitlines()
    if not lines or not lines[0].startswith("ready "):
        raise RuntimeError("worker never became ready")
    return float(lines[0].split()[1]) - t0, lines[1:]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    begin = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        setup, lines = start_worker(common, RUN_LIMIT_S)
        setups = [setup]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                remaining = RUN_LIMIT_S - (time.monotonic() - begin)
                setups.append(start_worker(common + ["--setup-only"], remaining)[0])
        result = json.loads(lines[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for line in lines[:-1]:
        print(line)
    if not args.trace:
        setup_s = statistics.median(setups)
        print(f"# setup_s over {len(setups)} process starts: "
              + ", ".join(f"{s:.4f}" for s in setups) + " s")
        print(f"setup_s = {setup_s!r} s")
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
