"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload mo_k8 --seed 3 --seconds 25 --trace 0

Run from the root of a checkout.  Set-up is timed in fresh interpreters
(``worker.py --setup-only``) and in the measuring worker itself, and
``setup_s`` is their median.  The last line on stdout is the result; a copy
with the per-round details goes to ``perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paired_k20", "mcts_k20", "mo_k8", "mo_tiny")
SETUP_PROBES = 2  # extra fresh interpreters that only set up
# Time allowed beyond --seconds for the set-up probes, the measuring
# worker's own set-up and the output checks after its timed rounds.
ALLOWANCE_S = 145.0


def run_worker(args, extra, deadline: float) -> dict:
    """Start ``worker.py`` in a fresh interpreter; returns its last JSON line."""
    # One process on one core: the bundled simplex's small dense solves would
    # otherwise spread over a second BLAS thread, which contends with
    # whatever else shares the machine.
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--launched", repr(time.monotonic()), *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    for need in (ROOT / "src" / "firegrid" / "__init__.py",
                 ROOT / "scenarios" / "grid1_k20.json",
                 ROOT / "scenarios" / "grid1_k8.json",
                 ROOT / "scenarios" / "tiny_explicit.json"):
        if not need.is_file():
            print(f"perfbench: {need.relative_to(ROOT)} is missing; run from the root "
                  "of a firegrid checkout", file=sys.stderr)
            return 2

    deadline = time.monotonic() + args.seconds + ALLOWANCE_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(args, ["--setup-only"], deadline)["setup_s"])
        result = run_worker(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        result["setup_samples_s"] = setups

    out = HERE / "results"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
