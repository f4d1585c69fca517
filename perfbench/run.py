"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cycle16-dynamite --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in its own child process
(``child.py``) with BLAS threads pinned to 1; set-up is timed in that child and
in a few more fresh processes, one after another, and reported as the median.
The last line of standard output is the JSON result; the lines before it
print every metric by name and unit.  See ``perfbench/README.md``.
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
CHILD = HERE / "child.py"
SPANS_DIR = HERE / "out"

SETUP_PROBES = 4  # fresh processes that only set up; the workload's own child adds one more sample
BUDGET_S = 170  # the whole run, every child included, ends within this
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in PINNED_THREADS})
    return env


def run_child(extra, deadline: float) -> dict:
    """Run ``child.py`` to completion and return its last stdout line, parsed."""
    cmd = [sys.executable, str(CHILD), *extra]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the child
        raise ChildFailed(f"child timed out after {timeout:.0f}s: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "dynamite" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        run_child([*common, "--seconds", "0", "--setup-only"], deadline)  # writes bytecode, warms caches
        setups = [run_child([*common, "--seconds", "0", "--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        body = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            body += ["--spans-out", str(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json")]
        result = run_child(body, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    metrics = result["metrics"]
    if "setup_s" in metrics:
        metrics["setup_s"]["value"] = statistics.median(setups)

    info = result["info"]
    print(f"workload {info['workload']}  seed {info['seed']}  trace {args.trace}  "
          f"rounds {info['rounds']} x {info['ops_per_round']} ops")
    print(f"nproc {info['nproc']}  python {info['python']}  numpy {info['numpy']}  package {info['package']}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{'op_p90_s (not gated)':34s} {info['op_p90_s']:.6g} s  ({info['ops_beyond_p90']} untraced ops beyond it)")
    print(f"{'fail_frac':34s} {result['failed'] / result['attempted']:.6g}  "
          f"({result['failed']} of {result['attempted']} ops)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
