"""One workload in one process: set up, run rounds, print a JSON line.

``run.py`` starts this script; it is not meant to be run by hand.  With
``--setup-only`` it times package import plus input building and stops.
Otherwise it runs rounds for ``--seconds`` and prints the end-to-end figures
(``--trace 0``) or the per-layer figures of a traced run (``--trace 1``).
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# name -> unit, for ``--trace 0``.  BENCHMARK.json's end_to_end list matches this.
E2E_UNITS = {"wall_s": "s", "op_p50_s": "s", "base_steps": "count", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", type=Path, help="where a traced run writes its spans")
    return p.parse_args(argv)


def end_to_end(rounds, setup_s: float) -> dict:
    return {
        "wall_s": statistics.median(r.wall for r in rounds),
        "op_p50_s": statistics.median(w for r in rounds for w in r.op_walls),
        "base_steps": sum(o.steps for o in rounds[0].outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    dynamite = importlib.import_module("dynamite")
    import workloads  # after the package, whose import is what set-up time measures

    workload = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    traced = None
    if args.trace:
        import layers

        traced = layers.TracedRun(lambda: workloads.build(args.workload, args.seed))
    try:
        rounds = workloads.measure(workload, args.seconds, traced.round if traced else None)
    except workloads.NondeterminismError as exc:
        print(f"DETERMINISM GATE FAILED: {exc}", file=sys.stderr)
        return 3

    op_walls = [w for r in rounds if not r.traced for w in r.op_walls]
    p90 = statistics.quantiles(op_walls, n=10)[-1] if len(op_walls) > 1 else op_walls[0]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "ops_per_round": len(workload.ops),
        "op_p90_s": p90,
        "ops_beyond_p90": sum(w > p90 for w in op_walls),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "package": getattr(dynamite, "__version__", "unknown"),
    }
    if traced:
        values, units = traced.metrics(rounds), layers.LAYER_UNITS
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans_out, "w") as fh:
                json.dump({"info": info, **traced.to_json()}, fh)
    else:
        values, units = end_to_end(rounds, setup_s), E2E_UNITS
    outcomes = [o for r in rounds for o in r.outcomes]
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
