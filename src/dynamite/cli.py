"""Command-line front end and experiment harness.

Subcommands:

* ``analyze-chain``    exact spectral summary plus a trace-variance sweep (JSON)
* ``estimate``         replicated adaptive/static mean estimation (JSON)
* ``count-colorings``  telescoping coloring counter on a graph file (JSON)
* ``gen-planted``      planted-partition graph generator (graph JSON + sidecar)
* ``bench-compare``    method-by-problem benchmark table (CSV)

Exit codes: 0 success, 2 configuration error, 3 guard rejection (size or
ergodicity), 4 statistical-run failure.

All outputs are pure functions of (flags, files, seed); the bench-compare
CSV's wall_clock_s column is the one deliberate exception, documented as
non-reproducible.  Relative output paths resolve against the
``DYNAMITE_OUT_DIR`` environment variable when it is set, and an output path
whose directory is missing or unwritable exits 2 before any sampling.

JSON layouts: each result record's layout is its dataclass fields, rendered
by ``records.Record.to_json`` (nested records as objects, tuples and arrays
as lists); JSON keys are sorted.

* analyze-chain: {chain, function, spectral: SpectralSummary,
  profiles: [VarianceProfile...], sandwich: [SandwichVerdict...] or null}
* estimate: {config, reports: [EstimateReport...], aggregate}; a static method's
  report is ``static_estimate``'s: termination "static", no warm-up (stationary start).
* count-colorings: CountResult, its derived ``count`` (null when infinite)
  and, under --exact, {exact, relative_error}.
* graph files: Graph, {"n": int, "edges": [[u, v], ...]} with 0-indexed vertices.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .adaptive import dynamite, mcmc_pro, static_estimate, warm_start
from .chains import ScalarFunction, indicator_function, make_cycle, make_cycle_function, make_two_state_uniform
from .coloring import Graph, brute_force_count, jvv_count
from .errors import GuardError, StatisticalFailure
from .estimators import checked_lambda
from .planted import PlantedParams, cut_set, generate
from .rng import REPLICATE, child_seed, stream
from .spectral import MATRIX_CAP, check_horizon, check_sandwich, exact_trace_variance, summarize

OUT_DIR_ENV = "DYNAMITE_OUT_DIR"

EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_STATISTICAL = 4

BENCH_COLUMNS = ["method", "problem", "batch", "steps", "mean_abs_error", "coverage", "wall_clock_s"]

CYCLE_METHODS = ("dynamite", "mcmc-pro", "static-hoeffding", "static-bernstein")
COUNT_METHODS = ("dynamite", "static-hoeffding")


class ConfigError(ValueError):
    pass


def _resolve_out(out: str | None) -> str | None:
    """``--out`` against ``DYNAMITE_OUT_DIR``; None, meaning stdout, stays None.

    A path whose directory is missing or unwritable is refused here, before
    the command samples anything.
    """
    if out is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    path = os.path.join(base, out) if base and not os.path.isabs(out) else out
    parent = os.path.dirname(path) or "."
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot write output file {path!r}: {parent!r} is not a writable directory")
    return path


def _emit(payload, path: str | None) -> None:
    """Write a dict as sorted, indented JSON (or a str as is) to a resolved path, or stdout."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path!r}: {exc.strerror or exc}") from exc


def _build_chain(args):
    if args.chain == "cycle":
        if args.n is None:
            raise ConfigError("--chain cycle needs --n")
        # every command analyses the chain densely; refuse before the n x n matrix exists
        if args.n > MATRIX_CAP:
            raise GuardError(f"dense analysis capped at {MATRIX_CAP} states, got --n {args.n}")
        return make_cycle(args.n)
    if args.chain == "two-state":
        return make_two_state_uniform()
    raise ConfigError(f"unknown chain {args.chain!r}")


def _build_function(args, kernel) -> ScalarFunction:
    if args.fn == "cycle-f":
        if args.i is None:
            raise ConfigError("--fn cycle-f needs --i")
        return make_cycle_function(kernel.n_states, args.i)
    if args.fn == "indicator":
        fields = (args.states or "1").split(",")
        if not all(s.strip().isdecimal() and int(s) < kernel.n_states for s in fields):
            raise ConfigError(f"--states must list states in 0..{kernel.n_states - 1}, got {args.states!r}")
        return indicator_function([int(s) for s in fields])
    raise ConfigError(f"unknown function {args.fn!r}")


def _lambda_for(args, summary):
    if args.lambda_bound == "oracle":
        return summary.second_eigenvalue
    try:
        value = float(args.lambda_bound)
    except ValueError as exc:
        raise ConfigError(f"--lambda must be a float or 'oracle', got {args.lambda_bound!r}") from exc
    try:
        return checked_lambda(value)
    except ValueError as exc:
        raise ConfigError(f"--lambda: {exc}") from exc


def cmd_analyze_chain(args) -> int:
    kernel = _build_chain(args)
    f = _build_function(args, kernel)
    horizons = sorted(set(args.T or [1]))
    for t in horizons:  # every cap before the O(n^3) eigensolve
        check_horizon(kernel.n_states, t)
    summary = summarize(kernel, f)
    profiles = [exact_trace_variance(kernel, f, t, summary=summary) for t in horizons]
    payload = {
        "chain": kernel.name,
        "function": f.name,
        "spectral": summary.to_json(),
        "profiles": [p.to_json() for p in profiles],
        "sandwich": [check_sandwich(kernel, f, p, summary=summary).to_json() for p in profiles]
        if kernel.is_lazy and kernel.is_reversible
        else None,
    }
    _emit(payload, args.out)
    return 0


def _stationary_pair(summary, rng):
    pi = summary.stationary
    return int(rng.choice(len(pi), p=pi)), int(rng.choice(len(pi), p=pi))


def _run_method(method, kernel, f, lam, summary, epsilon, delta, seed, rng, start=None) -> dict:
    """One seeded estimate by ``method`` (a ``CYCLE_METHODS`` entry or "warm-start") as an EstimateReport payload.

    ``rng`` draws the stationary start pair; ``start`` is the warm-start state.
    """
    if method == "warm-start":
        report = warm_start(0 if start is None else start, kernel, lam, summary.pi_min, f, epsilon, delta, seed)
        return report.to_json()
    if method in ("mcmc-pro", "dynamite"):
        fn = mcmc_pro if method == "mcmc-pro" else dynamite
        return fn(_stationary_pair(summary, rng), kernel, lam, f, epsilon, delta, seed).to_json()
    variance = summary.stationary_variance if method == "static-bernstein" else None
    start = _stationary_pair(summary, rng)[0]
    return static_estimate(start, kernel, lam, None, f, epsilon, delta, seed, variance=variance).to_json()


def cmd_estimate(args) -> int:
    if args.replicates < 1:
        raise ConfigError(f"--replicates must be at least 1, got {args.replicates}")
    if args.start is not None and args.method != "warm-start":
        raise ConfigError(f"--start applies only to --method warm-start, got --method {args.method}")
    kernel = _build_chain(args)
    f = _build_function(args, kernel)
    summary = summarize(kernel, f)
    lam = _lambda_for(args, summary)
    reports = [
        _run_method(args.method, kernel, f, lam, summary, args.epsilon, args.delta,
                    child_seed(args.seed, REPLICATE, r), stream(args.seed, REPLICATE, r), args.start)
        for r in range(args.replicates)
    ]
    true_mean = summary.mean
    errors = [abs(rep["estimate"] - true_mean) for rep in reports]
    payload = {
        "config": {
            "chain": kernel.name,
            "function": f.name,
            "method": args.method,
            "epsilon": args.epsilon,
            "delta": args.delta,
            "lambda_bound": lam,
            "seed": args.seed,
            "replicates": args.replicates,
        },
        "reports": reports,
        "aggregate": {
            "true_mean": true_mean,
            "coverage": sum(e <= args.epsilon for e in errors) / len(errors),
            "mean_abs_error": sum(errors) / len(errors),
            "mean_steps": sum(rep["total_base_steps"] for rep in reports) / len(reports),
        },
    }
    _emit(payload, args.out)
    return 0


def cmd_count_colorings(args) -> int:
    try:
        with open(args.graph) as fh:
            graph = Graph.from_json(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read graph file {args.graph!r}: {type(exc).__name__}: {exc}") from exc
    # counted before sampling, so an oversize cross-check refuses at once
    exact = brute_force_count(graph, args.k) if args.exact else None
    result = jvv_count(
        graph,
        args.k,
        args.epsilon,
        args.delta,
        estimator=args.estimator,
        seed=args.seed,
        lambda_bound=args.lambda_bound,
    )
    payload = result.to_json()
    if args.exact:
        payload["exact"] = exact
        payload["relative_error"] = (
            abs(math.exp(result.log_count) - exact) / exact if exact else None
        )
    _emit(payload, args.out)
    return 0


def cmd_gen_planted(args) -> int:
    params = PlantedParams(n=args.n, communities=args.r, within_prob=args.p, cross_mass=args.q)
    pg = generate(params, args.seed)
    _emit(pg.graph.to_json(), args.out)
    sidecar = os.path.splitext(args.out)[0] + ".communities.json"
    meta = {
        "communities": [int(c) for c in pg.communities],
        "params": {"n": args.n, "r": args.r, "p": args.p, "q": args.q, "seed": args.seed},
        "cut_sizes": [len(cut_set(pg, j)) for j in range(args.r)],
    }
    _emit(meta, sidecar)
    sys.stdout.write(json.dumps({"graph": args.out, "sidecar": sidecar}) + "\n")
    return 0


# ---------------------------------------------------------------------------
# benchmark table


def _cycle_problem(n, i, epsilon, delta):
    kernel = make_cycle(n)
    f = make_cycle_function(n, i)
    summary = summarize(kernel, f)

    def run(method, batch_seed):
        out = _run_method(method, kernel, f, summary.second_eigenvalue, summary, epsilon, delta, batch_seed,
                          stream(batch_seed, REPLICATE))
        err = abs(out["estimate"] - summary.mean)
        return out["total_base_steps"], err, err <= epsilon

    return CYCLE_METHODS, run


def _planted_problem(seed, epsilon, delta):
    params = PlantedParams(n=4, communities=2, within_prob=0.9, cross_mass=0.5)
    graph = generate(params, seed).graph
    k = graph.d_max + 2
    exact = brute_force_count(graph, k)

    def run(method, batch_seed):
        result = jvv_count(graph, k, epsilon, delta, estimator=method, seed=batch_seed)
        rel = abs(math.exp(result.log_count) - exact) / exact
        return result.total_steps, rel, rel <= 1.2 * epsilon  # additive-per-phase to relative slack

    return COUNT_METHODS, run


def default_bench_problems(epsilon, delta, seed):
    """Each problem's name and builder, called only when the problem is asked for.

    A builder returns ``(methods, run)``; ``run(method, batch_seed)`` gives a row's ``(steps, error, covered)``.
    """
    return {
        "cycle16-f1": lambda: _cycle_problem(16, 1, epsilon, delta),
        "cycle16-f8": lambda: _cycle_problem(16, 8, epsilon, delta),
        "planted4-count": lambda: _planted_problem(seed, 0.25, 0.25),
    }


def cmd_bench_compare(args) -> int:
    if args.batches < 1:
        raise ConfigError(f"--batches must be at least 1, got {args.batches}")
    names = [p for p in (args.problems.split(",") if args.problems else []) if p]
    if not names:
        raise ConfigError(f"--problems names no problem, got {args.problems!r}")
    catalog = default_bench_problems(args.epsilon, args.delta, args.seed)
    unknown = [n for n in names if n not in catalog]
    if unknown:
        raise ConfigError(f"unknown problems: {unknown}; available: {sorted(catalog)}")

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(BENCH_COLUMNS)
    for name in names:
        methods, run = catalog[name]()
        for method in methods:
            for batch in range(args.batches):
                started = time.perf_counter()
                steps, err, covered = run(method, child_seed(args.seed, REPLICATE, batch))
                wall = time.perf_counter() - started
                writer.writerow([method, name, batch, steps, f"{err:.9f}", f"{covered:.1f}", f"{wall:.4f}"])
    _emit(buf.getvalue(), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynamite", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_chain_args(p):
        p.add_argument("--chain", required=True, choices=["cycle", "two-state"])
        p.add_argument("--n", type=int, default=None, help="cycle size")
        p.add_argument("--fn", required=True, choices=["cycle-f", "indicator"])
        p.add_argument("--i", type=int, default=None, help="block half-width for cycle-f")
        p.add_argument("--states", default=None, help="comma list of states in 0..N-1 for indicator")

    p = sub.add_parser("analyze-chain", help="exact spectral summary and trace-variance sweep")
    add_chain_args(p)
    p.add_argument("--T", type=int, action="append", help="horizon(s) to profile")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze_chain)

    p = sub.add_parser("estimate", help="replicated mean estimation")
    add_chain_args(p)
    p.add_argument("--method", required=True, choices=[*CYCLE_METHODS, "warm-start"])
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--lambda", dest="lambda_bound", default="oracle",
                   help="eigenvalue bound, or 'oracle' for the exact value")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--start", type=int, default=None, help="start state; --method warm-start only")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("count-colorings", help="telescoping coloring counter")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--estimator", default="dynamite", choices=COUNT_METHODS)
    p.add_argument("--lambda", dest="lambda_bound", type=float, default=None,
                   help="bound on the raw chain's second absolute eigenvalue, in [0, 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true", help="cross-check against brute force")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_count_colorings)

    p = sub.add_parser("gen-planted", help="generate a planted-partition graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_planted)

    p = sub.add_parser("bench-compare", help="method-by-problem benchmark CSV")
    p.add_argument("--problems", default="cycle16-f1,cycle16-f8,planted4-count")
    p.add_argument("--epsilon", type=float, default=0.02, help="cycle problems only; planted4-count uses 0.25")
    p.add_argument("--delta", type=float, default=0.1, help="cycle problems only; planted4-count uses 0.25")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batches", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.out = _resolve_out(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardError as exc:
        print(f"guard rejection: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except StatisticalFailure as exc:
        print(f"statistical failure: {exc}", file=sys.stderr)
        return EXIT_STATISTICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
