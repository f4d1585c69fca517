"""The benchmark's workloads: seeded inputs, one op per estimator call, checks.

A workload is a fixed list of ops drawn from the seed.  A round runs every op
once; a run repeats rounds on the same inputs until its time is up, so each
repeat must reproduce the first round exactly (the determinism gate).  The
package is reached only through its public module attributes, looked up at
call time, so a traced run sees every call the workload makes.

Why these workloads:

* ``cycle16-dynamite`` is the paper's cycle experiment.  The vectorised cycle
  sampler and f-evaluation do the work; the Glauber loop is idle.  Every run
  stops ``radius-met`` at iteration 4 of 6, so it also shows the adaptive stop.
* ``planted-count-dynamite`` is the paper's counting experiment above the
  n=4 of ``bench-compare``.  The Python Glauber loop inside trace chains does
  ~99% of the work.  The edge count is fixed because T, tau and the schedule
  depend only on n, k, #E, epsilon and delta: cost is steady across seeds.
* ``planted-count-static`` counts the same graphs with the static Hoeffding
  estimator: one long path per phase after a warm-up whose only use is its
  last state, with no trace chain and no adaptive loop.
"""
from __future__ import annotations

import contextlib
import dataclasses
import importlib
import math
import time
from typing import Callable, List, Optional

import numpy as np

PACKAGE = "dynamite"
INPUT_STREAM = 0x5EED  # labels the benchmark's own input stream under the seed


@dataclasses.dataclass(frozen=True)
class CycleSpec:
    n: int = 16
    epsilon: float = 0.005
    delta: float = 0.1
    replicates: int = 20  # ops per round


@dataclasses.dataclass(frozen=True)
class PlantedSpec:
    estimator: str
    n: int = 6
    communities: int = 2
    within_prob: float = 0.6
    cross_mass: float = 0.2
    edges: int = 5
    k: int = 5
    epsilon: float = 0.25
    delta: float = 0.25
    # count vs brute force: per-phase additive error composes into a slightly
    # larger relative envelope, the same 1.2 x epsilon that bench-compare uses
    count_slack: float = 1.2


SPECS = {
    "cycle16-dynamite": CycleSpec(),
    "planted-count-dynamite": PlantedSpec(estimator="dynamite"),
    "planted-count-static": PlantedSpec(estimator="static-hoeffding"),
}

# Same code paths at sizes that run in about a second, for the benchmark's tests.
TINY_SPECS = {
    "cycle16-dynamite": CycleSpec(n=8, epsilon=0.05, replicates=2),
    "planted-count-dynamite": PlantedSpec(estimator="dynamite", n=4, edges=2, k=3, epsilon=0.5, delta=0.5),
    "planted-count-static": PlantedSpec(estimator="static-hoeffding", n=4, edges=2, k=3, epsilon=0.5, delta=0.5),
}


class NondeterminismError(RuntimeError):
    """A repeat of one seed gave different steps or estimates."""


@dataclasses.dataclass(frozen=True)
class Outcome:
    """What one op produced, reduced to what the checks and metrics read."""

    key: tuple  # compared across repeats of the same op
    steps: int
    ok: bool
    reports: tuple = ()  # adaptive EstimateReports behind the op
    phases: int = 0  # counting phases run by the op


@dataclasses.dataclass
class Workload:
    name: str
    ops: List[Callable[[], object]]
    check: Callable[[object], Outcome]
    failures: tuple  # exception types that count as a failed op


@dataclasses.dataclass
class Round:
    traced: bool
    wall: float
    op_walls: List[float]
    outcomes: List[Outcome]


def package_modules():
    """The package's layer modules, imported by name so patches are seen."""
    names = ("adaptive", "chains", "coloring", "errors", "planted", "spectral")
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in names}


def build(name: str, seed: int, *, tiny: bool = False) -> Workload:
    """Draw the workload's inputs from ``seed``.  Oracles are not computed here."""
    specs = TINY_SPECS if tiny else SPECS
    if name not in specs:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(specs)}")
    spec = specs[name]
    rng = np.random.default_rng([int(seed), INPUT_STREAM])
    mods = package_modules()
    failures = (mods["errors"].GuardError, mods["errors"].StatisticalFailure)
    if isinstance(spec, CycleSpec):
        return _cycle(name, spec, rng, mods, failures)
    return _planted(name, spec, rng, mods, failures)


def _cycle(name, spec: CycleSpec, rng, mods, failures) -> Workload:
    chains, spectral, adaptive = mods["chains"], mods["spectral"], mods["adaptive"]
    kernel = chains.make_cycle(spec.n)
    f = chains.make_cycle_function(spec.n, 1)
    summary = spectral.summarize(kernel, f)
    lam = summary.second_eigenvalue
    # the lazy cycle walk's stationary law is uniform, so uniform pairs are stationary starts
    inputs = [
        ((int(rng.integers(spec.n)), int(rng.integers(spec.n))), int(rng.integers(2 ** 62)))
        for _ in range(spec.replicates)
    ]

    def op(pair, op_seed):
        return lambda: adaptive.dynamite(pair, kernel, lam, f, spec.epsilon, spec.delta, op_seed)

    def check(report) -> Outcome:
        ok = abs(report.estimate - summary.mean) <= spec.epsilon
        return Outcome(key=(report.total_base_steps, report.estimate), steps=report.total_base_steps, ok=ok,
                       reports=(report,))

    return Workload(name, [op(pair, s) for pair, s in inputs], check, failures)


def draw_planted_graph(spec: PlantedSpec, rng, mods):
    """Redraw until the graph has exactly ``spec.edges`` edges and k meets its floor."""
    planted, coloring = mods["planted"], mods["coloring"]
    params = planted.PlantedParams(spec.n, spec.communities, spec.within_prob, spec.cross_mass)
    for _ in range(10_000):
        graph = planted.generate(params, rng).graph
        if len(graph.edges) == spec.edges and coloring.ergodicity_floor(graph) <= spec.k:
            return graph
    raise RuntimeError(f"no {spec.edges}-edge graph admitting k={spec.k} in 10000 draws")


def _planted(name, spec: PlantedSpec, rng, mods, failures) -> Workload:
    coloring = mods["coloring"]
    graph = draw_planted_graph(spec, rng, mods)
    op_seed = int(rng.integers(2 ** 62))
    exact = {}  # edge order -> (count, phase ratios); oracles, filled on first check

    def op():
        return coloring.jvv_count(graph, spec.k, spec.epsilon, spec.delta, estimator=spec.estimator, seed=op_seed)

    def check(result) -> Outcome:
        order = tuple(result.edge_order)
        if order not in exact:
            exact[order] = (coloring.brute_force_count(graph, spec.k),
                            [float(r) for r in coloring.exact_phase_ratios(graph, spec.k, order)])
        count, ratios = exact[order]
        phase_tol = spec.epsilon / len(ratios)
        phases_ok = len(result.phases) == len(ratios) and all(
            abs(p.ratio - r) <= phase_tol for p, r in zip(result.phases, ratios)
        )
        count_ok = abs(math.exp(result.log_count) - count) <= spec.count_slack * spec.epsilon * count
        return Outcome(
            key=(result.total_steps, result.log_count, tuple(p.ratio for p in result.phases)),
            steps=result.total_steps,
            ok=phases_ok and count_ok,
            reports=tuple(p.report for p in result.phases if p.report is not None),
            phases=len(result.phases),
        )

    return Workload(name, [op], check, failures)


def run_round(workload: Workload, around: Optional[Callable] = None) -> Round:
    """Run every op once, inside ``around()`` (a traced round) when given.

    The checks run after the ops, outside ``around()``, so oracles are neither
    timed nor traced.
    """
    walls, results = [], []
    clock = time.perf_counter
    with around() if around is not None else contextlib.nullcontext():
        started = clock()
        for call in workload.ops:
            t0 = clock()
            try:
                results.append(call())
            except workload.failures as exc:
                results.append(exc)
            walls.append(clock() - t0)
        wall = clock() - started
    outcomes = [
        Outcome(key=("raised", type(r).__name__), steps=0, ok=False)
        if isinstance(r, workload.failures) else workload.check(r)
        for r in results
    ]
    return Round(around is not None, wall, walls, outcomes)


def check_repeat(first: Round, again: Round, name: str) -> None:
    for i, (a, b) in enumerate(zip(first.outcomes, again.outcomes)):
        if a.key != b.key:
            raise NondeterminismError(
                f"{name}: op {i} gave {b.key!r} on a repeat of the same seed, {a.key!r} the first time; "
                "a change that moves step counts or estimates is an algorithm change"
            )


def measure(workload: Workload, seconds: float, traced_round: Optional[Callable] = None) -> List[Round]:
    """Repeat rounds for ``seconds`` (at least two rounds, so the gate has a repeat).

    With ``traced_round`` (a context-manager factory) every second round runs
    inside it, so traced and untraced rounds interleave over the same period.
    """
    rounds: List[Round] = []
    started = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - started < seconds:
        r = run_round(workload, traced_round if len(rounds) % 2 == 1 else None)
        if rounds:
            check_repeat(rounds[0], r, workload.name)
        rounds.append(r)
    return rounds
