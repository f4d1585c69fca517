"""Graph colorings: Glauber dynamics, exact counting, and the telescoping counter.

The counting pipeline removes the input graph's edges one at a time.  Phase i
samples uniform proper colorings of the graph WITHOUT its phase edge (u, v)
and estimates the probability that gamma(u) != gamma(v); that probability is
exactly the ratio of the two consecutive coloring counts, so the product of
all phase ratios times k^n telescopes to the count for the full graph.

Single-site dynamics is ergodic on proper colorings whenever the number of
colors exceeds the graph's degeneracy by at least two; the pipeline enforces
that floor per phase (on each sampling graph) and refuses below it.
"""
from __future__ import annotations

import dataclasses
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .adaptive import EstimateReport, uniform_mixing_steps, warm_start
from .chains import ScalarFunction, TransitionKernel
from .errors import GuardError, StatisticalFailure
from .estimators import ConcentrationParams, hoeffding_sample_complexity, static_estimate
from .rng import CHAIN_A, PHASE, WARMUP, child_seed, stream

BRUTE_FORCE_CAP = 10 ** 8


@dataclasses.dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with deduplicated edges."""

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        canon = []
        for e in self.edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{self.n - 1}")
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            canon.append(key)
        object.__setattr__(self, "edges", tuple(canon))
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "adjacency", tuple(tuple(a) for a in adj))

    @property
    def d_max(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def degeneracy(self) -> int:
        """Smallest d such that every subgraph has a vertex of degree <= d."""
        return self._peel()[1]

    def degeneracy_order(self):
        return self._peel()[0]

    def _peel(self):
        """Remove min-degree vertices one by one: (removal order, max degree at removal)."""
        deg = [len(a) for a in self.adjacency]
        removed = [False] * self.n
        order, best = [], 0
        for _ in range(self.n):
            v = min((i for i in range(self.n) if not removed[i]), key=lambda i: deg[i])
            order.append(v)
            best = max(best, deg[v])
            removed[v] = True
            for w in self.adjacency[v]:
                if not removed[w]:
                    deg[w] -= 1
        return order, best

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [[u, v] for u, v in self.edges]}

    @classmethod
    def from_json(cls, payload: dict) -> "Graph":
        return cls(n=int(payload["n"]), edges=tuple((int(u), int(v)) for u, v in payload["edges"]))


def is_proper(graph: Graph, coloring, k: Optional[int] = None) -> bool:
    """True iff no edge is monochromatic; validates length and color range."""
    colors = np.asarray(coloring, dtype=np.int64)
    if colors.shape != (graph.n,):
        raise ValueError(f"coloring must assign all {graph.n} vertices, got shape {colors.shape}")
    if colors.size and colors.min() < 1:
        raise ValueError("colors must be 1-based positive integers")
    if k is not None and colors.size and colors.max() > k:
        raise ValueError(f"color {int(colors.max())} exceeds k={k}")
    for u, v in graph.edges:
        if colors[u] == colors[v]:
            return False
    return True


def glauber_kernel(graph: Graph, k: int) -> TransitionKernel:
    """Samplable lazy single-site kernel over proper colorings.

    Each step holds with probability 1/2, else proposes a uniform (vertex u,
    color c) and recolors u to c when no neighbour of u wears c.  The hold is
    what the adaptive estimator's analysis assumes; a bound L for the raw
    chain becomes (1 + L)/2, which the caller passes to the estimators.
    ``exact_glauber_matrix(graph, k, lazy=True)`` is this kernel's law.
    """
    n = graph.n
    adjacency = [list(a) for a in graph.adjacency]

    def sample_path(state, steps, rng):
        colors = list(int(x) for x in state)
        out = np.empty((steps, n), dtype=np.int16)
        hold = rng.random(steps) < 0.5
        us = rng.integers(0, n, size=steps)
        cs = rng.integers(1, k + 1, size=steps)
        for t in range(steps):
            if not hold[t]:
                u = us[t]
                c = cs[t]
                if colors[u] != c:
                    for w in adjacency[u]:
                        if colors[w] == c:
                            break
                    else:
                        colors[u] = c
            out[t] = colors
        return out

    def validate(state):
        if not is_proper(graph, state, k):
            raise ValueError("start state must be a proper coloring")

    return TransitionKernel(
        name=f"glauber(n={n},k={k},lazy)",
        sample_path=sample_path,
        is_lazy=True,
        is_reversible=True,
        validate_start=validate,
    )


def enumerate_colorings(graph: Graph, k: int):
    """Yield every proper k-coloring as a tuple, by pruned depth-first search."""
    n = graph.n
    smaller = [[w for w in graph.adjacency[v] if w < v] for v in range(n)]
    colors = [0] * n

    def rec(v):
        if v == n:
            yield tuple(colors)
            return
        for c in range(1, k + 1):
            if all(colors[w] != c for w in smaller[v]):
                colors[v] = c
                yield from rec(v + 1)
        colors[v] = 0

    yield from rec(0)


def brute_force_count(graph: Graph, k: int) -> int:
    """Exact number of proper k-colorings by pruned enumeration (guarded)."""
    if k < 1:
        raise ValueError("k must be positive")
    if k ** graph.n > BRUTE_FORCE_CAP:
        raise GuardError(
            f"brute force guarded at k^n <= {BRUTE_FORCE_CAP}, got {k}^{graph.n}"
        )
    n = graph.n
    smaller = [[w for w in graph.adjacency[v] if w < v] for v in range(n)]
    colors = [0] * n

    def rec(v):
        if v == n:
            return 1
        total = 0
        for c in range(1, k + 1):
            ok = True
            for w in smaller[v]:
                if colors[w] == c:
                    ok = False
                    break
            if ok:
                colors[v] = c
                total += rec(v + 1)
        colors[v] = 0
        return total

    return rec(0)


def exact_glauber_matrix(graph: Graph, k: int, *, lazy: bool = False, cap: int = 4096):
    """Enumerate the coloring chain for small instances: (states, matrix).

    Each of the n*k equally likely (vertex u, color c) proposals recolors u to
    c when no neighbour of u wears c and holds otherwise; this is the reference
    law the sampler of ``glauber_kernel`` is tested against.
    """
    states = list(enumerate_colorings(graph, k))
    if not states:
        raise GuardError(f"graph has no proper {k}-colorings")
    if len(states) > cap:
        raise GuardError(f"exact kernel capped at {cap} states, got {len(states)}")
    index = {s: i for i, s in enumerate(states)}
    n = graph.n
    m = np.zeros((len(states), len(states)))
    for i, s in enumerate(states):
        for u in range(n):
            for c in range(1, k + 1):
                free = all(s[w] != c for w in graph.adjacency[u])
                t = s[:u] + (c,) + s[u + 1:] if free else s
                m[i, index[t]] += 1.0
    m /= n * k
    if lazy:
        m = 0.5 * (np.eye(len(states)) + m)
    return states, m


def greedy_coloring(graph: Graph, k: int) -> np.ndarray:
    """Proper coloring via smallest-available color in reverse degeneracy order."""
    order = graph.degeneracy_order()
    colors = np.zeros(graph.n, dtype=np.int64)
    for v in reversed(order):
        used = {int(colors[w]) for w in graph.adjacency[v] if colors[w] > 0}
        c = next((c for c in range(1, k + 1) if c not in used), None)
        if c is None:
            raise GuardError(f"greedy coloring failed with k={k} (needs more colors)")
        colors[v] = c
    return colors


# ---------------------------------------------------------------------------
# telescoping pipeline


@dataclasses.dataclass(frozen=True)
class PhaseSpec:
    """One counting phase: the ``index``-th edge of ``order`` and the graph before it.

    All phases of a sequence share one ``order`` tuple, so the sequence holds
    O(#E) edges; ``sampling_graph`` builds its graph on each access.
    """

    index: int
    n: int
    order: tuple
    fn: ScalarFunction

    @property
    def edge(self) -> tuple:
        return self.order[self.index - 1]

    @property
    def sampling_graph(self) -> Graph:
        return Graph(self.n, self.order[: self.index - 1])


def _phase_indicator(edge) -> ScalarFunction:
    u, v = edge

    def batch(colorings):
        arr = np.asarray(colorings)
        return (arr[..., u] != arr[..., v]).astype(float)

    return ScalarFunction(batch, lo=0.0, hi=1.0, name=f"distinct({u},{v})")


def _validated_order(graph: Graph, edge_order: Optional[Sequence]) -> tuple:
    order = tuple(tuple(e) for e in (edge_order if edge_order is not None else graph.edges))
    if sorted(tuple(sorted(e)) for e in order) != sorted(graph.edges):
        raise ValueError("edge order must be a permutation of the graph's edges")
    return order


def build_phase_sequence(graph: Graph, edge_order: Optional[Sequence] = None):
    """Phases in the given edge order (input order by default).

    Phase i samples on the graph holding edges 1..i-1 of the order and targets
    the i-th edge, so the sampling graphs grow strictly toward the input graph.
    """
    order = _validated_order(graph, edge_order)
    return [PhaseSpec(i, graph.n, order, _phase_indicator(edge)) for i, edge in enumerate(order, start=1)]


def exact_phase_ratios(graph: Graph, k: int, edge_order: Optional[Sequence] = None):
    """Brute-force per-phase ratios as exact fractions (oracle for the pipeline)."""
    ratios = []
    for phase in build_phase_sequence(graph, edge_order):
        with_edge = Graph(graph.n, phase.order[: phase.index])
        ratios.append(Fraction(brute_force_count(with_edge, k), brute_force_count(phase.sampling_graph, k)))
    return ratios


@dataclasses.dataclass(frozen=True)
class PhaseOutcome:
    index: int
    edge: tuple
    ratio: float
    steps: int
    method: str
    report: Optional[EstimateReport]

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "edge": list(self.edge),
            "ratio": self.ratio,
            "steps": self.steps,
            "method": self.method,
            "report": None if self.report is None else self.report.to_json(),
        }


@dataclasses.dataclass(frozen=True)
class CountResult:
    """Telescoping-product output: log-space count, rendering, and the audit trail.

    Per-phase additive errors epsilon/I compose into a relative error on the
    product because every true ratio is at least 1/2 under the color floor;
    the rendered estimate makes no sharper claim than that composition.
    """

    log_count: float
    estimate: str
    phases: tuple
    total_steps: int
    k: int
    n: int
    edge_order: tuple
    lambda_bound: float
    lambda_defaulted: bool
    estimator: str

    @property
    def count(self) -> float:
        return math.exp(self.log_count) if self.log_count < 700 else math.inf

    def to_json(self) -> dict:
        return {
            "log_count": self.log_count,
            "estimate": self.estimate,
            "count": self.count if math.isfinite(self.count) else None,
            "total_steps": self.total_steps,
            "k": self.k,
            "n": self.n,
            "edge_order": [list(e) for e in self.edge_order],
            "lambda_bound": self.lambda_bound,
            "lambda_defaulted": self.lambda_defaulted,
            "estimator": self.estimator,
            "phases": [p.to_json() for p in self.phases],
        }


def render_decimal(log_count: float) -> str:
    """Render exp(log_count) as a decimal string, surviving k^n magnitudes."""
    if log_count == -math.inf:
        return "0"
    log10 = log_count / math.log(10.0)
    if log10 < 15:
        return f"{math.exp(log_count):.15g}"
    exponent = int(math.floor(log10))
    mantissa = 10.0 ** (log10 - exponent)
    return f"{mantissa:.12f}e+{exponent}"


def ergodicity_floor(graph: Graph, edge_order: Optional[Sequence] = None) -> int:
    """Minimum admissible k: two more than the largest sampling-graph degeneracy.

    Single-site dynamics connects the proper colorings of every phase's
    sampling graph when k is at least its degeneracy plus two.  The floor is
    evaluated per phase (the phase edge itself is never part of the graph
    being sampled), so it is never above d_max(G) + 2 and is often below it.
    The sampling graphs are nested and degeneracy never grows on a subgraph,
    so the largest one, G without the last edge of the order, sets the floor.
    """
    order = _validated_order(graph, edge_order)
    if not order:
        return 1
    return Graph(graph.n, tuple(order[:-1])).degeneracy() + 2


def coloring_space_size(n: int, k: int) -> float:
    """k^n as a float, refused with a guard when it does not fit in one."""
    try:
        return float(k) ** n
    except OverflowError:
        raise GuardError(
            f"k^n = {k}^{n} does not fit in a float: n ln k = {n * math.log(k):.1f} "
            f"exceeds {math.log(sys.float_info.max):.1f}"
        ) from None


def jvv_count(
    graph: Graph,
    k: int,
    epsilon: float,
    delta: float,
    estimator: str = "dynamite",
    seed: int = 0,
    *,
    lambda_bound: Optional[float] = None,
    edge_order: Optional[Sequence] = None,
) -> CountResult:
    """Estimate the number of proper k-colorings by the telescoping product.

    Each of the #E phases estimates its ratio to additive precision epsilon/#E
    with failure budget delta/#E from a warm-started lazified single-site
    chain; the union bound gives total failure at most delta.  ``lambda_bound``
    is the caller's bound on the raw chain's second absolute eigenvalue; when
    omitted, the conservative 1 - 1/(n^2 k) heuristic is used and disclosed in
    the result.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if estimator not in ("dynamite", "static-hoeffding"):
        raise ValueError(f"unknown estimator {estimator!r}")
    phases = build_phase_sequence(graph, edge_order)
    order = tuple(p.edge for p in phases)
    if not phases:
        return CountResult(
            log_count=graph.n * math.log(k),
            estimate=render_decimal(graph.n * math.log(k)),
            phases=(),
            total_steps=0,
            k=k,
            n=graph.n,
            edge_order=(),
            lambda_bound=0.0,
            lambda_defaulted=False,
            estimator=estimator,
        )
    floor = ergodicity_floor(graph, order)
    if k < floor:
        raise GuardError(
            f"ergodicity floor: k={k} is below the admissible minimum {floor} "
            f"for this graph's sampling phases (degeneracy + 2)"
        )

    defaulted = lambda_bound is None
    raw_lambda = (1.0 - 1.0 / (graph.n ** 2 * k)) if defaulted else float(lambda_bound)
    lazy_lambda = 0.5 * (1.0 + raw_lambda)
    n_phases = len(phases)
    eps_i = epsilon / n_phases
    delta_i = delta / n_phases
    pi_min = 1.0 / coloring_space_size(graph.n, k)

    outcomes = []
    log_count = graph.n * math.log(k)
    total_steps = 0
    for phase in phases:
        sampling_graph = phase.sampling_graph
        kernel = glauber_kernel(sampling_graph, k)
        start = greedy_coloring(sampling_graph, k)
        phase_seed = child_seed(seed, PHASE, phase.index)
        if estimator == "dynamite":
            report = warm_start(start, kernel, lazy_lambda, pi_min, phase.fn, eps_i, delta_i, phase_seed)
            ratio = report.estimate
            steps = report.total_base_steps
        else:
            tau = uniform_mixing_steps(lazy_lambda, pi_min)
            rng = stream(phase_seed, WARMUP)
            state = kernel.path(start, tau, rng)[-1] if tau else start
            m = hoeffding_sample_complexity(
                ConcentrationParams(lambda_bound=lazy_lambda, value_range=1.0, delta_prime=delta_i, m=1),
                eps_i,
            )
            ratio = static_estimate(kernel, phase.fn, m, state, stream(phase_seed, CHAIN_A))
            steps = tau + m
            report = None
        if ratio <= 0.0:
            raise StatisticalFailure(
                f"phase {phase.index} (edge {phase.edge}) produced ratio {ratio}; "
                "this cannot happen when the per-phase guarantees hold with "
                "epsilon/I < 1/2 and signals a mis-specified eigenvalue bound"
            )
        log_count += math.log(ratio)
        total_steps += steps
        outcomes.append(
            PhaseOutcome(
                index=phase.index,
                edge=phase.edge,
                ratio=ratio,
                steps=steps,
                method=estimator,
                report=report,
            )
        )

    return CountResult(
        log_count=log_count,
        estimate=render_decimal(log_count),
        phases=tuple(outcomes),
        total_steps=total_steps,
        k=k,
        n=graph.n,
        edge_order=order,
        lambda_bound=lazy_lambda,
        lambda_defaulted=defaulted,
        estimator=estimator,
    )
