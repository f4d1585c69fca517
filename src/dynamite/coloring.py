"""Graph colorings: Glauber dynamics, exact counting, and the telescoping counter.

The counting pipeline walks the prefixes of one edge order.  Phase i samples
uniform proper colorings of the graph made of the first i - 1 edges and
estimates the probability that gamma(u) != gamma(v) for edge i, (u, v); that
probability is exactly the ratio of the two consecutive coloring counts, so
the product of all phase ratios times k^n telescopes to the count for the
full graph.

That probability reads only the colors of the phase's support, the components
of u and v in the sampling graph.  A single-site move only looks at its own
vertex's neighbours, so each phase walks the chain's marginal on the support
alone (``glauber_kernel(graph, k, support)``), whose path is the whole
chain's restricted to the support, bit for bit.

Single-site dynamics is ergodic on proper colorings whenever the number of
colors exceeds the graph's degeneracy by at least two; the pipeline enforces
that floor per phase (on each sampling graph) and refuses below it.
"""
from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .adaptive import (EstimateReport, check_steps, plan_mcmc_pro, plan_static, select_trace_length,
                       static_estimate, warm_start)
from .chains import ScalarFunction, TransitionKernel
from .errors import GuardError, StatisticalFailure
from .estimators import checked_lambda
from .records import Record
from .rng import PHASE, child_seed
from .spectral import MATRIX_CAP

BRUTE_FORCE_CAP = 10 ** 8


@dataclasses.dataclass(frozen=True)
class Graph(Record):
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

    def components_of(self, vertices) -> tuple:
        """Every vertex of the connected components that meet ``vertices``, ascending."""
        seen = set()
        stack = list(vertices)
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(self.adjacency[v])
        return tuple(sorted(seen))

    @property
    def d_max(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def degeneracy(self) -> int:
        """Smallest d such that every subgraph has a vertex of degree <= d."""
        return self._peel()[1]

    def degeneracy_order(self):
        return self._peel()[0]

    def _peel(self):
        """Remove min-degree vertices one by one: (removal order, max degree at removal).

        Ties go to the lowest index.  A heap of (degree, vertex) entries, where
        an entry whose degree has since dropped is skipped, keeps that order in
        O((n + #E) log n).
        """
        deg = [len(a) for a in self.adjacency]
        heap = [(d, v) for v, d in enumerate(deg)]
        heapq.heapify(heap)
        removed = [False] * self.n
        order, best = [], 0
        while heap:
            d, v = heapq.heappop(heap)
            if removed[v] or d != deg[v]:
                continue
            order.append(v)
            best = max(best, d)
            removed[v] = True
            for w in self.adjacency[v]:
                if not removed[w]:
                    deg[w] -= 1
                    heapq.heappush(heap, (deg[w], w))
        return order, best

    @classmethod
    def from_json(cls, payload: dict) -> "Graph":
        """Read ``to_json`` output; ``n`` and every endpoint must be JSON integers."""

        def whole(x):
            if type(x) is not int:  # refuses bools, floats and strings alike
                raise TypeError(f"vertex count and ids must be integers, got {x!r}")
            return x

        return cls(n=whole(payload["n"]), edges=tuple((whole(u), whole(v)) for u, v in payload["edges"]))


def is_proper(graph: Graph, coloring, k: Optional[int] = None) -> bool:
    """True iff every edge joins two different colors; validates length and color range."""
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


def glauber_kernel(graph: Graph, k: int, vertices: Optional[Sequence[int]] = None) -> TransitionKernel:
    """Samplable lazy single-site kernel over proper colorings, or its marginal on ``vertices``.

    Each step holds with probability 1/2, else proposes a uniform (vertex u,
    color c) and recolors u to c when no neighbour of u wears c.  The hold is
    what the adaptive estimator's analysis assumes; a bound L for the raw
    chain becomes (1 + L)/2, which the caller passes to the estimators.
    ``exact_glauber_matrix(graph, k, lazy=True)`` is this kernel's law.

    With ``vertices``, a union of connected components of ``graph`` (any
    other set is refused with ValueError), the kernel is the chain's marginal
    on them: a state colors ``vertices`` in the order given.  A move at u reads
    only u's neighbours, which share u's component, so the marginal is itself
    a Markov chain, and its path is the whole chain's path restricted to
    ``vertices``.  The generator draws exactly as the whole chain's does;
    a proposal outside ``vertices`` counts as a hold.  None means every vertex.

    The sampler draws every hold, vertex and color of the path up front and
    walks in Python only the proposals at vertices with a neighbour; a vertex
    without one takes every color proposed.  Each column of the path is its
    start color followed by one run per accepted move there: a stable sort
    by column orders the moves, one ``np.repeat`` fills an int16 block with a
    row per column, and the path is its transpose.  Colors above the int16
    range are refused here, before any sampling.
    """
    int16_max = int(np.iinfo(np.int16).max)
    if k > int16_max:
        raise GuardError(f"k={k} colors do not fit the sampler's int16 states (at most {int16_max})")
    n = graph.n
    support = list(range(n)) if vertices is None else [int(v) for v in vertices]
    if not all(0 <= v < n for v in support) or len(set(support)) != len(support):
        raise ValueError(f"vertices must be distinct ids in 0..{n - 1}, got {vertices}")
    if set(graph.components_of(support)) != set(support):
        raise ValueError(f"vertices must be a union of connected components of the graph, got {vertices}")
    width = len(support)
    local = np.full(n, -1, dtype=np.intp)  # each vertex's position in a state, -1 off the support
    local[support] = np.arange(width)
    walked = local >= 0
    induced = Graph(width, tuple((local[u], local[v]) for u, v in graph.edges if walked[u]))
    adjacency = induced.adjacency
    lonely = np.array([not a for a in adjacency], dtype=bool)

    def sample_path(state, steps, rng):
        colors = [int(x) for x in state]
        hold = rng.random(steps) < 0.5
        us = rng.integers(0, n, size=steps)
        cs = rng.integers(1, k + 1, size=steps)
        moves = np.flatnonzero(~hold & walked[us])
        proposed_u, proposed_c = local[us[moves]], cs[moves]
        accepted = lonely[proposed_u]  # a vertex with no neighbour takes every proposed color
        walk = np.flatnonzero(~accepted)
        flags = bytearray(len(walk))
        for i, u, c in zip(range(len(walk)), proposed_u[walk].tolist(), proposed_c[walk].tolist()):
            if colors[u] != c:
                for w in adjacency[u]:
                    if colors[w] == c:
                        break
                else:
                    colors[u] = c
                    flags[i] = 1
        accepted[walk] = np.frombuffer(flags, dtype=np.bool_)
        # a start event per column, then the accepted moves in step order: a stable sort by
        # column keeps each column's events in step order, start first (8/16-bit ids radix-sort)
        column = np.concatenate((np.arange(width), proposed_u[accepted])).astype(np.min_scalar_type(width - 1))
        order = np.argsort(column, kind="stable")
        step = np.concatenate((np.zeros(width, dtype=np.intp), moves[accepted]))
        color = np.concatenate((np.asarray(state, dtype=np.int16), proposed_c[accepted].astype(np.int16)))
        begin = column[order].astype(np.intp) * steps + step[order]
        runs = np.diff(begin, append=width * steps)
        return np.repeat(color[order], runs).reshape(width, steps).T

    def validate(state):
        if not is_proper(induced, state, k):
            raise ValueError("start state must be a proper coloring")

    return TransitionKernel(
        name=f"glauber(n={n},k={k},lazy)" if vertices is None else f"glauber(n={n},k={k},lazy,on={len(support)})",
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
        raise GuardError(f"brute force guarded at k^n <= {BRUTE_FORCE_CAP}, got {k}^{graph.n}")
    n = graph.n
    smaller = [[w for w in graph.adjacency[v] if w < v] for v in range(n)]
    colors = [0] * n

    def rec(v):
        if v == n:
            return 1
        total = 0
        for c in range(1, k + 1):
            for w in smaller[v]:
                if colors[w] == c:
                    break
            else:
                colors[v] = c
                total += rec(v + 1)
        colors[v] = 0
        return total

    return rec(0)


def exact_glauber_matrix(graph: Graph, k: int, *, lazy: bool = False):
    """Enumerate the coloring chain for small instances: (states, matrix).

    Each of the n*k equally likely (vertex u, color c) proposals recolors u to
    c when no neighbour of u wears c and holds otherwise; this is the reference
    law the sampler of ``glauber_kernel`` is tested against.  Enumeration stops
    one state past the dense cap ``MATRIX_CAP``, so an oversize graph is
    refused at once.
    """
    states = list(itertools.islice(enumerate_colorings(graph, k), MATRIX_CAP + 1))
    if not states:
        raise GuardError(f"graph has no proper {k}-colorings")
    if len(states) > MATRIX_CAP:
        raise GuardError(f"exact kernel capped at {MATRIX_CAP} states: more proper {k}-colorings")
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


def _phase_indicator(edge, support) -> ScalarFunction:
    """gamma(u) != gamma(v) for the edge (u, v), on states that color ``support`` in order."""
    u, v = edge
    i, j = support.index(u), support.index(v)

    def batch(colorings):
        arr = np.asarray(colorings)
        return (arr[..., i] != arr[..., j]).astype(float)

    return ScalarFunction(batch, lo=0.0, hi=1.0, name=f"distinct({u},{v})")


def _validated_order(graph: Graph, edge_order: Optional[Sequence]) -> tuple:
    order = tuple(tuple(e) for e in (edge_order if edge_order is not None else graph.edges))
    if sorted(tuple(sorted(e)) for e in order) != sorted(graph.edges):
        raise ValueError("edge order must be a permutation of the graph's edges")
    return order


def exact_phase_ratios(graph: Graph, k: int, edge_order: Optional[Sequence] = None):
    """Brute-force per-phase ratios as exact fractions (oracle for the pipeline).

    The graph with phase i's edge is phase i+1's sampling graph, so the #E + 1
    prefix graphs of the order are each counted once.
    """
    order = _validated_order(graph, edge_order)
    counts = [brute_force_count(Graph(graph.n, order[:i]), k) for i in range(len(order) + 1)]
    return [Fraction(b, a) for a, b in zip(counts, counts[1:])]


@dataclasses.dataclass(frozen=True)
class PhaseOutcome(Record):
    index: int
    edge: tuple
    ratio: float
    steps: int
    method: str
    lambda_bound: float
    lambda_source: str
    report: Optional[EstimateReport]


@dataclasses.dataclass(frozen=True)
class CountResult(Record):
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
    estimator: str

    @property
    def count(self) -> float:
        try:
            return math.exp(self.log_count)
        except OverflowError:
            return math.inf

    def to_json(self) -> dict:
        """The fields plus the derived ``count``, None when it is infinite."""
        return {**super().to_json(), "count": self.count if math.isfinite(self.count) else None}


def render_decimal(log_count: float) -> str:
    """Render exp(log_count) as a decimal string, surviving k^n magnitudes."""
    if log_count == -math.inf:
        return "0"
    log10 = log_count / math.log(10.0)
    if log10 < 15:
        return f"{math.exp(log_count):.15g}"
    exponent = int(math.floor(log10))
    mantissa = round(10.0 ** (log10 - exponent), 12)
    if mantissa >= 10.0:  # rounding carried into the next power of ten
        mantissa, exponent = mantissa / 10.0, exponent + 1
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


def coloring_lambda(graph: Graph, k: int, lambda_bound: Optional[float] = None, support: Optional[Sequence] = None):
    """The lazy Glauber chain's eigenvalue bound on ``graph``: (lazy lambda, source), or None.

    The first that applies: ``caller``, ``lambda_bound``, the caller's bound on the raw chain,
    which must lie in [0, 1); ``jerrum``, raw 1 - (k - 2 d_max)/(k n) when k >= 2 d_max + 1,
    as path coupling contracts the Hamming distance by that factor per step (Jerrum 1995;
    Bubley and Dyer 1997) and a contraction bounds every non-unit eigenvalue (Levin, Peres
    and Wilmer, Thm 13.1); ``exact``, given ``support``, ``_marginal_lambda``.  The hold
    makes a raw bound L the lazy (1 + L)/2.
    """
    if lambda_bound is not None:
        raw, source = checked_lambda(float(lambda_bound)), "caller"
    elif k >= 2 * graph.d_max + 1:
        raw, source = 1.0 - (k - 2 * graph.d_max) / (k * graph.n), "jerrum"
    else:
        return None if support is None else (_marginal_lambda(graph, k, support), "exact")
    return 0.5 * (1.0 + raw), source


def _marginal_lambda(graph: Graph, k: int, support: Sequence) -> float:
    """The second eigenvalue of the lazy chain's marginal on ``support``, a union of components.

    That marginal is (1 - s) I + s L, with s = |support|/n and L the lazy chain on the induced
    graph, symmetric as its stationary law is uniform: so it is 1 - s (1 - lambda_L).  Above the
    ergodicity floor each vertex keeps two colors, so a support with 2^|support| > ``MATRIX_CAP``
    is refused at once, and any other past the cap by enumeration, by a GuardError.
    """
    local = {v: i for i, v in enumerate(support)}
    try:
        if 2 ** len(local) > MATRIX_CAP:
            raise GuardError(f"at least 2^{len(local)} states, above {MATRIX_CAP}")
        _, lazy = exact_glauber_matrix(Graph(len(local), tuple((local[u], local[v]) for u, v in graph.edges
                                                               if u in local)), k, lazy=True)
    except GuardError as exc:
        raise GuardError(f"no proven eigenvalue bound at k={k}: Jerrum's needs k >= {2 * graph.d_max + 1}, and "
                         f"the exact chain on a {len(local)}-vertex support is refused ({exc}); "
                         "pass a proven bound with --lambda") from None
    return 1.0 - len(local) / graph.n * (1.0 - float(np.linalg.eigvalsh(lazy)[-2]))


def _jerrum_last_edge(n: int, k: int, order: tuple) -> tuple:
    """``order``, with an edge at every max-degree vertex moved last when the largest
    sampling graph misses Jerrum's condition k >= 2 d_max + 1 and that move meets it.

    Dropping such an edge lowers the max degree by one; the latest one in ``order`` moves.
    Under the condition the degeneracy floor holds too, since degeneracy <= d_max.
    """
    degree = np.bincount(np.asarray(order).ravel(), minlength=n)
    top = int(degree.max())
    if Graph(n, order[:-1]).d_max < top or not 2 * top - 1 <= k <= 2 * top:
        return order
    hubs = set(np.flatnonzero(degree == top).tolist())
    for i in range(len(order) - 1, -1, -1):
        if hubs <= set(order[i]):
            return order[:i] + order[i + 1:] + (order[i],)
    return order


def jvv_count(
    graph: Graph,
    k: int,
    epsilon: float,
    delta: float,
    estimator: str = "dynamite",
    seed: int = 0,
    *,
    lambda_bound: Optional[float] = None,
) -> CountResult:
    """Estimate the number of proper k-colorings by the telescoping product.

    Phase i samples the graph made of the first i - 1 edges of one order (the
    graph's, where ``_jerrum_last_edge`` may move one hub edge last without a
    caller bound) and estimates the chance that edge i's endpoints differ, to
    additive precision epsilon/#E with failure budget delta/#E, so the union
    bound gives total failure at most delta.  It walks the lazy chain's
    marginal on its support from the greedy coloring of its sampling graph;
    pi_min = 1/k^n lower-bounds the marginal's stationary law, a sum of the
    whole chain's.

    Given ``lambda_bound`` (the caller's, on the raw chain), or where Jerrum's
    bound covers the largest sampling graph, every phase shares it, as in
    Jerrum's scheme: the sampling graphs are nested and a marginal's
    eigenvalues are the whole chain's, so it holds on each, and every phase
    runs the same T, tau and m.  Otherwise each phase takes ``coloring_lambda``
    of its own sampling graph and support: Jerrum's, else the exact lambda of
    its marginal, else a GuardError.  The largest supports go first, so an
    oversize one is refused before any eigensolve.  Every plan is made before
    phase 1, as its ``warm_start`` or ``static_estimate`` run makes it, and a
    count planning over ``STEP_CAP`` base steps is refused whole with a
    GuardError (with a shared bound, before any phase is built).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if estimator not in ("dynamite", "static-hoeffding"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if lambda_bound is not None:
        checked_lambda(float(lambda_bound))
    order = graph.edges
    if order and lambda_bound is None:
        order = _jerrum_last_edge(graph.n, k, order)
    floor = ergodicity_floor(graph, order)
    if k < floor:
        raise GuardError(f"ergodicity floor: k={k} is below the admissible minimum {floor} "
                         f"for this graph's sampling phases (degeneracy + 2)")
    outcomes, phases, lambdas = [], [], []
    if order:  # an edgeless graph has k^n colorings: no phase, bound or size check
        eps_i = epsilon / len(order)
        delta_i = delta / len(order)
        pi_min = 1.0 / coloring_space_size(graph.n, k)

        def check_count(lams):
            plans = [plan_mcmc_pro(1.0, lam, eps_i, delta_i, select_trace_length(lam), pi_min) if estimator ==
                     "dynamite" else plan_static(1.0, lam, eps_i, delta_i, pi_min) for lam, _ in lams]
            check_steps(sum(plan.steps for plan in plans), f"count of {len(order)} phases")

        shared = coloring_lambda(Graph(graph.n, order[:-1]), k, lambda_bound)
        if shared:  # every phase takes it: an oversize count is refused before any phase is built
            check_count([shared] * len(order))
        phases = [(g := Graph(graph.n, order[:i]), g.components_of(edge)) for i, edge in enumerate(order)]
        lambdas = [shared or coloring_lambda(g, k) for g, _ in phases]
        for i in sorted((i for i, lam in enumerate(lambdas) if lam is None), key=lambda i: -len(phases[i][1])):
            lambdas[i] = coloring_lambda(phases[i][0], k, support=phases[i][1])
        if not shared:
            check_count(lambdas)

    log_count = graph.n * math.log(k)
    total_steps = 0
    for index, (edge, (sampling_graph, support), (lazy_lambda, source)) in enumerate(zip(order, phases, lambdas), 1):
        fn = _phase_indicator(edge, support)
        kernel = glauber_kernel(sampling_graph, k, support)
        start = greedy_coloring(sampling_graph, k)[list(support)]
        estimate = warm_start if estimator == "dynamite" else static_estimate
        report = estimate(start, kernel, lazy_lambda, pi_min, fn, eps_i, delta_i, child_seed(seed, PHASE, index))
        ratio = report.estimate
        if ratio <= 0.0:
            raise StatisticalFailure(
                f"phase {index} (edge {edge}) produced ratio {ratio}; "
                "this cannot happen when the per-phase guarantees hold with "
                "epsilon/I < 1/2 and signals a mis-specified eigenvalue bound"
            )
        log_count += math.log(ratio)
        total_steps += report.total_base_steps
        outcomes.append(
            PhaseOutcome(
                index=index,
                edge=edge,
                ratio=ratio,
                steps=report.total_base_steps,
                method=estimator,
                lambda_bound=lazy_lambda,
                lambda_source=source,
                report=report if estimator == "dynamite" else None,  # perfbench would count a static one as adaptive
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
        estimator=estimator,
    )
