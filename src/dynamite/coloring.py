"""Graph colorings: Glauber dynamics, exact counting, and the telescoping counter.

The counting pipeline walks the prefixes of one edge order.  Phase i samples
uniform proper colorings of the graph made of the first i - 1 edges and
estimates the probability that gamma(u) != gamma(v) for edge i, (u, v); that
probability is exactly the ratio of the two consecutive coloring counts, so
the product of all phase ratios times k^n telescopes to the count for the
full graph.

That probability reads only the colors of the connected components of u and v
in the sampling graph, the phase's support.  Colorings of a graph are
independent across its components, and a single-site move only looks at its
own vertex's neighbours, so each phase walks the chain's marginal on its
support alone (``glauber_kernel(graph, k, support)``): the generator draws
exactly as the whole chain's, proposals elsewhere count as holds, and the
path is the whole chain's path restricted to the support, bit for bit.

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

from .adaptive import EstimateReport, static_estimate, warm_start
from .chains import ScalarFunction, TransitionKernel
from .errors import GuardError, StatisticalFailure
from .estimators import checked_lambda
from .records import Record
from .rng import PHASE, child_seed
from .spectral import MATRIX_CAP

BRUTE_FORCE_CAP = 10 ** 8
CHUNK = 4096  # path rows the Glauber sampler rebuilds per cumulative sum


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

    The sampler draws every hold, vertex and color of the path up front, then
    walks only the proposed moves on ``vertices`` in chunks of ``CHUNK``
    steps, records each accepted move as its proposal index and color change,
    scatters the changes into the chunk's int16 rows from arrays, and
    rebuilds the rows by a cumulative sum from the colors at its start.
    Colors above the int16 range are refused here, before any sampling.
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
    local = np.full(n, -1, dtype=np.intp)  # each vertex's position in a state, -1 off the support
    local[support] = np.arange(len(support))
    walked = local >= 0
    induced = Graph(len(support), tuple((local[u], local[v]) for u, v in graph.edges if walked[u]))
    adjacency = [list(a) for a in induced.adjacency]

    def sample_path(state, steps, rng):
        colors = [int(x) for x in state]
        hold = rng.random(steps) < 0.5
        us = rng.integers(0, n, size=steps)
        cs = rng.integers(1, k + 1, size=steps)
        live = ~hold & walked[us]
        out = np.zeros((steps, len(support)), dtype=np.int16)
        for lo in range(0, steps, CHUNK):
            hi = min(lo + CHUNK, steps)
            block = out[lo:hi]
            block[0] = colors
            moves = np.flatnonzero(live[lo:hi])
            proposed_u, proposed_c = local[us[lo:hi][moves]], cs[lo:hi][moves]
            accepted, changes = [], []  # accepted moves: proposal index, color change
            for i, u, c in zip(range(len(moves)), proposed_u.tolist(), proposed_c.tolist()):
                old = colors[u]
                if old != c:
                    for w in adjacency[u]:
                        if colors[w] == c:
                            break
                    else:
                        colors[u] = c
                        accepted.append(i)
                        changes.append(c - old)
            # explicit dtypes: a chunk with no accepted move gives empty lists, and
            # np.array([]) is float64, which can neither index nor add into int16 rows
            acc = np.array(accepted, dtype=np.intp)
            block[moves[acc], proposed_u[acc]] += np.array(changes, dtype=np.int16)
            np.cumsum(block, axis=0, out=block)
        return out

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


def coloring_lambda(graph: Graph, k: int, lambda_bound: Optional[float] = None):
    """The lazy Glauber chain's eigenvalue bound on ``graph``: (lazy lambda, source).

    The raw chain's second absolute eigenvalue is bounded by, in this order:

    * ``caller``: ``lambda_bound``, the caller's bound, which must lie in [0, 1);
    * ``jerrum``: 1 - (k - 2 d_max)/(k n) when k >= 2 d_max + 1.  Path coupling
      (Jerrum 1995; Bubley and Dyer 1997) contracts the Hamming distance by
      that factor per step, and a contraction bounds every non-unit
      eigenvalue (Levin, Peres and Wilmer, Thm 13.1);
    * ``heuristic``: 1 - 1/(n^2 k), which is unproven and false on some
      graphs (the star K1,4 at k=3).

    The hold makes the bound (1 + L)/2.
    """
    if lambda_bound is not None:
        raw = checked_lambda(float(lambda_bound))
        source = "caller"
    elif k >= 2 * graph.d_max + 1:
        raw = 1.0 - (k - 2 * graph.d_max) / (k * graph.n)
        source = "jerrum"
    else:
        raw = 1.0 - 1.0 / (graph.n ** 2 * k)
        source = "heuristic"
    return 0.5 * (1.0 + raw), source


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

    The phases walk the prefixes of one edge order: phase i samples the graph
    made of the first i - 1 edges and estimates the chance that edge i's
    endpoints differ.  The order is the graph's edge order; without a caller
    bound, ``_jerrum_last_edge`` may move one hub edge last.

    Each of the #E phases estimates its ratio to additive precision epsilon/#E
    with failure budget delta/#E from a warm-started lazified single-site
    chain; the union bound gives total failure at most delta.  ``lambda_bound``
    is the caller's bound on the raw chain's second absolute eigenvalue.  When
    it is omitted and Jerrum's bound covers the largest sampling graph, every
    phase uses that one bound, as in Jerrum's scheme: the sampling graphs are
    nested, so it holds on each, and every phase runs the same T, tau and m.
    Otherwise each phase takes ``coloring_lambda`` of its own sampling graph,
    so phases a proof covers keep it.  Every phase outcome records the bound
    it used and its source.

    Each phase walks the chain's marginal on its support, the components of
    its edge's endpoints in its sampling graph, from the greedy coloring of
    the sampling graph restricted to the support.  Three things carry over
    from the whole chain unchanged:

    * lambda: the marginal's transition operator is the whole chain's acting
      on functions of the support, so its eigenfunctions are eigenfunctions of
      the whole chain, and the whole chain's bound bounds it;
    * pi_min = 1/k^n: every marginal stationary probability is a sum of the
      whole chain's, so it still lower-bounds them;
    * T, tau, m and the step counts: they follow from lambda, pi_min,
      epsilon and delta alone, and the generator draws as for the whole chain.

    So every path, estimate and step count is the whole chain's, bit for bit.
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
        raise GuardError(
            f"ergodicity floor: k={k} is below the admissible minimum {floor} "
            f"for this graph's sampling phases (degeneracy + 2)"
        )
    if order:  # an edgeless graph has k^n colorings: no phase, bound or size check
        eps_i = epsilon / len(order)
        delta_i = delta / len(order)
        pi_min = 1.0 / coloring_space_size(graph.n, k)
        shared = coloring_lambda(Graph(graph.n, order[:-1]), k, lambda_bound)

    outcomes = []
    log_count = graph.n * math.log(k)
    total_steps = 0
    for index, edge in enumerate(order, 1):
        sampling_graph = Graph(graph.n, order[:index - 1])
        support = sampling_graph.components_of(edge)
        fn = _phase_indicator(edge, support)
        lazy_lambda, source = shared if shared[1] != "heuristic" else coloring_lambda(sampling_graph, k)
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
