"""Planted-partition graphs and loose-connectedness diagnostics.

The simplified model has r equal communities of size n/r; a within-community
pair is an edge with probability p, a cross pair with probability q/(r-1).
The looseness figure zeta bounds the chance that a uniform proper coloring of
the cut-removed graph makes some cut edge monochromatic.  Zeta is measured
for reports only; the estimators never consume it.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Optional

import numpy as np

from .adaptive import uniform_mixing_steps
from .chains import ScalarFunction
from .coloring import Graph, coloring_space_size, enumerate_colorings, glauber_kernel, greedy_coloring
from .errors import GuardError
from .rng import WARMUP, as_generator, stream

EXACT_ZETA_AUTO_CAP = 10 ** 6
EXACT_ZETA_HARD_CAP = 10 ** 8
EXACT_ZETA_CHUNK = 4096  # colorings per vectorised indicator evaluation


@dataclasses.dataclass(frozen=True)
class PlantedParams:
    """Simplified planted-partition parameters (equal community sizes)."""

    n: int
    communities: int
    within_prob: float
    cross_mass: float

    def __post_init__(self):
        n, r = self.n, self.communities
        if r < 1 or n < 1:
            raise ValueError("need at least one vertex and one community")
        if n % r != 0:
            raise ValueError(f"communities must divide the vertex count, got n={n}, r={r}")
        if not 0.0 <= self.within_prob <= 1.0:
            raise ValueError("within-community probability must lie in [0, 1]")
        if not 0.0 <= self.cross_mass <= 1.0:
            raise ValueError("cross probability mass must lie in [0, 1]")
        if r == 1 and self.cross_mass > 0:
            raise ValueError("a single community admits no cross edges (q must be 0)")

    @property
    def cross_prob(self) -> float:
        return 0.0 if self.communities == 1 else self.cross_mass / (self.communities - 1)


@dataclasses.dataclass(frozen=True)
class PartitionedGraph:
    graph: Graph
    communities: np.ndarray

    def members(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.communities == j)

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "communities": [int(c) for c in self.communities],
        }


def generate(params: PlantedParams, rng) -> PartitionedGraph:
    """Draw a graph from the simplified model; deterministic per seed.

    Community j holds the contiguous vertex block [j*n/r, (j+1)*n/r).
    """
    gen = as_generator(rng)
    n, r = params.n, params.communities
    labels = np.arange(n) // (n // r)
    prob = np.where(labels[:, None] == labels[None, :], params.within_prob, params.cross_prob)
    draws = gen.random((n, n))
    iu, ju = np.triu_indices(n, k=1)
    mask = draws[iu, ju] < prob[iu, ju]
    edges = tuple(zip(iu[mask].tolist(), ju[mask].tolist()))
    return PartitionedGraph(graph=Graph(n, edges), communities=labels)


def cut_set(pg: PartitionedGraph, j: int):
    """Edges with exactly one endpoint in community j."""
    if not 0 <= j < int(pg.communities.max(initial=0)) + 1:
        raise ValueError(f"no community {j}")
    inside = set(int(v) for v in pg.members(j))
    return [e for e in pg.graph.edges if (e[0] in inside) != (e[1] in inside)]


@dataclasses.dataclass(frozen=True)
class ZetaEstimate:
    value: float
    radius: float
    mode: str
    samples: int

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def _monochromatic_indicator(cut) -> ScalarFunction:
    cut_arr = np.asarray(cut, dtype=np.int64)

    def batch(colorings):
        arr = np.asarray(colorings)
        return np.any(arr[..., cut_arr[:, 0]] == arr[..., cut_arr[:, 1]], axis=-1).astype(float)

    return ScalarFunction(batch, lo=0.0, hi=1.0, name="monochromatic-cut")


def zeta_estimate(
    pg: PartitionedGraph,
    j: int,
    k: int,
    sample_count: int,
    rng=0,
    *,
    exact: Optional[bool] = None,
    lambda_bound: Optional[float] = None,
    warmup: Optional[int] = None,
    thin: Optional[int] = None,
) -> ZetaEstimate:
    """Probability that some cut edge of community j is monochromatic.

    Colorings are drawn uniformly from the proper colorings of the graph with
    the cut removed, exactly (enumeration) when k^n is within brute-force
    range, otherwise empirically via warm-started single-site sampling with a
    normal-approximation binomial radius at 95%.
    """
    if sample_count < 1:
        raise ValueError("sample count must be >= 1")
    cut = cut_set(pg, j)
    if not cut:
        return ZetaEstimate(value=0.0, radius=0.0, mode="exact", samples=0)
    removed = set((min(u, v), max(u, v)) for u, v in cut)
    remaining = tuple(e for e in pg.graph.edges if e not in removed)
    stripped = Graph(pg.graph.n, remaining)
    if k < stripped.d_max + 2:
        raise GuardError(
            f"need k >= d_max + 2 = {stripped.d_max + 2} on the cut-removed graph, got k={k}"
        )
    indicator = _monochromatic_indicator(cut)

    size = coloring_space_size(pg.graph.n, k)
    if exact is None:
        exact = size <= EXACT_ZETA_AUTO_CAP
    if exact:
        if size > EXACT_ZETA_HARD_CAP:
            raise GuardError(f"exact mode guarded at k^n <= {EXACT_ZETA_HARD_CAP}")
        hits = 0
        total = 0
        colorings = enumerate_colorings(stripped, k)
        while chunk := list(itertools.islice(colorings, EXACT_ZETA_CHUNK)):
            total += len(chunk)
            hits += int(indicator.values(np.array(chunk)).sum())
        return ZetaEstimate(value=hits / total, radius=0.0, mode="exact", samples=total)

    raw = (1.0 - 1.0 / (stripped.n ** 2 * k)) if lambda_bound is None else float(lambda_bound)
    lazy_lambda = 0.5 * (1.0 + raw)
    kernel = glauber_kernel(stripped, k)
    tau = uniform_mixing_steps(lazy_lambda, 1.0 / size) if warmup is None else int(warmup)
    spacing = max(1, stripped.n * k) if thin is None else int(thin)
    gen = stream(rng, WARMUP) if isinstance(rng, (int, np.integer)) else rng
    state = greedy_coloring(stripped, k)
    if tau:
        state = kernel.path(state, tau, gen)[-1]
    hits = 0.0
    for _ in range(sample_count):
        state = kernel.path(state, spacing, gen)[-1]
        hits += indicator(state)
    p = hits / sample_count
    radius = 1.96 * math.sqrt(max(p * (1 - p), 1e-12) / sample_count)
    return ZetaEstimate(value=float(p), radius=float(radius), mode="sampled", samples=sample_count)
