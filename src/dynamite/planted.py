"""Planted-partition graphs: the simplified model and its community cuts.

The simplified model has r equal communities of size n/r; a within-community
pair is an edge with probability p, a cross pair with probability q/(r-1).
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .coloring import Graph
from .errors import GuardError
from .spectral import MATRIX_CAP


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


def generate(params: PlantedParams, rng) -> PartitionedGraph:
    """Draw a graph from the simplified model; deterministic per seed.

    Community j holds the contiguous vertex block [j*n/r, (j+1)*n/r).  The
    draw is a dense n x n array, so n above ``MATRIX_CAP`` is refused with
    GuardError before anything is allocated.
    """
    if params.n > MATRIX_CAP:
        raise GuardError(f"dense planted generation capped at {MATRIX_CAP} vertices, got n={params.n}")
    gen = np.random.default_rng(rng)  # an int seed, or a ready Generator as it is
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
