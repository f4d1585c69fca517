"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's closed forms: stationary
vectors come from a null-space solve, autocovariances and trace variances
from explicit path enumeration, trace-chain matrices from enumerating trace
pairs, and step counts from a wrapper that tallies every sampled step; the
cycle sampler has its unblocked whole-path version, and the Glauber sampler
and the degeneracy peel have plain-loop reference versions.
So agreement is a genuine cross-check.
"""
import itertools

import numpy as np

import dynamite as dm


def stationary_nullspace(matrix):
    """Stationary row vector via the SVD null space of (M^T - I)."""
    m = np.asarray(matrix, dtype=float)
    a = m.T - np.eye(m.shape[0])
    _, _, vt = np.linalg.svd(a)
    pi = vt[-1]
    pi = np.abs(pi)
    return pi / pi.sum()


def enumerate_trace_mean(matrix, pi, fvals, horizon):
    """E[average of f along a stationary trace], by full enumeration."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    total = 0.0
    for trace in itertools.product(range(n), repeat=horizon):
        w = pi[trace[0]]
        for a, b in zip(trace, trace[1:]):
            w *= m[a, b]
        if w == 0.0:
            continue
        total += w * sum(fvals[s] for s in trace) / horizon
    return total


def enumerate_trace_variance(matrix, pi, fvals, horizon, mean=None):
    """Var[average of f along a stationary trace], by full enumeration."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    mu = float(pi @ fvals) if mean is None else mean
    total = 0.0
    for trace in itertools.product(range(n), repeat=horizon):
        w = pi[trace[0]]
        for a, b in zip(trace, trace[1:]):
            w *= m[a, b]
        if w == 0.0:
            continue
        avg = sum(fvals[s] for s in trace) / horizon
        total += w * (avg - mu) ** 2
    return total


def enumerate_autocovariance(matrix, pi, fvals, lag):
    """Cov(f(X_1), f(X_{1+lag})) by enumerating all length-(lag+1) paths."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    mu = float(pi @ fvals)
    total = 0.0
    for path in itertools.product(range(n), repeat=lag + 1):
        w = pi[path[0]]
        for a, b in zip(path, path[1:]):
            w *= m[a, b]
        if w == 0.0:
            continue
        total += w * (fvals[path[0]] - mu) * (fvals[path[-1]] - mu)
    return total


def trace_chain_stationary(matrix, pi, horizon):
    """pi^(T) over enumerated traces: pi(a1) * prod M(a_i, a_{i+1})."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    states = list(itertools.product(range(n), repeat=horizon))
    out = np.empty(len(states))
    for idx, trace in enumerate(states):
        w = pi[trace[0]]
        for a, b in zip(trace, trace[1:]):
            w *= m[a, b]
        out[idx] = w
    return states, out


def trace_chain_matrix(matrix, horizon):
    """Transition matrix of the chain over length-T traces, by enumeration.

    From trace a the next trace b has probability M(a_T, b_1) prod M(b_i, b_{i+1});
    rows and columns follow ``itertools.product`` order, as in
    ``trace_chain_stationary``.
    """
    m = np.asarray(matrix, dtype=float)
    states = list(itertools.product(range(m.shape[0]), repeat=horizon))
    last = np.array([a[-1] for a in states])
    out = np.empty((len(states), len(states)))
    for b_idx, b in enumerate(states):
        w = 1.0
        for x, y in zip(b, b[1:]):
            w *= m[x, y]
        out[:, b_idx] = m[last, b[0]] * w
    return out


class StepCounter:
    """Tally of base-chain steps consumed through a counting wrapper."""

    def __init__(self):
        self.count = 0


def counting_kernel(kernel):
    """Wrap a kernel so every sampled step increments a shared counter."""
    counter = StepCounter()

    def sample_path(state, k, rng):
        counter.count += k
        return kernel.sample_path(state, k, rng)

    wrapped = dm.TransitionKernel(
        name=f"counted({kernel.name})",
        sample_path=sample_path,
        matrix=kernel.matrix,
        is_lazy=kernel.is_lazy,
        is_reversible=kernel.is_reversible,
        validate_start=kernel.validate_start,
    )
    return wrapped, counter


def reference_cycle_path(n, start, steps, rng):
    """The lazy n-cycle sampler as one whole-path draw and cumulative sum."""
    r = rng.integers(0, 4, size=steps)
    inc = (r == 3).astype(np.int64) - (r == 0).astype(np.int64)
    return (int(start) + np.cumsum(inc)) % n


def reference_glauber_path(graph, k, state, steps, rng):
    """The lazy Glauber sampler as a plain per-step loop over the same draws."""
    n = graph.n
    adjacency = [list(a) for a in graph.adjacency]
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


def reference_peel(graph):
    """Degeneracy peel by a linear scan: (removal order, max degree at removal)."""
    deg = [len(a) for a in graph.adjacency]
    removed = [False] * graph.n
    order, best = [], 0
    for _ in range(graph.n):
        v = min((i for i in range(graph.n) if not removed[i]), key=lambda i: deg[i])
        order.append(v)
        best = max(best, deg[v])
        removed[v] = True
        for w in graph.adjacency[v]:
            if not removed[w]:
                deg[w] -= 1
    return order, best
