"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's closed forms: stationary
vectors come from a null-space solve, autocovariances and trace variances
from explicit path enumeration, trace-chain matrices from enumerating trace
pairs, and step counts from a wrapper that tallies every sampled step, so
agreement is a genuine cross-check.
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
