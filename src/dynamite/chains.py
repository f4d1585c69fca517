"""Markov kernels and bounded functions on states.

Every kernel has exactly one sampler, a path sampler ``(start, k, rng) -> k
states``.  Estimators consume a chain only through ``TransitionKernel.advance``,
which walks it with one ``path`` call per span of whole blocks (at most
max(``CHUNK``, block) steps) and returns the last state and the means of f
over consecutive blocks.  Small chains (cycles, enumerated Glauber kernels)
also carry an explicit row-stochastic matrix so the dense spectral oracle can
analyse them; the samplers never require it.  Every function on states has
exactly one evaluator, the vectorised ``batch``.

A kernel carries no eigenvalue bound: the bound is a claim about the chain
that the caller makes, and every estimator takes it as an argument.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

import numpy as np

ROW_SUM_TOL = 1e-12
CHUNK = 1 << 14  # most steps ``TransitionKernel.advance`` asks ``path`` for per call, or one block if longer


@dataclasses.dataclass(frozen=True)
class TransitionKernel:
    """A samplable Markov transition with optional explicit matrix and metadata.

    Attributes:
        name: human-readable identifier used in reports.
        sample_path: the sampler, ``(start, k, rng) -> k states``; the start
            itself is excluded and the first axis indexes steps.
        matrix: explicit row-stochastic matrix for small enumerated chains.
        is_lazy: claim that every state holds with probability >= 1/2.
        is_reversible: claim that detailed balance holds at stationarity.
        validate_start: optional predicate raising on invalid start states.
    """

    name: str
    sample_path: Callable[[object, int, np.random.Generator], object]
    matrix: Optional[np.ndarray] = None
    is_lazy: bool = False
    is_reversible: bool = False
    validate_start: Optional[Callable[[object], None]] = None

    def __post_init__(self):
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"kernel {self.name!r}: matrix must be square, got {m.shape}")
            if np.any(m < -ROW_SUM_TOL):
                raise ValueError(f"kernel {self.name!r}: negative transition probability")
            rows = m.sum(axis=1)
            if np.max(np.abs(rows - 1.0)) > ROW_SUM_TOL:
                raise ValueError(
                    f"kernel {self.name!r}: rows must sum to 1 within {ROW_SUM_TOL}, "
                    f"worst deviation {np.max(np.abs(rows - 1.0)):.3e}"
                )
            if self.is_lazy and np.min(np.diag(m)) < 0.5 - ROW_SUM_TOL:
                raise ValueError(
                    f"kernel {self.name!r}: lazy claim violated, "
                    f"min diagonal {np.min(np.diag(m)):.6f} < 1/2"
                )
            object.__setattr__(self, "matrix", m)

    @property
    def n_states(self) -> Optional[int]:
        """Size of the state space ``0..n_states-1`` when a matrix is present."""
        return None if self.matrix is None else self.matrix.shape[0]

    def check_start(self, state) -> None:
        if self.validate_start is not None:
            self.validate_start(state)
        elif self.n_states is not None:
            s = int(state)
            if not 0 <= s < self.n_states:
                raise ValueError(
                    f"kernel {self.name!r}: start state {state!r} outside 0..{self.n_states - 1}"
                )

    def path(self, start, length: int, rng: np.random.Generator):
        """Run ``length`` steps from ``start`` (excluded) and return the visited states."""
        return self.sample_path(start, length, rng)

    def advance(self, state, steps: int, rng: np.random.Generator, f: Optional[ScalarFunction] = None,
                block: int = 1):
        """Run ``steps`` steps from ``state``: (last state, means of f over the length-``block`` blocks).

        The start is checked first; with no steps it comes back as given, and
        without ``f`` the means are None.  The walk is one ``path`` call per
        span of whole blocks, as many as fit in ``CHUNK`` steps and at least
        one, so at most max(CHUNK, block) states exist at once.  Each mean is
        taken over one contiguous row, so the means are bit for bit those of
        one whole path ``p``, ``f.values(p).reshape(-1, block).mean(axis=1)``.
        When ``block > CHUNK`` each call is one block: the cycle and matrix
        samplers draw per step, so their paths are still those of one whole
        walk, but a Glauber kernel would group its draws per block.
        """
        if block < 1 or steps < 0 or steps % block:
            raise ValueError(f"kernel {self.name!r}: {steps} steps are not whole blocks of {block}")
        self.check_start(state)
        means = None if f is None else np.empty(steps // block)
        span = max(1, CHUNK // block) * block
        for lo in range(0, steps, span):
            path = self.path(state, min(span, steps - lo), rng)
            state = path[-1]
            if f is not None:
                means[lo // block:(lo + span) // block] = f.values(path).reshape(-1, block).mean(axis=1)
        return state, means


@dataclasses.dataclass(frozen=True)
class ScalarFunction:
    """Bounded real function on states with a declared range [lo, hi].

    ``batch`` is the one evaluator: it maps an array of states (first axis
    indexes states) to their values, each state's value independent of the
    rest of the batch, so that a path evaluated in slices gives the same
    values.  Calling the function on one state evaluates a batch of one.
    Every evaluation checks the declared range.
    """

    batch: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float
    name: str = "f"

    def __post_init__(self):
        if not self.hi >= self.lo:
            raise ValueError(f"function {self.name!r}: declared range is empty")

    @property
    def value_range(self) -> float:
        return self.hi - self.lo

    def __call__(self, state) -> float:
        return float(self.values(np.asarray(state)[None])[0])

    def values(self, states) -> np.ndarray:
        """Evaluate on a batch of states (first axis indexes states)."""
        out = np.asarray(self.batch(np.asarray(states)), dtype=float)
        if out.size and not (out.min() >= self.lo - 1e-12 and out.max() <= self.hi + 1e-12):
            raise ValueError(f"function {self.name!r} left its declared range [{self.lo}, {self.hi}]: "
                             f"got values in [{out.min()}, {out.max()}]")
        return out


# ---------------------------------------------------------------------------
# matrix-backed kernels


def matrix_kernel(
    matrix,
    name: str,
    *,
    is_lazy: bool = False,
    is_reversible: bool = False,
) -> TransitionKernel:
    """Wrap an explicit row-stochastic matrix as a samplable kernel over 0..N-1."""
    m = np.asarray(matrix, dtype=float)
    cum = np.cumsum(m, axis=1)
    n = m.shape[0]
    iid_rows = bool(np.all(np.abs(m - m[0]) <= ROW_SUM_TOL))

    def sample_path(start, k, rng):
        u = rng.random(k)
        if iid_rows:
            return np.minimum(np.searchsorted(cum[0], u, side="right"), n - 1).astype(np.int64)
        out = np.empty(k, dtype=np.int64)
        s = int(start)
        for t in range(k):
            s = min(int(np.searchsorted(cum[s], u[t], side="right")), n - 1)
            out[t] = s
        return out

    return TransitionKernel(
        name=name,
        sample_path=sample_path,
        matrix=m,
        is_lazy=is_lazy,
        is_reversible=is_reversible,
    )


def make_two_state_uniform() -> TransitionKernel:
    """Two states, every entry 1/2: second eigenvalue exactly zero."""
    return matrix_kernel(np.full((2, 2), 0.5), "two-state-uniform", is_lazy=True, is_reversible=True)


def make_cycle(n: int) -> TransitionKernel:
    """Lazy random walk on the n-cycle: hold 1/2, move to either neighbour 1/4.

    Stationary distribution is uniform and the second absolute eigenvalue is
    exactly cos(pi/n)^2, so the relaxation time grows as Theta(n^2).

    The sampler draws one integer in 0..3 per step (0 steps back, 3 forward,
    1 and 2 hold), maps the draws to steps, sums them cumulatively in int32
    from the start, and reduces the path mod n.  ``advance`` asks for the
    path in spans; drawing the integers piece by piece consumes the generator
    exactly as one whole draw does, so the path and the generator's next draw
    match one whole walk.
    """
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    rows = np.arange(n)
    m = np.zeros((n, n))
    m[rows, rows] = 0.5
    m[rows, (rows + 1) % n] += 0.25
    m[rows, (rows - 1) % n] += 0.25

    def sample_path(start, k, rng):
        draws = rng.integers(0, 4, size=k, dtype=np.int32)
        out = np.cumsum(((draws + 1) >> 1) - 1, dtype=np.int32)  # draws 0, 1, 2, 3 step -1, 0, 0, +1
        out += int(start)
        # v mod n as v - n * (v // n): numpy floor-divides by a scalar with a precomputed
        # multiply and shift, where np.remainder runs one hardware division per state
        out -= n * (out // n)
        return out

    return TransitionKernel(
        name=f"cycle-{n}",
        sample_path=sample_path,
        matrix=m,
        is_lazy=True,
        is_reversible=True,
    )


def make_cycle_function(n: int, i: int) -> ScalarFunction:
    """Binary block function on the n-cycle: 0 on residues ``x mod 2i < i``, else 1.

    Requires 2i | n so that under the uniform stationary law the mean is
    exactly 1/2 and the variance exactly 1/4 for every admissible i.  The
    batch looks states up in a length-n table and refuses any state outside
    0..n-1.
    """
    if not 1 <= i <= n // 2:
        raise ValueError(f"block half-width must satisfy 1 <= i <= n/2, got i={i}, n={n}")
    if n % (2 * i) != 0:
        raise ValueError(
            f"2i must divide n for equal block masses (got n={n}, i={i}); "
            "otherwise the stationary mean is not 1/2"
        )
    table = ((np.arange(n) % (2 * i)) >= i).astype(float)

    def batch(xs):
        xs = np.asarray(xs)
        if xs.size and not (xs.min() >= 0 and xs.max() < n):
            raise ValueError(f"block-f{i}: states must lie in 0..{n - 1}, got [{xs.min()}, {xs.max()}]")
        return np.take(table, xs)

    return ScalarFunction(batch, lo=0.0, hi=1.0, name=f"block-f{i}")


def indicator_function(states: Sequence[int], name: str = "indicator") -> ScalarFunction:
    arr = np.array(sorted({int(s) for s in states}))

    def batch(xs):
        return np.isin(np.asarray(xs), arr).astype(float)

    return ScalarFunction(batch, lo=0.0, hi=1.0, name=name)
