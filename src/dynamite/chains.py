"""Markov kernels, bounded functions on states, and chain constructions.

Every kernel has exactly one sampler, a path sampler ``(start, k, rng) -> k
states``; ``TransitionKernel.path`` is the one sampling entry point.  Small
chains (cycles, projections, enumerated Glauber kernels) also carry an
explicit row-stochastic matrix so the dense spectral oracle can analyse them;
the samplers never require it.  Every function on states has exactly one
evaluator, the vectorised ``batch``.

A kernel carries no eigenvalue bound: the bound is a claim about the chain
that the caller makes, and every estimator takes it as an argument.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GuardError

ROW_SUM_TOL = 1e-12
LUMPABILITY_TOL = 1e-9


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


@dataclasses.dataclass(frozen=True)
class ScalarFunction:
    """Bounded real function on states with a declared range [lo, hi].

    ``batch`` is the one evaluator: it maps an array of states (first axis
    indexes states) to their values.  Calling the function on one state
    evaluates a batch of one.  Every evaluation checks the declared range.
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


def identity_kernel(n: int) -> TransitionKernel:
    """The absorbing identity chain (useful only as a degenerate fixture)."""
    return matrix_kernel(np.eye(n), f"identity-{n}", is_lazy=True, is_reversible=True)


def make_two_state_uniform() -> TransitionKernel:
    """Two states, every entry 1/2: second eigenvalue exactly zero."""
    return matrix_kernel(np.full((2, 2), 0.5), "two-state-uniform", is_lazy=True, is_reversible=True)


def make_cycle(n: int) -> TransitionKernel:
    """Lazy random walk on the n-cycle: hold 1/2, move to either neighbour 1/4.

    Stationary distribution is uniform and the second absolute eigenvalue is
    exactly cos(pi/n)^2, so the relaxation time grows as Theta(n^2).
    """
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    m = np.zeros((n, n))
    for i in range(n):
        m[i, i] = 0.5
        m[i, (i + 1) % n] += 0.25
        m[i, (i - 1) % n] += 0.25

    def sample_path(start, k, rng):
        r = rng.integers(0, 4, size=k)
        inc = (r == 3).astype(np.int64) - (r == 0).astype(np.int64)
        return (int(start) + np.cumsum(inc)) % n

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
    exactly 1/2 and the variance exactly 1/4 for every admissible i.
    """
    if not 1 <= i <= n // 2:
        raise ValueError(f"block half-width must satisfy 1 <= i <= n/2, got i={i}, n={n}")
    if n % (2 * i) != 0:
        raise ValueError(
            f"2i must divide n for equal block masses (got n={n}, i={i}); "
            "otherwise the stationary mean is not 1/2"
        )
    period = 2 * i

    def batch(xs):
        return ((np.asarray(xs) % period) >= i).astype(float)

    return ScalarFunction(batch, lo=0.0, hi=1.0, name=f"block-f{i}")


def indicator_function(states: Sequence[int], name: str = "indicator") -> ScalarFunction:
    arr = np.array(sorted({int(s) for s in states}))

    def batch(xs):
        return np.isin(np.asarray(xs), arr).astype(float)

    return ScalarFunction(batch, lo=0.0, hi=1.0, name=name)


# ---------------------------------------------------------------------------
# chain constructions


def lazify(kernel: TransitionKernel) -> TransitionKernel:
    """Hold with probability 1/2, else take one base step.

    Halves the spectral gap: a bound L on the base chain becomes (1+L)/2,
    which the caller passes to the estimators.
    """
    matrix = None
    if kernel.matrix is not None:
        matrix = 0.5 * (np.eye(kernel.matrix.shape[0]) + kernel.matrix)

    def sample_path(start, k, rng):
        out = []
        state = start
        for _ in range(k):
            if rng.random() >= 0.5:
                state = kernel.path(state, 1, rng)[-1]
            out.append(state)
        return out

    return TransitionKernel(
        name=f"lazy({kernel.name})",
        sample_path=sample_path,
        matrix=matrix,
        is_lazy=True,
        is_reversible=kernel.is_reversible,
        validate_start=kernel.validate_start,
    )


def mod_partition(n: int, modulus: int):
    """Partition 0..n-1 by residue mod ``modulus``."""
    return [[s for s in range(n) if s % modulus == c] for c in range(modulus)]


def project_chain(kernel: TransitionKernel, classes: Sequence[Sequence[int]]) -> TransitionKernel:
    """Lump states into equivalence classes when the partition is compatible.

    The lumped transition from class [x] to class [y] is the common row mass
    sum_{y' in [y]} M(x, y'); compatibility requires that mass to be the same
    for every x in [x] (checked to 1e-9, rejecting with the violating pair).
    """
    if kernel.matrix is None:
        raise ValueError("project_chain needs an explicit matrix")
    m = kernel.matrix
    n = m.shape[0]
    blocks = [list(map(int, b)) for b in classes]
    seen = sorted(s for b in blocks for s in b)
    if seen != list(range(n)):
        raise ValueError("classes must partition the state space exactly once")
    c = len(blocks)
    lumped_rows = np.zeros((n, c))
    for j, block in enumerate(blocks):
        lumped_rows[:, j] = m[:, block].sum(axis=1)
    for j, block in enumerate(blocks):
        ref = lumped_rows[block[0]]
        for x in block[1:]:
            dev = np.abs(lumped_rows[x] - ref)
            if dev.max() > LUMPABILITY_TOL:
                tgt = int(np.argmax(dev))
                raise GuardError(
                    f"partition not lumpable: states {block[0]} and {x} of class {j} "
                    f"disagree on class {tgt} mass ({ref[tgt]:.9f} vs {lumped_rows[x][tgt]:.9f})"
                )
    proj = np.array([lumped_rows[block[0]] for block in blocks])
    return matrix_kernel(
        proj,
        name=f"proj({kernel.name},{c})",
        is_lazy=kernel.is_lazy,
        is_reversible=kernel.is_reversible,
    )


def project_function(f: ScalarFunction, classes: Sequence[Sequence[int]]) -> ScalarFunction:
    """Induce f on the lumped states; f must be constant on every class."""
    reps = []
    for j, block in enumerate(classes):
        vals = {f(s) for s in block}
        if len(vals) > 1:
            raise ValueError(f"function is not constant on class {j}: values {sorted(vals)}")
        reps.append(vals.pop())
    table = np.array(reps, dtype=float)
    return ScalarFunction(lambda xs: table[np.asarray(xs, dtype=int)], lo=f.lo, hi=f.hi, name=f"proj({f.name})")
