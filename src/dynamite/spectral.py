"""Exact dense-matrix analysis of small chains.

Everything here is ground truth for the statistical machinery: stationary
distributions, second absolute eigenvalues, relaxation times, stationary-lag
autocovariances, and the exact inter-trace variance

    v_T = v_pi / T + (2 / T^2) * sum_{i=1}^{T-1} (T - i) C_i.

Desk scale only: dense solvers, hard size cap.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Optional, Union

import numpy as np

from .chains import ScalarFunction, TransitionKernel, make_cycle, make_cycle_function
from .errors import GuardError, NotErgodicError
from .records import Record

MATRIX_CAP = 4096
HORIZON_CAP = 10 ** 6
"""Largest horizon ``exact_trace_variance`` takes: it runs one vector-matrix product per lag in
Python and stores T - 1 autocovariances, ~3 s and 8 MB at 10^6 on the 8-cycle (tests use <= 256)."""
WORK_CAP = 10 ** 10
"""Largest T * n^2 ``exact_trace_variance`` takes for an n-state chain: each lag is one n x n
vector-matrix product, ~2-4 s in all at the cap for n from 512 to 4096 (2-vCPU VM)."""
_UNIT_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class SpectralSummary(Record):
    """Stationary law, second absolute eigenvalue, and moments of an attached function."""

    stationary: np.ndarray
    second_eigenvalue: float
    relaxation_time: float
    mean: float
    stationary_variance: float
    pi_min: float


@dataclasses.dataclass(frozen=True)
class VarianceProfile(Record):
    """Exact trace variance at one horizon plus the autocovariances behind it."""

    horizon: int
    autocovariances: np.ndarray  # C_1 .. C_{T-1}
    trace_variance: float


@dataclasses.dataclass(frozen=True)
class SandwichVerdict(Record):
    horizon: int
    lower: float
    trace_variance: float
    upper: float
    passed: bool


def _as_matrix(chain: Union[TransitionKernel, np.ndarray]) -> np.ndarray:
    if isinstance(chain, TransitionKernel):
        if chain.matrix is None:
            raise ValueError(f"kernel {chain.name!r} has no explicit matrix to analyse")
        return chain.matrix
    m = np.asarray(chain, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _function_values(f: Union[ScalarFunction, np.ndarray], n: int) -> np.ndarray:
    if isinstance(f, ScalarFunction):
        return f.values(np.arange(n))
    vals = np.asarray(f, dtype=float)
    if vals.shape != (n,):
        raise ValueError(f"function values must have shape ({n},), got {vals.shape}")
    return vals


def _stationary(m: np.ndarray) -> np.ndarray:
    w, vecs = np.linalg.eig(m.T)
    idx = int(np.argmin(np.abs(w - 1.0)))
    if abs(w[idx] - 1.0) > 1e-6:
        raise NotErgodicError("not ergodic: no unit eigenvalue found")
    pi = np.real(vecs[:, idx])
    pi = pi / pi.sum()
    if np.min(pi) < -1e-8:
        raise NotErgodicError("not ergodic: stationary vector has negative mass")
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = np.max(np.abs(pi @ m - pi))
    if residual > _UNIT_TOL:
        raise NotErgodicError(f"not ergodic: stationary residual {residual:.3e}")
    return pi


def summarize(chain, f) -> SpectralSummary:
    """Full spectral summary of a small chain with an attached bounded function.

    The second eigenvalue is the largest absolute eigenvalue once the single
    unit eigenvalue is removed; two eigenvalues on the unit circle mean the
    chain is reducible or periodic and the analysis refuses.  Reversible
    chains are symmetrised by similarity with sqrt(pi) before the eigensolve,
    which keeps the spectrum real and the computation well conditioned.
    """
    m = _as_matrix(chain)
    n = m.shape[0]
    if n > MATRIX_CAP:
        raise GuardError(f"dense analysis capped at {MATRIX_CAP} states, got {n}")
    if n < 2:
        raise NotErgodicError("not ergodic: a single-state chain has no second eigenvalue")
    pi = _stationary(m)

    reversible = bool(
        np.min(pi) > 0
        and np.max(np.abs(pi[:, None] * m - (pi[:, None] * m).T)) < 1e-10
    )
    if reversible:
        d = np.sqrt(pi)
        sym = (d[:, None] * m) / d[None, :]
        eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        mags = np.sort(np.abs(eigs))[::-1]
    else:
        mags = np.sort(np.abs(np.linalg.eigvals(m)))[::-1]
    if mags[1] >= 1.0 - _UNIT_TOL:
        raise NotErgodicError(
            f"not ergodic: |eigenvalue| = {mags[1]:.12f} with multiplicity beyond the unit one"
        )
    lam = float(min(max(mags[1], 0.0), 1.0 - 1e-15))

    vals = _function_values(f, n)
    mean = float(pi @ vals)
    variance = float(pi @ (vals - mean) ** 2)
    return SpectralSummary(
        stationary=pi,
        second_eigenvalue=lam,
        relaxation_time=1.0 / (1.0 - lam),
        mean=mean,
        stationary_variance=variance,
        pi_min=float(np.min(pi)),
    )


def check_horizon(n: int, T: int) -> None:
    """Refuse a horizon below 1 (ValueError), above ``HORIZON_CAP`` or with T n^2 above ``WORK_CAP`` (GuardError)."""
    if T < 1:
        raise ValueError(f"horizon T must be >= 1, got {T}")
    if T > HORIZON_CAP:
        raise GuardError(f"horizon T capped at {HORIZON_CAP:,}, got {T:,}")
    if T * n * n > WORK_CAP:
        raise GuardError(f"horizon work T * n^2 capped at {WORK_CAP:,}, got {T:,} * {n}^2 = {T * n * n:,}")


def exact_trace_variance(chain, f, T: int, summary: Optional[SpectralSummary] = None) -> VarianceProfile:
    """Closed-form inter-trace variance from the stationary autocovariances C_i."""
    m = _as_matrix(chain)
    n = m.shape[0]
    check_horizon(n, T)
    vals = _function_values(f, n)
    s = summary if summary is not None else summarize(chain, vals)
    centered = vals - s.mean
    weighted = s.stationary * centered  # one step of m per lag: C_i = weighted @ m^i @ centered
    covs = np.empty(max(T - 1, 0))
    acc = 0.0
    for i in range(1, T):
        weighted = weighted @ m
        c = float(weighted @ centered)
        covs[i - 1] = c
        acc += (T - i) * c
    v = s.stationary_variance / T + 2.0 * acc / (T * T)
    return VarianceProfile(horizon=T, autocovariances=covs, trace_variance=float(v))


def check_sandwich(chain, f, profile: VarianceProfile, summary: Optional[SpectralSummary] = None) -> SandwichVerdict:
    """Check v_pi/T <= v_T <= 2 tau_rel v_pi / T for ``profile``, f's v_T on a lazy reversible chain."""
    if isinstance(chain, TransitionKernel) and not (chain.is_lazy and chain.is_reversible):
        raise ValueError(f"sandwich bound needs a lazy reversible chain, got {chain.name!r}")
    s = summary if summary is not None else summarize(chain, f)
    T = profile.horizon
    lower = s.stationary_variance / T
    upper = 2.0 * s.relaxation_time * s.stationary_variance / T
    slack = 1e-10
    ok = (lower - slack <= profile.trace_variance <= upper + slack)
    return SandwichVerdict(
        horizon=T,
        lower=float(lower),
        trace_variance=profile.trace_variance,
        upper=float(upper),
        passed=bool(ok),
    )


def cycle_separation_profile(n: int, T: int):
    """Exact v_T for every admissible block function on the n-cycle.

    Returns a list of (i, trace_variance) sorted by block half-width i; the
    admissible i are exactly those with 2i | n.
    """
    kernel = make_cycle(n)
    rows = []
    for i in range(1, n // 2 + 1):
        if n % (2 * i) != 0:
            continue
        f = make_cycle_function(n, i)
        s = summarize(kernel, f)
        prof = exact_trace_variance(kernel, f, T, summary=s)
        rows.append((i, prof.trace_variance))
    return rows
