"""Statistical kernel: paired-chain estimators and concentration closed forms.

The variance estimator follows the two-chain construction

    vhat = (1 / 2m) * sum_i (f(X_{1,i}) - f(X_{2,i}))^2,

which is unbiased for the stationary variance of f when both traces start at
stationarity; no Bessel correction is available for dependent samples.  The
same estimator applied to length-T block means estimates the inter-trace
variance.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np


SQRT21 = math.sqrt(21.0)


@dataclasses.dataclass(frozen=True)
class PairedEvaluations:
    """f evaluated along two independent equal-length traces, non-empty.

    Independence of the two traces is the caller's contract.
    """

    first: np.ndarray
    second: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.first, dtype=float)
        b = np.asarray(self.second, dtype=float)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError(f"paired evaluations need equal-length vectors, got {a.shape} and {b.shape}")
        if a.size == 0:
            raise ValueError("paired evaluations need at least one pair")
        object.__setattr__(self, "first", a)
        object.__setattr__(self, "second", b)

    @property
    def m(self) -> int:
        return self.first.shape[0]


def checked_lambda(lambda_bound):
    """``lambda_bound`` as given, refused with ValueError unless it lies in [0, 1) (nan included).

    The one range check on an eigenvalue bound: the estimators, the schedule
    and the coloring counter all call it, and the CLI reports its message.
    """
    if not 0.0 <= lambda_bound < 1.0:
        raise ValueError(f"lambda bound must lie in [0, 1), got {lambda_bound}")
    return lambda_bound


@dataclasses.dataclass(frozen=True)
class ConcentrationParams:
    """Inputs shared by every displayed bound: eigenvalue bound, range, budget, size."""

    lambda_bound: float
    value_range: float
    delta_prime: float
    m: int

    def __post_init__(self):
        checked_lambda(self.lambda_bound)
        if self.value_range < 0:
            raise ValueError("range must be nonnegative")
        if not 0.0 < self.delta_prime < 1.0:
            raise ValueError(f"failure budget must lie in (0, 1), got {self.delta_prime}")
        if self.m < 1:
            raise ValueError(f"sample count must be >= 1, got {self.m}")

    @property
    def log_term(self) -> float:
        return math.log(1.0 / self.delta_prime)


def empirical_mean(paired: PairedEvaluations) -> float:
    """Mean over both chains: (1/2m) sum (f + f)."""
    return float((paired.first.sum() + paired.second.sum()) / (2 * paired.m))


def two_chain_variance(paired: PairedEvaluations) -> float:
    """Unbiased variance estimate (1/2m) sum (f - f)^2 from the paired traces."""
    diff = paired.first - paired.second
    return float(diff @ diff / (2 * paired.m))


def hoeffding_sample_complexity(params: ConcentrationParams, epsilon: float) -> int:
    """Steps sufficient for the range-based tail bound at additive radius epsilon."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    r = params.value_range
    if r == 0:
        return 0
    lam = params.lambda_bound
    m = (1 + lam) / (1 - lam) * math.log(2.0 / params.delta_prime) * r * r / (2 * epsilon * epsilon)
    return int(math.ceil(m))


def bernstein_sample_complexity(params: ConcentrationParams, variance: float, epsilon: float) -> int:
    """Steps sufficient for the variance-aware tail bound at radius epsilon."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    r = params.value_range
    if r == 0 and variance == 0:
        return 0
    lam = params.lambda_bound
    m = (2.0 / (1 - lam)) * math.log(2.0 / params.delta_prime) * (
        5 * r / epsilon + (1 + lam) * variance / (epsilon * epsilon)
    )
    return int(math.ceil(m))


def variance_upper_bound(vhat: float, params: ConcentrationParams) -> float:
    """High-probability upper confidence bound on the true variance given vhat.

    u = vhat + (11 + sqrt(21)) (1 + lam/sqrt(21)) R^2 L / ((1 - lam) m)
             + sqrt((1 + lam) R^2 vhat L / ((1 - lam) m)),   L = ln(1/delta').
    """
    lam, r, m = params.lambda_bound, params.value_range, params.m
    ell = params.log_term
    correction = (11.0 + SQRT21) * (1.0 + lam / SQRT21) * r * r * ell / ((1 - lam) * m)
    cross = math.sqrt((1 + lam) * r * r * vhat * ell / ((1 - lam) * m))
    return float(vhat + correction + cross)


def bernstein_radius(u: float, params: ConcentrationParams) -> float:
    """Data-dependent confidence radius given a variance upper bound u.

    eps_hat = 10 R L / ((1 - lam) m) + sqrt((1 + lam) u L / ((1 - lam) m)).
    """
    if u < 0:
        raise ValueError("variance bound must be nonnegative")
    lam, r, m = params.lambda_bound, params.value_range, params.m
    ell = params.log_term
    return float(10 * r * ell / ((1 - lam) * m) + math.sqrt((1 + lam) * u * ell / ((1 - lam) * m)))

