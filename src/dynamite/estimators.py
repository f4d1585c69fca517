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


def _log_term(lambda_bound, value_range, delta_prime, m=1) -> float:
    """ln(1/delta'), once lambda in [0, 1), R >= 0, delta' in (0, 1) and m >= 1 are checked (ValueError)."""
    checked_lambda(lambda_bound)
    if value_range < 0:
        raise ValueError("range must be nonnegative")
    if not 0.0 < delta_prime < 1.0:
        raise ValueError(f"failure budget must lie in (0, 1), got {delta_prime}")
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    return math.log(1.0 / delta_prime)


def empirical_mean(paired: PairedEvaluations) -> float:
    """Mean over both chains: (1/2m) sum (f + f)."""
    return float((paired.first.sum() + paired.second.sum()) / (2 * paired.m))


def two_chain_variance(paired: PairedEvaluations) -> float:
    """Unbiased variance estimate (1/2m) sum (f - f)^2 from the paired traces."""
    diff = paired.first - paired.second
    return float(diff @ diff / (2 * paired.m))


def hoeffding_sample_complexity(lambda_bound: float, value_range: float, delta_prime: float, epsilon: float) -> int:
    """Steps sufficient for the range-based tail bound at additive radius epsilon."""
    _log_term(lambda_bound, value_range, delta_prime)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    lam, r = lambda_bound, value_range
    return math.ceil((1 + lam) / (1 - lam) * math.log(2.0 / delta_prime) * r * r / (2 * epsilon * epsilon))


def bernstein_sample_complexity(lambda_bound: float, value_range: float, delta_prime: float, variance: float,
                                epsilon: float) -> int:
    """Steps sufficient for the variance-aware tail bound at radius epsilon."""
    _log_term(lambda_bound, value_range, delta_prime)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    lam, r = lambda_bound, value_range
    return math.ceil((2.0 / (1 - lam)) * math.log(2.0 / delta_prime) * (
        5 * r / epsilon + (1 + lam) * variance / (epsilon * epsilon)
    ))


def variance_upper_bound(vhat: float, lambda_bound: float, value_range: float, delta_prime: float, m: int) -> float:
    """High-probability upper confidence bound on the true variance given vhat.

    u = vhat + (11 + sqrt(21)) (1 + lam/sqrt(21)) R^2 L / ((1 - lam) m)
             + sqrt((1 + lam) R^2 vhat L / ((1 - lam) m)),   L = ln(1/delta').
    """
    ell = _log_term(lambda_bound, value_range, delta_prime, m)
    lam, r = lambda_bound, value_range
    correction = (11.0 + SQRT21) * (1.0 + lam / SQRT21) * r * r * ell / ((1 - lam) * m)
    cross = math.sqrt((1 + lam) * r * r * vhat * ell / ((1 - lam) * m))
    return float(vhat + correction + cross)


def bernstein_radius(u: float, lambda_bound: float, value_range: float, delta_prime: float, m: int) -> float:
    """Data-dependent confidence radius given a variance upper bound u.

    eps_hat = 10 R L / ((1 - lam) m) + sqrt((1 + lam) u L / ((1 - lam) m)).
    """
    ell = _log_term(lambda_bound, value_range, delta_prime, m)
    if u < 0:
        raise ValueError("variance bound must be nonnegative")
    lam, r = lambda_bound, value_range
    return float(10 * r * ell / ((1 - lam) * m) + math.sqrt((1 + lam) * u * ell / ((1 - lam) * m)))
