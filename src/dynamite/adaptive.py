"""Adaptive mean estimation with a doubling schedule over paired chains, and its static baseline.

One estimator loop with two entry points on top of it, and the fixed-size
baseline it is measured against:

* ``mcmc_pro`` runs two independent copies of a chain on a fixed doubling
  schedule, maintains the paired-chain variance estimate with its upper
  confidence bound, and stops at the first iteration whose data-dependent
  Bernstein radius meets the target.  With ``trace_length`` T each sample is
  the mean of f over a block of T consecutive base steps (a batch mean), so
  the estimator tracks the inter-trace variance instead of the stationary
  variance; the schedule uses lambda_bound**T, which bounds the blocks.
* ``dynamite`` picks T = ceil((1+L)/(1-L) ln sqrt 2), which brings the
  relaxation time of the block sequence to at most 2, and runs ``mcmc_pro``.
* ``warm_start`` starts from an arbitrary supported state, advances the
  paired chain for a uniform-mixing warm-up, then runs ``dynamite`` with the
  failure budget tightened to delta/4 as the nonstationarity correction.

Samples are cumulative: chains are extended across iterations, never
restarted, so the total cost is the final schedule size, not its sum.  Each
iteration walks both chains on by ``TransitionKernel.advance``, which returns
the new block means, and the warm-up walks them by it for their last states.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .chains import CHUNK, ScalarFunction, TransitionKernel
from .errors import GuardError
from .estimators import (
    ConcentrationParams,
    PairedEvaluations,
    bernstein_radius,
    bernstein_sample_complexity,
    checked_lambda,
    empirical_mean,
    hoeffding_sample_complexity,
    two_chain_variance,
    variance_upper_bound,
)
from .records import Record
from .rng import CHAIN_A, CHAIN_B, WARMUP, stream

LN_SQRT2 = math.log(math.sqrt(2.0))
_CEIL_NUDGE = 1e-9  # keep exact integer boundaries (e.g. log ratios) from rounding up

RADIUS_MET = "radius-met"
SCHEDULE_EXHAUSTED = "schedule-exhausted"
DEGENERATE_RANGE = "degenerate-range"
STATIC = "static"

STEP_CAP = 10 ** 9
"""Most base steps one run may plan (2 T m_I, plus 2 tau warm-up, or tau + m for static).

Every cost is known before sampling; a billion steps is minutes of Glauber
sampling and, at T = 1, 4 GB of ``mcmc_pro`` block means, while the tests and
the benchmark plan at most ~7.1e6.  Above it a request is refused, not run.
"""


def check_steps(planned: int) -> None:
    """Refuse a run that plans more than ``STEP_CAP`` base steps, with a GuardError."""
    if planned > STEP_CAP:
        raise GuardError(f"the run plans {planned:,} base steps, above the cap of {STEP_CAP:,}")


@dataclasses.dataclass(frozen=True)
class Schedule:
    """Doubling sample schedule with its shared per-bound failure budget."""

    iterations: int
    base_size: float
    sizes: tuple
    delta_prime: float

    def __post_init__(self):
        if len(self.sizes) != self.iterations:
            raise ValueError("schedule size list must have exactly `iterations` entries")
        for a, b in zip(self.sizes, self.sizes[1:]):
            if b <= a:
                raise ValueError(f"schedule sizes must strictly increase, got {self.sizes}")
            if b > 2 * a + 1:
                raise ValueError(f"schedule sizes must at most double (plus ceiling slack), got {self.sizes}")


def build_schedule(value_range: float, epsilon: float, lambda_bound: float, delta: float) -> Schedule:
    """Compute I, alpha, and the sizes m_i = ceil(alpha 2^i) for the run.

    I = max(1, floor(log2(R / 2 eps))) iterations suffice because the ratio of
    the worst-case range-based size to the best-case variance-free size is
    R / 2 eps with all log factors cancelling; alpha is the best-case size
    (1 + L) R ln(3I/delta) / ((1 - L) eps) and each bound instance spends
    delta' = delta / 3I of the failure budget.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    checked_lambda(lambda_bound)
    if value_range <= 0:
        raise ValueError("schedule needs a positive range; degenerate functions return immediately")
    iterations = max(1, math.floor(math.log2(value_range / (2 * epsilon))))
    alpha = (1 + lambda_bound) * value_range * math.log(3 * iterations / delta) / ((1 - lambda_bound) * epsilon)
    sizes = tuple(int(math.ceil(alpha * 2 ** i)) for i in range(1, iterations + 1))
    return Schedule(
        iterations=iterations,
        base_size=alpha,
        sizes=sizes,
        delta_prime=delta / (3 * iterations),
    )


@dataclasses.dataclass(frozen=True)
class IterationRecord(Record):
    m: int
    mean: float
    variance: float
    variance_bound: float
    radius: float


@dataclasses.dataclass(frozen=True)
class EstimateReport(Record):
    """Full audit trail of one adaptive run.

    ``total_base_steps`` counts both paired chains, T base steps for every
    block sample, plus any warm-up steps.  ``lambda_bound`` is the bound the
    schedule used: the caller's bound raised to the trace length T.
    """

    estimate: float
    iterations: tuple
    total_base_steps: int
    warmup_steps: int
    termination: str
    seed: int
    epsilon: float
    delta: float
    lambda_bound: float
    trace_length: int
    function_range: tuple
    schedule: Optional[Schedule]


def _degenerate_report(f, seed, epsilon, delta, lambda_bound, trace_length):
    return EstimateReport(
        estimate=float(f.lo),
        iterations=(),
        total_base_steps=0,
        warmup_steps=0,
        termination=DEGENERATE_RANGE,
        seed=seed,
        epsilon=epsilon,
        delta=delta,
        lambda_bound=lambda_bound,
        trace_length=trace_length,
        function_range=(f.lo, f.hi),
        schedule=None,
    )


def mcmc_pro(
    initial_pair,
    kernel: TransitionKernel,
    lambda_bound: float,
    f: ScalarFunction,
    epsilon: float,
    delta: float,
    seed: int,
    *,
    trace_length: int = 1,
) -> EstimateReport:
    """Progressive paired-chain estimation with a variance-adaptive stopping rule.

    The initial pair must be drawn from the stationary law of the paired chain
    (``warm_start`` discharges that contract) and ``lambda_bound`` must upper
    bound the kernel's second absolute eigenvalue.  Each sample is the mean of
    f over ``trace_length`` consecutive base steps; the blocks form a chain
    whose second absolute eigenvalue is at most lambda_bound**trace_length,
    and that is the bound the schedule and the radii use.  Returns the running
    mean at the first iteration whose radius meets ``epsilon``, or at the last
    scheduled iteration regardless.
    """
    if trace_length < 1:
        raise ValueError(f"trace length must be >= 1, got {trace_length}")
    t = trace_length
    block_lambda = checked_lambda(lambda_bound) ** t
    state_a, state_b = initial_pair
    kernel.check_start(state_a)  # here too, since a constant f returns before any step
    kernel.check_start(state_b)
    if f.value_range == 0:
        return _degenerate_report(f, seed, epsilon, delta, block_lambda, t)
    schedule = build_schedule(f.value_range, epsilon, block_lambda, delta)
    check_steps(2 * t * schedule.sizes[-1])
    rng_a = stream(seed, CHAIN_A)
    rng_b = stream(seed, CHAIN_B)

    means_a = np.empty(schedule.sizes[-1])
    means_b = np.empty(schedule.sizes[-1])
    records = []
    termination = SCHEDULE_EXHAUSTED
    previous = 0
    for m_i in schedule.sizes:
        steps = (m_i - previous) * t
        state_a, means_a[previous:m_i] = kernel.advance(state_a, steps, rng_a, f, t)
        state_b, means_b[previous:m_i] = kernel.advance(state_b, steps, rng_b, f, t)
        previous = m_i

        paired = PairedEvaluations(means_a[:m_i], means_b[:m_i], stream_a=CHAIN_A, stream_b=CHAIN_B)
        params = ConcentrationParams(
            lambda_bound=block_lambda,
            value_range=f.value_range,
            delta_prime=schedule.delta_prime,
            m=m_i,
        )
        mean_i = empirical_mean(paired)
        var_i = two_chain_variance(paired)
        bound_i = variance_upper_bound(var_i, params)
        radius_i = bernstein_radius(bound_i, params)
        records.append(IterationRecord(m=m_i, mean=mean_i, variance=var_i, variance_bound=bound_i, radius=radius_i))
        if radius_i <= epsilon:
            termination = RADIUS_MET
            break

    last = records[-1]
    return EstimateReport(
        estimate=last.mean,
        iterations=tuple(records),
        total_base_steps=2 * last.m * t,
        warmup_steps=0,
        termination=termination,
        seed=seed,
        epsilon=epsilon,
        delta=delta,
        lambda_bound=block_lambda,
        trace_length=t,
        function_range=(f.lo, f.hi),
        schedule=schedule,
    )


def select_trace_length(lambda_bound: float) -> int:
    """Trace length bringing the block chain's relaxation time to at most 2."""
    checked_lambda(lambda_bound)
    return max(1, math.ceil((1 + lambda_bound) / (1 - lambda_bound) * LN_SQRT2 - _CEIL_NUDGE))


def dynamite(
    initial_pair,
    kernel: TransitionKernel,
    lambda_bound: float,
    f: ScalarFunction,
    epsilon: float,
    delta: float,
    seed: int,
) -> EstimateReport:
    """Trace averaging: run mcmc_pro on blocks of T = select_trace_length(L) steps.

    The initial pair must be stationary for the base chain and the chain must
    be lazy.  With lambda_bound == 0 the trace length degenerates to 1 and this
    is exactly mcmc_pro on the base chain.
    """
    if not kernel.is_lazy:
        raise ValueError(f"trace averaging needs a lazy chain, got {kernel.name!r}")
    t = select_trace_length(lambda_bound)
    return mcmc_pro(initial_pair, kernel, lambda_bound, f, epsilon, delta, seed, trace_length=t)


def uniform_mixing_steps(lambda_bound: float, pi_min: float) -> int:
    """Warm-up length ceil(ln(1/pi_min) / ln(1/Lambda)); zero when Lambda == 0."""
    checked_lambda(lambda_bound)
    if not 0.0 < pi_min <= 1.0:
        raise ValueError(f"pi_min must lie in (0, 1], got {pi_min}")
    if lambda_bound == 0.0 or pi_min == 1.0:
        return 0
    return math.ceil(math.log(1.0 / pi_min) / math.log(1.0 / lambda_bound) - _CEIL_NUDGE)


def warm_start(
    start,
    kernel: TransitionKernel,
    lambda_bound: float,
    pi_min: float,
    f: ScalarFunction,
    epsilon: float,
    delta: float,
    seed: int,
) -> EstimateReport:
    """Nonstationary start: warm the paired chain up, then run ``dynamite``.

    ``pi_min`` must lower bound the minimum stationary probability; after
    tau_unif = ceil(ln(1/pi_min)/ln(1/Lambda)) paired steps from (start, start)
    the run proceeds with failure budget delta/4, absorbing the residual
    nonstationarity.  Warm-up steps are charged to the report, and the
    warm-up and the whole schedule are checked against ``STEP_CAP`` before
    the warm-up walks.
    """
    if not (kernel.is_lazy and kernel.is_reversible):
        raise ValueError(f"warm start needs a lazy reversible chain, got {kernel.name!r}")
    tau_unif = uniform_mixing_steps(lambda_bound, pi_min)
    t = select_trace_length(lambda_bound)
    schedule_steps = (2 * t * build_schedule(f.value_range, epsilon, lambda_bound ** t, delta / 4.0).sizes[-1]
                      if f.value_range else 0)
    check_steps(2 * tau_unif + schedule_steps)
    rng_w = stream(seed, WARMUP)
    x0, _ = kernel.advance(start, tau_unif, rng_w)
    x1, _ = kernel.advance(start, tau_unif, rng_w)
    report = dynamite((x0, x1), kernel, lambda_bound, f, epsilon, delta / 4.0, seed)
    warmup = 2 * tau_unif
    return dataclasses.replace(report, warmup_steps=warmup, total_base_steps=report.total_base_steps + warmup)


def static_estimate(
    start,
    kernel: TransitionKernel,
    lambda_bound: float,
    pi_min: Optional[float],
    f: ScalarFunction,
    epsilon: float,
    delta: float,
    seed: int,
    *,
    variance: Optional[float] = None,
) -> EstimateReport:
    """Classic fixed-size baseline: the mean of f over one path of m steps sized in advance.

    m is the Hoeffding size for f's range at radius ``epsilon`` with failure
    ``delta``, or the Bernstein size when the stationary ``variance`` is
    given.  With ``pi_min`` the path starts after tau uniform-mixing warm-up
    steps from ``start``, as in ``warm_start``; with None the start must be
    stationary and tau = 0.  f is summed ``CHUNK`` steps at a time, so memory
    does not grow with m.  The report charges tau + m steps and ends
    ``"static"``, with no schedule and no iterations.
    """
    kernel.check_start(start)  # here too, since a constant f returns before any step
    params = ConcentrationParams(lambda_bound=lambda_bound, value_range=f.value_range, delta_prime=delta, m=1)
    report = _degenerate_report(f, seed, epsilon, delta, lambda_bound, 1)
    if f.value_range == 0:
        return report
    m = (hoeffding_sample_complexity(params, epsilon) if variance is None
         else bernstein_sample_complexity(params, variance, epsilon))
    tau = 0 if pi_min is None else uniform_mixing_steps(lambda_bound, pi_min)
    check_steps(tau + m)
    state, _ = kernel.advance(start, tau, stream(seed, WARMUP))
    rng = stream(seed, CHAIN_A)
    total = 0.0
    for done in range(0, m, CHUNK):
        state, values = kernel.advance(state, min(CHUNK, m - done), rng, f)
        total += float(values.sum())
    return dataclasses.replace(report, estimate=total / m, total_base_steps=tau + m, warmup_steps=tau,
                               termination=STATIC)
