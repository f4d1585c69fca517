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
* ``warm_start`` runs that from (start, start) for any supported start, with
  ``pi_min``: ``mcmc_pro`` then walks a uniform-mixing warm-up first and
  tightens the failure budget to delta/4 as the nonstationarity correction.

Each run walks a ``Plan`` that ``plan_mcmc_pro`` or ``plan_static`` sizes
before its first step.  Samples are cumulative: chains are extended across
iterations, never restarted, so the total cost is the final schedule size.
Each iteration walks both chains on by ``TransitionKernel.advance``, which
returns the new block means; the warm-up walks them by it for their last states.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .chains import CHUNK, ScalarFunction, TransitionKernel
from .errors import GuardError
from .estimators import (
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
"""Most base steps one run or one count may plan.

A run plans ``Plan.steps``, a count its phases' sum, before any step.  A
billion steps is minutes of Glauber sampling and, at T = 1, 4 GB of block
means, while the tests and the benchmark plan at most ~7.1e6 (a run).
"""


def check_steps(planned: int, what: str = "run") -> None:
    """Refuse a run (or ``what``) that plans more than ``STEP_CAP`` base steps, with a GuardError."""
    if planned > STEP_CAP:
        raise GuardError(f"the {what} plans {planned:,} base steps, above the cap of {STEP_CAP:,}")


def _check_accuracy(epsilon: float, delta: float, value_range: float = 0.0) -> None:
    """Refuse a radius that is not positive or a failure budget outside (0, 1), with ValueError, and a
    radius below range/``STEP_CAP``, before any size overflows: every size grows like R/epsilon past the cap."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if value_range > STEP_CAP * epsilon:
        raise GuardError(f"epsilon={epsilon:g} at range {value_range:g} plans over R/epsilon base steps, "
                         f"above the cap of {STEP_CAP:,}")


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
    _check_accuracy(epsilon, delta, value_range)
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


@dataclasses.dataclass(frozen=True, kw_only=True)
class EstimateReport(Record):
    """Full audit trail of one adaptive run.

    ``total_base_steps`` counts both paired chains, T base steps for every
    block sample, plus any warm-up steps.  ``lambda_bound`` is the bound the
    schedule used: the caller's bound raised to the trace length T.  The
    defaults of the fields a run fills in make the degenerate report: no
    iterations, no steps, no schedule and termination ``degenerate-range``.
    """

    estimate: float
    iterations: tuple = ()
    total_base_steps: int = 0
    warmup_steps: int = 0
    termination: str = DEGENERATE_RANGE
    seed: int
    epsilon: float
    delta: float
    lambda_bound: float
    trace_length: int
    function_range: tuple
    schedule: Optional[Schedule] = None


@dataclasses.dataclass(frozen=True)
class Plan:
    """One run sized before its first step; ``steps`` is the most base steps it walks (0 for a constant f)."""

    trace_length: int
    lambda_bound: float  # the caller's bound raised to trace_length, which the closed forms use
    delta: float  # the failure budget the run spends: delta/4 after an mcmc_pro warm-up
    tau: int = 0  # warm-up steps per chain
    schedule: Optional[Schedule] = None  # mcmc_pro
    m: int = 0  # static
    steps: int = 0


def plan_mcmc_pro(value_range: float, lambda_bound: float, epsilon: float, delta: float, trace_length: int = 1,
                  pi_min: Optional[float] = None) -> Plan:
    """Size an ``mcmc_pro`` run of f with range ``value_range``; given ``pi_min``, with a warm-up and delta/4."""
    _check_accuracy(epsilon, delta)
    if trace_length < 1:
        raise ValueError(f"trace length must be >= 1, got {trace_length}")
    block_lambda = checked_lambda(lambda_bound) ** trace_length
    tau, delta = (0, delta) if pi_min is None else (uniform_mixing_steps(lambda_bound, pi_min), delta / 4.0)
    if value_range == 0:
        return Plan(trace_length, block_lambda, delta)
    schedule = build_schedule(value_range, epsilon, block_lambda, delta)
    steps = 2 * tau + 2 * trace_length * schedule.sizes[-1]
    check_steps(steps)
    return Plan(trace_length, block_lambda, delta, tau, schedule, steps=steps)


def plan_static(value_range: float, lambda_bound: float, epsilon: float, delta: float,
                pi_min: Optional[float] = None, variance: Optional[float] = None) -> Plan:
    """Size a ``static_estimate`` run: the Hoeffding m, or the Bernstein m given ``variance``, after any warm-up."""
    _check_accuracy(epsilon, delta, value_range)
    tau = 0 if pi_min is None else uniform_mixing_steps(lambda_bound, pi_min)
    if value_range == 0:
        return Plan(1, checked_lambda(lambda_bound), delta)
    m = (hoeffding_sample_complexity(lambda_bound, value_range, delta, epsilon) if variance is None
         else bernstein_sample_complexity(lambda_bound, value_range, delta, variance, epsilon))
    check_steps(tau + m)
    return Plan(1, lambda_bound, delta, tau, m=m, steps=tau + m)


def _report(f, seed, epsilon, plan: Plan, estimate=None, **run) -> EstimateReport:
    """The report of a run of ``plan``; with no ``run`` fields (and estimate f.lo) the degenerate one."""
    return EstimateReport(estimate=float(f.lo) if estimate is None else estimate, seed=seed, epsilon=epsilon,
                          delta=plan.delta, lambda_bound=plan.lambda_bound, trace_length=plan.trace_length,
                          function_range=(f.lo, f.hi), schedule=plan.schedule, **run)


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
    pi_min: Optional[float] = None,
) -> EstimateReport:
    """Progressive paired-chain estimation with a variance-adaptive stopping rule.

    ``lambda_bound`` must upper bound the kernel's second absolute eigenvalue,
    and with ``pi_min`` None the initial pair must be stationary.  Given
    ``pi_min``, a lower bound on the least stationary probability of a
    reversible chain, both chains first walk tau warm-up steps on ``WARMUP``
    (charged as 2 tau; none for a constant f) and the failure budget is
    delta/4.  Each sample is the mean of f over a block of ``trace_length``
    base steps, and the blocks take the bound lambda_bound**trace_length.
    ``plan_mcmc_pro`` sizes all of it.  Returns the running mean at the first
    iteration whose radius meets ``epsilon``, or at the last one.
    """
    plan = plan_mcmc_pro(f.value_range, lambda_bound, epsilon, delta, trace_length, pi_min)
    if pi_min is not None and not kernel.is_reversible:  # lambda^tau / pi_min bounds reversible chains only
        raise ValueError(f"a warm-up needs a reversible chain, got {kernel.name!r}")
    state_a, state_b = initial_pair
    kernel.check_start(state_a)  # here too, since a constant f returns before any step
    kernel.check_start(state_b)
    if not plan.steps:
        return _report(f, seed, epsilon, plan)
    t, tau, sizes = plan.trace_length, plan.tau, plan.schedule.sizes
    lam, r, delta_prime = plan.lambda_bound, f.value_range, plan.schedule.delta_prime
    if pi_min is not None:
        rng_w = stream(seed, WARMUP)
        state_a, _ = kernel.advance(state_a, tau, rng_w)
        state_b, _ = kernel.advance(state_b, tau, rng_w)
    rng_a = stream(seed, CHAIN_A)
    rng_b = stream(seed, CHAIN_B)

    means_a = np.empty(sizes[-1])
    means_b = np.empty(sizes[-1])
    records = []
    termination = SCHEDULE_EXHAUSTED
    previous = 0
    for m_i in sizes:
        steps = (m_i - previous) * t
        state_a, means_a[previous:m_i] = kernel.advance(state_a, steps, rng_a, f, t)
        state_b, means_b[previous:m_i] = kernel.advance(state_b, steps, rng_b, f, t)
        previous = m_i

        paired = PairedEvaluations(means_a[:m_i], means_b[:m_i])
        mean_i = empirical_mean(paired)
        var_i = two_chain_variance(paired)
        bound_i = variance_upper_bound(var_i, lam, r, delta_prime, m_i)
        radius_i = bernstein_radius(bound_i, lam, r, delta_prime, m_i)
        records.append(IterationRecord(m=m_i, mean=mean_i, variance=var_i, variance_bound=bound_i, radius=radius_i))
        if radius_i <= epsilon:
            termination = RADIUS_MET
            break

    last = records[-1]
    return _report(f, seed, epsilon, plan, last.mean, iterations=tuple(records),
                   total_base_steps=2 * tau + 2 * last.m * t, warmup_steps=2 * tau, termination=termination)


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
    """Nonstationary start: ``dynamite`` from (start, start) after a uniform-mixing warm-up.

    ``pi_min`` must lower bound the minimum stationary probability.  This is
    ``mcmc_pro`` with ``dynamite``'s trace length and ``pi_min``, so the
    warm-up, the delta/4 and the ``STEP_CAP`` check live in its plan.
    """
    if not (kernel.is_lazy and kernel.is_reversible):
        raise ValueError(f"warm start needs a lazy reversible chain, got {kernel.name!r}")
    return mcmc_pro((start, start), kernel, lambda_bound, f, epsilon, delta, seed,
                    trace_length=select_trace_length(lambda_bound), pi_min=pi_min)


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

    ``plan_static`` sizes m: the Hoeffding size for f's range at radius
    ``epsilon`` with failure ``delta``, or the Bernstein size given the
    stationary ``variance``.  With ``pi_min`` a reversible chain first walks
    tau uniform-mixing warm-up steps from ``start``; with None the start must
    be stationary and tau = 0.  f is summed ``CHUNK`` steps at a time, so
    memory does not grow with m.  The report charges tau + m steps and ends
    ``"static"``, with no schedule and no iterations.
    """
    plan = plan_static(f.value_range, lambda_bound, epsilon, delta, pi_min, variance)
    if pi_min is not None and not kernel.is_reversible:  # as in mcmc_pro
        raise ValueError(f"a warm-up needs a reversible chain, got {kernel.name!r}")
    kernel.check_start(start)  # here too, since a constant f returns before any step
    if not plan.steps:
        return _report(f, seed, epsilon, plan)
    state, _ = kernel.advance(start, plan.tau, stream(seed, WARMUP))
    rng = stream(seed, CHAIN_A)
    total = 0.0
    for done in range(0, plan.m, CHUNK):
        state, values = kernel.advance(state, min(CHUNK, plan.m - done), rng, f)
        total += float(values.sum())
    return _report(f, seed, epsilon, plan, total / plan.m, total_base_steps=plan.steps, warmup_steps=plan.tau,
                   termination=STATIC)
