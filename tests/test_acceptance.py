"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, not configured.  The directional-efficiency
comparison (criterion 10) is asserted exactly as pinned even though the
doubling schedule's constants make it unattainable at that radius; the
companion test right below it demonstrates the same comparison passing at a
smaller radius where the trace-averaged estimator genuinely wins.  Analysis
lives in the test docstrings.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import dynamite as dm
from dynamite.rng import CHAIN_A, CHAIN_B, stream

from _oracles import enumerate_trace_variance
from conftest import lazy_reversible_registry


def report_line(tag, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"[{tag}] {status} ({elapsed:.1f}s){suffix}")


def test_c01_variance_formula_matches_exhaustive_enumeration():
    """Closed-form trace variance equals full trace enumeration to 1e-12."""
    started = time.perf_counter()
    worst = 0.0
    for n in (4, 6, 8):
        kernel = dm.make_cycle(n)
        for i in range(1, n // 2 + 1):
            if n % (2 * i) != 0:
                continue
            f = dm.make_cycle_function(n, i)
            summary = dm.summarize(kernel, f)
            fvals = f.values(np.arange(n))
            for horizon in (1, 2, 3):
                closed = dm.exact_trace_variance(kernel, f, horizon, summary=summary).trace_variance
                enumerated = enumerate_trace_variance(
                    kernel.matrix, summary.stationary, fvals, horizon, mean=summary.mean
                )
                worst = max(worst, abs(closed - enumerated))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 10
    report_line("c01 variance-oracle", ok, elapsed, f"worst deviation {worst:.2e}")
    assert worst <= 1e-12
    assert elapsed < 10


def test_c02_sandwich_inequality_on_all_fixtures():
    """v_pi/T <= v_T <= 2 tau_rel v_pi/T for every lazy reversible fixture, T=1..64."""
    started = time.perf_counter()
    checked = 0
    for name, kernel, f in lazy_reversible_registry():
        summary = dm.summarize(kernel, f)
        for horizon in range(1, 65):
            profile = dm.exact_trace_variance(kernel, f, horizon, summary=summary)
            verdict = dm.check_sandwich(kernel, f, profile, summary=summary)
            assert verdict.passed, (name, horizon, verdict)
            checked += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 30
    report_line("c02 sandwich", ok, elapsed, f"{checked} (chain, T) points")
    assert elapsed < 30


def test_c03_cumulative_trace_variance_monotone():
    """T * v_T is nondecreasing in T on every lazy reversible fixture."""
    started = time.perf_counter()
    for name, kernel, f in lazy_reversible_registry():
        summary = dm.summarize(kernel, f)
        previous = 0.0
        for horizon in range(1, 65):
            v = dm.exact_trace_variance(kernel, f, horizon, summary=summary).trace_variance
            assert horizon * v >= previous - 1e-10, (name, horizon)
            previous = horizon * v
    elapsed = time.perf_counter() - started
    report_line("c03 monotonicity", True, elapsed)


def test_c04_two_chain_variance_estimator_unbiased():
    """Mean of the paired estimator over 10^4 stationary runs sits at 1/4 +- 0.01."""
    started = time.perf_counter()
    kernel = dm.make_cycle(8)
    f = dm.make_cycle_function(8, 1)
    reps = 10_000
    total = 0.0
    for rep in range(reps):
        starts = stream(2024, rep, 0)
        a = kernel.path(int(starts.integers(0, 8)), 16, stream(2024, rep, CHAIN_A))
        b = kernel.path(int(starts.integers(0, 8)), 16, stream(2024, rep, CHAIN_B))
        total += dm.two_chain_variance(dm.PairedEvaluations(f.values(a), f.values(b)))
    mean = total / reps
    elapsed = time.perf_counter() - started
    ok = abs(mean - 0.25) <= 0.01 and elapsed < 60
    report_line("c04 unbiasedness", ok, elapsed, f"mean vhat {mean:.4f}")
    assert abs(mean - 0.25) <= 0.01
    assert elapsed < 60


def test_c05_adaptive_estimators_cover_the_mean():
    """All three entry points reach >= 90% coverage at eps=0.05, delta=0.1, 200 runs."""
    started = time.perf_counter()
    fixtures = [
        ("cycle8-f1", dm.make_cycle(8), dm.make_cycle_function(8, 1), 1.0 / 8),
        ("two-state", dm.make_two_state_uniform(), dm.indicator_function([1]), 0.5),
    ]
    eps, dlt, reps = 0.05, 0.1, 200
    results = {}
    for name, kernel, f, pi_min in fixtures:
        summary = dm.summarize(kernel, f)
        lam = summary.second_eigenvalue
        n = kernel.n_states
        counters = {"mcmc-pro": 0, "dynamite": 0, "warm-start": 0}
        for rep in range(reps):
            starts = stream(7, rep, 9)
            pair = (int(starts.integers(0, n)), int(starts.integers(0, n)))
            r1 = dm.mcmc_pro(pair, kernel, lam, f, eps, dlt, seed=rep)
            r2 = dm.dynamite(pair, kernel, lam, f, eps, dlt, seed=rep)
            r3 = dm.warm_start(pair[0], kernel, lam, pi_min, f, eps, dlt, seed=rep)
            counters["mcmc-pro"] += abs(r1.estimate - summary.mean) <= eps
            counters["dynamite"] += abs(r2.estimate - summary.mean) <= eps
            counters["warm-start"] += abs(r3.estimate - summary.mean) <= eps
        results[name] = counters
    elapsed = time.perf_counter() - started
    ok = all(c >= 0.9 * reps for by in results.values() for c in by.values()) and elapsed < 600
    report_line("c05 coverage", ok, elapsed, str(results))
    for name, by in results.items():
        for method, hits in by.items():
            assert hits >= 0.9 * reps, (name, method, hits)
    assert elapsed < 600


def test_c06_cycle_separation_profile():
    """At T = n^2 on the 16-cycle the block functions separate by width, 8x at the ends."""
    started = time.perf_counter()
    rows = dict(dm.cycle_separation_profile(16, 256))
    elapsed = time.perf_counter() - started
    increasing = all(rows[a] < rows[b] for a, b in zip(sorted(rows), sorted(rows)[1:]))
    ratio = rows[8] / rows[1]
    ok = increasing and ratio >= 8.0 and elapsed < 10
    report_line("c06 separation", ok, elapsed, f"ratio {ratio:.1f}")
    assert increasing
    assert ratio >= 8.0
    assert elapsed < 10


def test_c07_counting_end_to_end():
    """Adaptive counting lands within 30% of brute force in >= 90% of 50 runs."""
    started = time.perf_counter()
    instances = [
        (dm.Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0))), 3, 18),
        (dm.Graph(2, ((0, 1),)), 2, 2),
    ]
    hits = {}
    for graph, k, exact in instances:
        assert dm.brute_force_count(graph, k) == exact
        good = 0
        for seed in range(50):
            result = dm.jvv_count(graph, k, 0.25, 0.25, estimator="dynamite", seed=seed)
            good += abs(math.exp(result.log_count) - exact) / exact <= 0.3
        hits[(graph.n, k)] = good
    elapsed = time.perf_counter() - started
    ok = all(v >= 45 for v in hits.values()) and elapsed < 900
    report_line("c07 counting", ok, elapsed, str(hits))
    for key, good in hits.items():
        assert good >= 45, (key, good)
    assert elapsed < 900


def test_c08_telescoping_product_is_exact():
    """With brute-force ratios, k^n times the product reproduces the count exactly."""
    started = time.perf_counter()
    fixtures = [
        (dm.Graph(3, ((0, 1), (1, 2), (0, 2))), 3),
        (dm.Graph(3, ((0, 1), (1, 2))), 3),
        (dm.Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0))), 3),
    ]
    planted = dm.generate(dm.PlantedParams(n=8, communities=2, within_prob=0.4, cross_mass=0.2), 1)
    fixtures.append((planted.graph, planted.graph.d_max + 2))
    for graph, k in fixtures:
        product = Fraction(k ** graph.n)
        for ratio in dm.exact_phase_ratios(graph, k):
            product *= ratio
        assert product == dm.brute_force_count(graph, k), (graph.edges, k)
    elapsed = time.perf_counter() - started
    report_line("c08 telescoping", True, elapsed, f"{len(fixtures)} graphs")


def test_c09_planted_cut_mass_statistics():
    """Mean cut size over 500 seeds at n=64, r=4, q=0.05 within 5% of 12.8."""
    started = time.perf_counter()
    params = dm.PlantedParams(n=64, communities=4, within_prob=0.5, cross_mass=0.05)
    sizes = []
    for seed in range(500):
        pg = dm.generate(params, seed)
        sizes.extend(len(dm.cut_set(pg, j)) for j in range(4))
    mean = float(np.mean(sizes))
    elapsed = time.perf_counter() - started
    ok = abs(mean - 12.8) <= 0.05 * 12.8 and elapsed < 30
    report_line("c09 planted-stats", ok, elapsed, f"mean {mean:.2f} target 12.8")
    assert abs(mean - 12.8) <= 0.64
    assert elapsed < 30


def test_c10_directional_efficiency_at_pinned_radius():
    """Median adaptive cost on the 16-cycle at eps=0.02 versus the static budget.

    Asserted exactly as pinned: median total steps of the trace-averaged run
    must undercut m_H(lambda, 1, 0.02, 0.1).  The doubling schedule cannot do
    this at eps=0.02: its final size is ceil(alpha * 2^I) trace samples at
    T=18 base steps across two chains (about 411k base steps, schedule
    exhausted, no early stop is even arithmetically possible before the last
    iteration), while the static budget is about 193k.  The crossover where
    the adaptive run genuinely wins sits near eps ~ 0.005 for this chain; see
    the companion test below.  This test is expected to fail and is kept
    faithful rather than loosened; ``test_adaptive.py::TestBuildSchedule::
    test_no_stop_before_the_fourth_iteration`` shows that no iteration before
    the fourth can meet any eps, whatever the variance estimate.
    """
    started = time.perf_counter()
    kernel = dm.make_cycle(16)
    f = dm.make_cycle_function(16, 1)
    summary = dm.summarize(kernel, f)
    lam = summary.second_eigenvalue
    eps, dlt = 0.02, 0.1
    budget = dm.hoeffding_sample_complexity(lam, 1.0, dlt, eps)
    steps = []
    for batch in range(20):
        starts = stream(42, batch)
        pair = (int(starts.integers(0, 16)), int(starts.integers(0, 16)))
        steps.append(dm.dynamite(pair, kernel, lam, f, eps, dlt, seed=batch).total_base_steps)
    median = float(np.median(steps))
    elapsed = time.perf_counter() - started
    ok = median < budget
    report_line("c10 directional", ok, elapsed, f"median {median:.0f} vs budget {budget}")
    assert median < budget, (
        f"adaptive median {median:.0f} base steps does not undercut the static "
        f"budget {budget} at eps={eps}; the schedule's range term "
        f"(10 R L / ((1-L^T) m) with L^T ~ 1/2) keeps every run at the full "
        f"schedule here, and 2 T m_I ~ 2.1x the budget.  The comparison holds "
        f"for smaller radii (see the crossover test)."
    )


def test_c10_companion_directional_efficiency_crossover():
    """The pinned comparison passes once the radius is small enough (eps=0.005)."""
    started = time.perf_counter()
    kernel = dm.make_cycle(16)
    f = dm.make_cycle_function(16, 1)
    summary = dm.summarize(kernel, f)
    lam = summary.second_eigenvalue
    eps, dlt = 0.005, 0.1
    budget = dm.hoeffding_sample_complexity(lam, 1.0, dlt, eps)
    steps = []
    for batch in range(20):
        starts = stream(42, batch)
        pair = (int(starts.integers(0, 16)), int(starts.integers(0, 16)))
        steps.append(dm.dynamite(pair, kernel, lam, f, eps, dlt, seed=batch).total_base_steps)
    median = float(np.median(steps))
    elapsed = time.perf_counter() - started
    ok = median < budget
    report_line("c10-companion crossover", ok, elapsed, f"median {median:.0f} vs budget {budget}")
    assert median < budget


def test_c11_schedule_algebra_fixtures():
    """Hand-evaluated schedule fixtures reproduce exactly."""
    started = time.perf_counter()
    s = dm.build_schedule(1.0, 1 / 64, 0.0, 0.1)
    clamped = dm.build_schedule(1.0, 0.5, 0.0, 0.1)
    elapsed = time.perf_counter() - started
    ok = (
        s.iterations == 5
        and s.sizes[0] == 642
        and abs(s.base_size - 64 * math.log(150)) < 1e-9
        and s.delta_prime == 0.1 / 15
        and clamped.iterations == 1
    )
    report_line("c11 schedule", ok, elapsed, f"I={s.iterations} m1={s.sizes[0]}")
    assert s.iterations == 5
    assert s.sizes[0] == 642
    assert s.base_size == pytest.approx(64 * math.log(150), rel=1e-12)
    assert s.delta_prime == 0.1 / 15
    assert clamped.iterations == 1
