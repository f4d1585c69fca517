import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynamite as dm
from dynamite import adaptive
from dynamite.adaptive import DEGENERATE_RANGE, RADIUS_MET, SCHEDULE_EXHAUSTED
from dynamite.rng import stream

from _oracles import counting_kernel


class TestBuildSchedule:
    def test_hand_fixture(self):
        s = dm.build_schedule(1.0, 1 / 64, 0.0, 0.1)
        assert s.iterations == 5
        assert s.base_size == pytest.approx(64 * math.log(150), rel=1e-12)
        assert s.sizes[0] == 642
        assert s.delta_prime == 0.1 / 15

    def test_clamps_to_one_iteration(self):
        assert dm.build_schedule(1.0, 0.5, 0.0, 0.1).iterations == 1
        assert dm.build_schedule(1.0, 0.6, 0.3, 0.2).iterations == 1

    def test_rejections(self):
        with pytest.raises(ValueError):
            dm.build_schedule(1.0, 0.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            dm.build_schedule(1.0, 0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            dm.build_schedule(1.0, 0.1, 1.0, 0.1)

    @given(
        st.floats(min_value=0.05, max_value=8.0),
        st.floats(min_value=0.001, max_value=0.4),
        st.floats(min_value=0.0, max_value=0.98),
        st.floats(min_value=0.01, max_value=0.5),
    )
    @settings(max_examples=300, deadline=None)
    def test_invariants(self, value_range, eps_frac, lam, delta):
        epsilon = eps_frac * value_range
        s = dm.build_schedule(value_range, epsilon, lam, delta)
        assert s.iterations == max(1, math.floor(math.log2(value_range / (2 * epsilon))))
        expected_alpha = (1 + lam) * value_range * math.log(3 * s.iterations / delta) / ((1 - lam) * epsilon)
        assert s.base_size == pytest.approx(expected_alpha, rel=1e-12)
        for i, m in enumerate(s.sizes, start=1):
            assert m == math.ceil(s.base_size * 2 ** i)
        for a, b in zip(s.sizes, s.sizes[1:]):
            assert a < b <= 2 * a + 1


class TestTraceLengthAndWarmup:
    def test_trace_length_fixtures(self):
        assert dm.select_trace_length(0.5) == 2
        assert dm.select_trace_length(0.0) == 1

    def test_warmup_fixtures(self):
        assert dm.uniform_mixing_steps(0.5, 1 / 1024) == 10
        assert dm.uniform_mixing_steps(0.9, 1.0) == 0
        assert dm.uniform_mixing_steps(0.0, 1 / 50) == 0

    def test_warmup_rejects_bad_pi_min(self):
        with pytest.raises(ValueError):
            dm.uniform_mixing_steps(0.5, 0.0)
        with pytest.raises(ValueError):
            dm.uniform_mixing_steps(0.5, 1.5)


@pytest.mark.parametrize("bound", [-0.5, 1.0, 1.5, math.nan])
@pytest.mark.parametrize("entry", [
    "mcmc_pro", "mcmc_pro-constant", "warm_start", "uniform_mixing_steps", "static_estimate",
    "static_estimate-constant",
])
def test_bad_lambda_is_refused_on_entry(entry, bound, cycle8, cycle8_f1):
    # checked as given: -0.5 ** 2 would pass as a block bound, and a constant f returns early
    const = dm.ScalarFunction(lambda xs: np.full(len(xs), 0.7), lo=0.7, hi=0.7, name="const")
    f = const if entry.endswith("constant") else cycle8_f1
    with pytest.raises(ValueError, match=re.escape(f"lambda bound must lie in [0, 1), got {bound}")):
        if entry == "uniform_mixing_steps":
            dm.uniform_mixing_steps(bound, 1 / 8)
        elif entry == "warm_start":
            dm.warm_start(0, cycle8, bound, 1 / 8, cycle8_f1, 0.05, 0.1, seed=0)
        elif entry.startswith("static_estimate"):
            dm.static_estimate(0, cycle8, bound, None, f, 0.05, 0.1, seed=0)
        else:
            dm.mcmc_pro((0, 4), cycle8, bound, f, 0.05, 0.1, seed=0, trace_length=2)


class TestStepCap:
    def test_cap_is_inclusive(self):
        adaptive.check_steps(adaptive.STEP_CAP)
        with pytest.raises(dm.GuardError, match="base steps, above the cap"):
            adaptive.check_steps(adaptive.STEP_CAP + 1)

    @pytest.mark.parametrize("entry", ["mcmc_pro", "dynamite", "warm_start", "warm_start-warmup", "static_estimate",
                                       "static_estimate-warmup"])
    def test_oversize_plans_are_refused_before_sampling(self, entry, cycle8_f1):
        counted, counter = counting_kernel(dm.make_cycle(8))
        lam = math.cos(math.pi / 8) ** 2
        # a tiny radius plans ~1e14 steps; a bound near 1 with a tiny pi_min plans a ~6.9e9-step warm-up
        eps, lam, pi_min = (0.2, 1 - 1e-7, 1e-300) if entry.endswith("warmup") else (1e-7, lam, 1 / 8)
        with pytest.raises(dm.GuardError, match="above the cap"):
            if entry.startswith("static_estimate"):
                dm.static_estimate(0, counted, lam, pi_min, cycle8_f1, eps, 0.1, seed=0)
            elif entry.startswith("warm_start"):
                dm.warm_start(0, counted, lam, pi_min, cycle8_f1, eps, 0.1, seed=0)
            else:
                getattr(dm, entry)((0, 4), counted, lam, cycle8_f1, eps, 0.1, seed=0)
        assert counter.count == 0

    @given(
        entry=st.sampled_from(["mcmc_pro", "dynamite", "warm_start", "static_estimate", "static_estimate-warmup",
                               "static_estimate-bernstein"]),
        lam=st.floats(min_value=0.0, max_value=0.9),
        epsilon=st.floats(min_value=0.03, max_value=0.5),
        delta=st.floats(min_value=0.01, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2 ** 32),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_run_never_walks_past_the_plan_it_was_checked_on(self, entry, lam, epsilon, delta, seed):
        counted, counter = counting_kernel(dm.make_cycle(8))
        f = dm.make_cycle_function(8, 1)
        plans, check = [], adaptive.check_steps

        def recorded(planned):
            plans.append(planned)
            check(planned)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(adaptive, "check_steps", recorded)
            if entry.startswith("static_estimate"):
                pi_min = 1 / 8 if entry.endswith("warmup") else None
                variance = 0.25 if entry.endswith("bernstein") else None
                report = dm.static_estimate(1, counted, lam, pi_min, f, epsilon, delta, seed, variance=variance)
            elif entry == "warm_start":
                report = dm.warm_start(1, counted, lam, 1 / 8, f, epsilon, delta, seed)
            else:
                report = getattr(dm, entry)((0, 4), counted, lam, f, epsilon, delta, seed)
        assert plans
        assert counter.count == report.total_base_steps <= plans[0]
        if entry.startswith("static_estimate"):
            assert report.total_base_steps == plans[0]


class TestMcmcPro:
    def test_degenerate_range_returns_constant(self, cycle8):
        const = dm.ScalarFunction(lambda xs: np.full(len(xs), 0.7), lo=0.7, hi=0.7, name="const")
        report = dm.mcmc_pro((0, 1), cycle8, 0.5, const, 0.05, 0.1, seed=0)
        assert report.estimate == 0.7
        assert report.total_base_steps == 0
        assert report.termination == DEGENERATE_RANGE

    def test_determinism(self, cycle8, cycle8_f1):
        lam = dm.summarize(cycle8, cycle8_f1).second_eigenvalue
        a = dm.mcmc_pro((0, 4), cycle8, lam, cycle8_f1, 0.05, 0.1, seed=123)
        b = dm.mcmc_pro((0, 4), cycle8, lam, cycle8_f1, 0.05, 0.1, seed=123)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_step_accounting(self, cycle8_f1):
        counted, counter = counting_kernel(dm.make_cycle(8))
        lam = math.cos(math.pi / 8) ** 2
        report = dm.mcmc_pro((0, 4), counted, lam, cycle8_f1, 0.05, 0.1, seed=1)
        assert counter.count == report.total_base_steps == 2 * report.iterations[-1].m

    def test_rejects_zero_trace_length(self, cycle8, cycle8_f1):
        with pytest.raises(ValueError, match="trace length"):
            dm.mcmc_pro((0, 4), cycle8, 0.5, cycle8_f1, 0.05, 0.1, seed=0, trace_length=0)

    @pytest.mark.parametrize("pair", ((8, 4), (0, -1), (99, -5)))
    def test_rejects_invalid_start(self, pair, cycle8, cycle8_f1):
        # a constant f returns before any step, so its start is checked on entry
        constant = dm.ScalarFunction(lambda xs: np.zeros(len(xs)), lo=0.0, hi=0.0)
        for f in (cycle8_f1, constant):
            with pytest.raises(ValueError, match="start state"):
                dm.mcmc_pro(pair, cycle8, 0.5, f, 0.05, 0.1, seed=0)
            with pytest.raises(ValueError, match="start state"):
                dm.dynamite(pair, cycle8, 0.5, f, 0.05, 0.1, seed=0)

    def test_early_stop_on_constant_function(self):
        # declared range [0, 1] but f is identically zero, so the radius
        # collapses as soon as the 10RL/m term allows it
        kernel = dm.make_two_state_uniform()
        zero = dm.ScalarFunction(lambda xs: np.zeros(len(xs)), lo=0.0, hi=1.0)
        report = dm.mcmc_pro((0, 1), kernel, 0.0, zero, 1 / 256, 0.1, seed=5)
        assert report.termination == RADIUS_MET
        assert report.iterations[-1].m < report.schedule.sizes[-1]
        assert report.iterations[-1].radius <= 1 / 256

    def test_coverage_two_state(self):
        kernel = dm.make_two_state_uniform()
        f = dm.indicator_function([1])
        hits = 0
        for rep in range(60):
            report = dm.mcmc_pro((0, 1), kernel, 0.0, f, 0.1, 0.1, seed=1000 + rep)
            hits += abs(report.estimate - 0.5) <= 0.1
        assert hits >= 54

    def test_monotone_progress_and_range_safety(self, cycle8, cycle8_f1):
        lam = dm.summarize(cycle8, cycle8_f1).second_eigenvalue
        for seed in range(5):
            report = dm.mcmc_pro((0, 4), cycle8, lam, cycle8_f1, 0.03, 0.1, seed=seed)
            for prev, cur in zip(report.iterations, report.iterations[1:]):
                assert prev.m < cur.m
                if cur.variance <= prev.variance:
                    assert cur.radius <= prev.radius + 1e-12
            for rec in report.iterations:
                assert 0.0 <= rec.mean <= 1.0
                assert 0.0 <= rec.variance <= 0.5


class TestDynamite:
    def test_requires_lazy_chain(self, cycle8_f1):
        nonlazy = dm.matrix_kernel(np.array([[0.3, 0.7], [0.7, 0.3]]), "fast", is_reversible=True)
        with pytest.raises(ValueError, match="lazy"):
            dm.dynamite((0, 1), nonlazy, 0.5, dm.indicator_function([1]), 0.1, 0.1, seed=0)

    def test_zero_bound_degenerates_to_base_chain(self):
        kernel = dm.make_two_state_uniform()
        f = dm.indicator_function([1])
        a = dm.dynamite((0, 1), kernel, 0.0, f, 0.1, 0.1, seed=9)
        b = dm.mcmc_pro((0, 1), kernel, 0.0, f, 0.1, 0.1, seed=9)
        assert a.trace_length == 1
        assert a.estimate == b.estimate
        assert a.total_base_steps == b.total_base_steps

    def test_step_accounting_with_trace_expansion(self, cycle8_f1):
        counted, counter = counting_kernel(dm.make_cycle(8))
        lam = math.cos(math.pi / 8) ** 2
        report = dm.dynamite((0, 4), counted, lam, cycle8_f1, 0.05, 0.1, seed=2)
        assert report.trace_length == 5
        assert counter.count == report.total_base_steps
        assert report.total_base_steps == 2 * 5 * report.iterations[-1].m

    def test_beats_plain_progressive_run_at_small_radius(self, cycle8, cycle8_f1):
        # the trace-averaged run tracks v_T = v_pi / T here, so for small
        # target radii it stops well before the plain paired run
        lam = dm.summarize(cycle8, cycle8_f1).second_eigenvalue
        plain, traced = [], []
        for seed in (0, 1, 2):
            rng = stream(seed, 77)
            pair = (int(rng.integers(0, 8)), int(rng.integers(0, 8)))
            plain.append(dm.mcmc_pro(pair, cycle8, lam, cycle8_f1, 0.005, 0.1, seed=seed).total_base_steps)
            traced.append(dm.dynamite(pair, cycle8, lam, cycle8_f1, 0.005, 0.1, seed=seed).total_base_steps)
        assert sorted(traced)[1] < sorted(plain)[1]


class TestWarmStart:
    def test_requires_lazy_reversible(self, cycle8_f1):
        nonrev = dm.matrix_kernel(
            np.array([[0.6, 0.4, 0.0], [0.0, 0.6, 0.4], [0.4, 0.0, 0.6]]),
            "rotor",
            is_lazy=True,
        )
        with pytest.raises(ValueError, match="reversible"):
            dm.warm_start(0, nonrev, 0.9, 1 / 3, dm.indicator_function([1]), 0.1, 0.1, seed=0)

    @pytest.mark.parametrize("lam", (0.0, math.cos(math.pi / 8) ** 2))
    def test_rejects_invalid_start_with_or_without_warmup(self, lam, cycle8, cycle8_f1):
        # with lambda 0 the warm-up is tau = 0 steps, and the start is still checked
        with pytest.raises(ValueError, match="start state"):
            dm.warm_start(8, cycle8, lam, 1 / 8, cycle8_f1, 0.05, 0.1, seed=0)
        glauber = dm.glauber_kernel(dm.Graph(3, ((0, 1), (1, 2))), 3)
        with pytest.raises(ValueError, match="proper coloring"):
            dm.warm_start([1, 1, 2], glauber, lam, 1 / 27, dm.indicator_function([1]), 0.05, 0.1, seed=0)

    def test_quarter_delta_and_warmup_accounting(self, cycle8_f1):
        counted, counter = counting_kernel(dm.make_cycle(8))
        lam = math.cos(math.pi / 8) ** 2
        report = dm.warm_start(1, counted, lam, 1 / 8, cycle8_f1, 0.05, 0.1, seed=3)
        tau = dm.uniform_mixing_steps(lam, 1 / 8)
        assert tau == 14
        assert report.delta == pytest.approx(0.025)
        assert report.warmup_steps == 2 * tau
        assert counter.count == report.total_base_steps
        assert report.total_base_steps == 2 * tau + 2 * 5 * report.iterations[-1].m

    def test_coverage_quick(self, cycle8, cycle8_f1):
        lam = dm.summarize(cycle8, cycle8_f1).second_eigenvalue
        hits = 0
        for rep in range(30):
            report = dm.warm_start(1, cycle8, lam, 1 / 8, cycle8_f1, 0.05, 0.1, seed=5000 + rep)
            hits += abs(report.estimate - 0.5) <= 0.05
        assert hits >= 27

    def test_rejects_bad_pi_min(self, cycle8, cycle8_f1):
        with pytest.raises(ValueError):
            dm.warm_start(0, cycle8, 0.5, 0.0, cycle8_f1, 0.1, 0.1, seed=0)


class TestReportSerialization:
    def test_stable_field_layout(self, cycle8, cycle8_f1):
        report = dm.mcmc_pro((0, 4), cycle8, 0.9, cycle8_f1, 0.2, 0.1, seed=8)
        payload = report.to_json()
        assert sorted(payload) == [
            "delta",
            "epsilon",
            "estimate",
            "function_range",
            "iterations",
            "lambda_bound",
            "schedule",
            "seed",
            "termination",
            "total_base_steps",
            "trace_length",
            "warmup_steps",
        ]
        assert "duration" not in str(sorted(payload))
        assert sorted(payload["iterations"][0]) == ["m", "mean", "radius", "variance", "variance_bound"]
