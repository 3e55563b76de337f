"""Inequality checkers: witness instances pass, corrupted bounds fail."""

import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaspider import verify
from adaspider.data import generate_synthetic
from adaspider.optimizers import AdaSpiderConfig, adaspider_run
from adaspider.problems import QuadraticProblem, RegularizedERM
from adaspider.verify import (
    LemmaReport,
    _path_gradient_norms,
    check_cumulative_variance,
    check_log_lemma,
    check_rate_scaling,
    check_sqrt_lemma,
    check_trajectory_bound,
    check_variance_recursion,
    check_weighted_variance,
    default_rate_problem,
    default_variance_problem,
    sweep_log_lemma,
    sweep_sqrt_lemma,
    sweep_trajectory_bound,
    sweep_variance_recursion,
)

non_negative_sequences = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    min_size=1,
    max_size=100,
)


class TestSqrtLemma:
    def test_all_ones_witness(self):
        # lhs sqrt(4) = 2, rhs 1 + 1/sqrt(2) + 1/sqrt(3) + 1/2
        report = check_sqrt_lemma([1.0, 1.0, 1.0, 1.0])
        assert report.passed
        rhs = 1.0 + 1.0 / math.sqrt(2) + 1.0 / math.sqrt(3) + 0.5
        assert report.worst_margin == pytest.approx(rhs - 2.0)

    def test_single_term_equality(self):
        for c in (0.5, 1.0, 9.0):
            report = check_sqrt_lemma([c])
            assert report.passed
            assert report.worst_margin == pytest.approx(0.0, abs=1e-12)

    def test_zeros_contribute_nothing(self):
        report = check_sqrt_lemma([0.0, 0.0, 4.0, 0.0])
        assert report.passed

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            check_sqrt_lemma([1.0, -0.1])

    @settings(max_examples=100, deadline=None)
    @given(alphas=non_negative_sequences)
    def test_holds_for_random_sequences(self, alphas):
        assert check_sqrt_lemma(alphas).passed

    def test_corrupted_bound_fails(self):
        assert not check_sqrt_lemma([1.0, 2.0, 3.0], rhs_factor=-1.0).passed
        assert not sweep_sqrt_lemma(
            50, np.random.default_rng(0), rhs_factor=0.5
        ).passed


class TestLogLemma:
    def test_single_one_witness(self):
        report = check_log_lemma([1.0])
        assert report.passed
        assert report.worst_margin == pytest.approx(math.log(2.0) - 0.5)

    def test_all_zero_is_tight(self):
        report = check_log_lemma([0.0, 0.0])
        assert report.passed
        assert report.worst_margin == pytest.approx(0.0, abs=1e-15)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            check_log_lemma([-1.0])

    @settings(max_examples=100, deadline=None)
    @given(alphas=non_negative_sequences)
    def test_holds_for_random_sequences(self, alphas):
        assert check_log_lemma(alphas).passed

    def test_corrupted_bound_fails(self):
        assert not check_log_lemma([2.0, 1.0], rhs_factor=-1.0).passed
        assert not sweep_log_lemma(50, np.random.default_rng(1), rhs_factor=0.1).passed


class TestSweeps:
    def test_thousand_random_sequences_no_violations(self):
        rng = np.random.default_rng(7)
        sqrt_report = sweep_sqrt_lemma(1000, rng)
        log_report = sweep_log_lemma(1000, rng)
        assert sqrt_report.passed and sqrt_report.trials == 1000
        assert log_report.passed and log_report.trials == 1000


class TestVarianceRecursion:
    def test_identical_points_reduce_to_anchor_variance(self):
        problem = QuadraticProblem.random(4, 2, np.random.default_rng(0))
        y = np.array([0.5, -1.0])
        dist = [(problem.component_gradient(i, y), 0.25) for i in range(1, 5)]
        report = check_variance_recursion(problem, y, y, dist)
        assert report.passed

    def test_deterministic_anchor_bounded_by_smoothness(self):
        problem = QuadraticProblem.random(3, 2, np.random.default_rng(1))
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        dist = [(problem.mean_gradient(y), 1.0)]
        report = check_variance_recursion(problem, x, y, dist)
        assert report.passed

    def test_hundred_random_instances(self):
        report = sweep_variance_recursion(100, np.random.default_rng(3))
        assert report.passed
        assert report.trials == 100

    def test_requires_probabilities_summing_to_one(self):
        problem = QuadraticProblem.random(2, 2, np.random.default_rng(2))
        dist = [(np.zeros(2), 0.5)]
        with pytest.raises(ValueError, match="probabilities"):
            check_variance_recursion(problem, np.zeros(2), np.ones(2), dist)

    def test_refuses_large_enumeration(self):
        problem = QuadraticProblem.random(21, 1, np.random.default_rng(4))
        dist = [(np.zeros(1), 1.0)]
        with pytest.raises(ValueError, match="enumeration"):
            check_variance_recursion(problem, np.zeros(1), np.ones(1), dist)

    def test_corrupted_bound_fails(self):
        report = sweep_variance_recursion(
            30, np.random.default_rng(5), rhs_factor=-1.0
        )
        assert not report.passed


class TestTrajectoryBound:
    def _run(self, steps=50, seed=0):
        problem = QuadraticProblem.random(4, 2, np.random.default_rng(seed))
        trace = adaspider_run(
            problem,
            np.array([1.0, -1.0]),
            AdaSpiderConfig(steps=steps),
            np.random.default_rng(seed + 1),
        )
        return problem, trace

    def test_zero_gradient_problem_trivially_within_bound(self):
        problem = QuadraticProblem(np.zeros((3, 2, 2)), np.zeros((3, 2)))
        trace = adaspider_run(
            problem, np.ones(2), AdaSpiderConfig(steps=10), np.random.default_rng(0)
        )
        report = check_trajectory_bound(trace, problem, 1.0)
        assert report.passed

    def test_two_component_quadratic_run(self):
        problem, trace = self._run()
        report = check_trajectory_bound(trace, problem, 1.0)
        assert report.passed
        # margin should be large: the cubic term dominates at T=50
        assert report.worst_margin >= 0.0

    def test_step_lengths_strictly_below_cap_generically(self):
        problem, trace = self._run(seed=3)
        lengths = trace.step_sizes * trace.estimator_norms
        assert np.all(lengths < 1.0)

    def test_fifty_seeded_runs(self):
        report = sweep_trajectory_bound(50, np.random.default_rng(11))
        assert report.passed
        assert report.trials == 50

    def test_missing_smoothness_rejected(self):
        problem, trace = self._run()
        problem.known_smoothness = None
        with pytest.raises(ValueError, match="smoothness"):
            check_trajectory_bound(trace, problem, 1.0)

    def test_corrupted_bound_fails(self):
        problem, trace = self._run()
        report = check_trajectory_bound(trace, problem, 1.0, rhs_factor=-1.0)
        assert not report.passed
        assert report.violations >= 1


class TestMonteCarloVariance:
    def test_cumulative_variance_holds(self):
        problem = default_variance_problem(0)
        report = check_cumulative_variance(
            problem, AdaSpiderConfig(steps=40), seeds=range(1, 101)
        )
        assert report.passed

    def test_weighted_variance_holds(self):
        problem = default_variance_problem(0)
        report = check_weighted_variance(
            problem, AdaSpiderConfig(steps=40), seeds=range(1, 101)
        )
        assert report.passed

    def test_period_one_left_side_vanishes(self):
        problem = default_variance_problem(1)
        config = AdaSpiderConfig(steps=10, period=1)
        trace = adaspider_run(
            problem, np.zeros(2), config, np.random.default_rng(0), keep_path=True
        )
        lhs = sum(
            float(np.sum((trace.estimates[t] - problem.mean_gradient(trace.iterates[t])) ** 2))
            for t in range(trace.num_steps)
        )
        assert lhs == 0.0

    def test_single_component_estimator_always_exact(self):
        problem = QuadraticProblem.random(1, 2, np.random.default_rng(2))
        trace = adaspider_run(
            problem,
            np.zeros(2),
            AdaSpiderConfig(steps=10),
            np.random.default_rng(0),
            keep_path=True,
        )
        for t in range(10):
            assert np.array_equal(
                trace.estimates[t], problem.mean_gradient(trace.iterates[t])
            )

    def test_too_few_seeds_refused(self):
        problem = default_variance_problem(0)
        with pytest.raises(ValueError, match="50"):
            check_cumulative_variance(
                problem, AdaSpiderConfig(steps=10), seeds=range(10)
            )

    def test_corrupted_bound_fails(self):
        problem = default_variance_problem(0)
        report = check_cumulative_variance(
            problem,
            AdaSpiderConfig(steps=40),
            seeds=range(1, 61),
            rhs_factor=-1.0,
        )
        assert not report.passed


def separate_budget_means(problem, t_grid, seed, x0, beta0=1.0):
    """The per-budget means as the rate check first computed them: one
    fresh run per budget and one true-gradient call per stored iterate."""
    means = []
    for t_budget in t_grid:
        trace = adaspider_run(
            problem,
            x0,
            AdaSpiderConfig(steps=t_budget, beta0=beta0),
            np.random.default_rng(seed),
            keep_path=True,
        )
        norms = np.array(
            [float(np.linalg.norm(problem.metric_gradient(xt))) for xt in trace.iterates]
        )
        means.append(float(norms.mean()))
    return means


# (problem, budget grid, seeds, x0, beta0); the logistic grid crosses the
# 256-row evaluation blocks, the last instance diverges at step 23.
RATE_CASES = {
    "logistic": (default_rate_problem(), (10, 256, 600), (0, 1), None, 1.0),
    "single-component": (
        QuadraticProblem(np.array([[[1.0, 0.0], [0.0, 2.0]]]), np.zeros((1, 2))),
        (10, 100, 1000),
        (0, 1, 2),
        np.array([2.0, 1.0]),
        1.0,
    ),
    "diverging": (
        QuadraticProblem(np.array([[[-1.0]], [[-3.0]]]), np.array([[0.5], [-0.2]])),
        (10, 100, 1000),
        (0,),
        np.array([1.0]),
        1e-11,
    ),
}


class TestRateScaling:
    @pytest.mark.parametrize("case", sorted(RATE_CASES))
    def test_one_run_per_seed_equals_separate_budget_runs(self, case):
        problem, t_grid, seeds, x0, beta0 = RATE_CASES[case]
        start = np.zeros(problem.d) if x0 is None else x0
        config = AdaSpiderConfig(steps=t_grid[-1], beta0=beta0)
        slopes = []
        for seed in seeds:
            expected = separate_budget_means(problem, t_grid, seed, start, beta0)
            path = adaspider_run(
                problem, start, config, np.random.default_rng(seed), keep_path=True
            ).iterates
            norms = _path_gradient_norms(problem, path)
            assert [float(norms[:t].mean()) for t in t_grid] == expected
            slopes.append(float(np.polyfit(np.log(t_grid), np.log(expected), 1)[0]))
        report = check_rate_scaling(problem, t_grid, seeds, beta0=beta0, x0=x0)
        assert report.worst_margin == -0.35 - float(np.median(slopes))
        if case == "diverging":
            trace = adaspider_run(problem, start, config, np.random.default_rng(0))
            assert trace.diverged_at == 23

    @pytest.mark.parametrize(
        "check",
        [
            lambda: check_rate_scaling(default_rate_problem(), (0, 10, 100), seeds=()),
            lambda: check_cumulative_variance(
                default_variance_problem(0), AdaSpiderConfig(steps=0), seeds=range(1, 61)
            ),
        ],
        ids=["rate", "variance"],
    )
    def test_nonpositive_budget_rejected(self, check):
        with pytest.raises(ValueError, match="step budget must be at least 1"):
            check()

    def test_single_component_quadratic_fast_decay(self):
        # n=1 makes the run exact gradient descent; decay beats -1/2 easily
        problem = QuadraticProblem(
            np.array([[[1.0, 0.0], [0.0, 2.0]]]), np.zeros((1, 2))
        )
        report = check_rate_scaling(
            problem,
            (10, 100, 1000),
            seeds=(0, 1, 2),
            x0=np.array([2.0, 1.0]),
            slope_threshold=-0.5,
        )
        assert report.passed

    def test_requires_three_grid_points(self):
        problem = default_rate_problem()
        with pytest.raises(ValueError, match="3"):
            check_rate_scaling(problem, (10, 100), seeds=(0,))

    def test_degenerate_zero_gradient_rejected(self):
        problem = QuadraticProblem(np.zeros((2, 1, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="degenerate"):
            check_rate_scaling(problem, (10, 100, 1000), seeds=(0,))

    def test_unattainable_threshold_fails(self):
        problem = QuadraticProblem(
            np.array([[[1.0]]]), np.zeros((1, 1))
        )
        report = check_rate_scaling(
            problem,
            (10, 100, 1000),
            seeds=(0,),
            x0=np.array([1.0]),
            slope_threshold=-50.0,
        )
        assert not report.passed


def per_seed_variance_report(lemma, weight_power, problem, config, seeds, x0) -> dict:
    """A Monte-Carlo variance report made with one adaspider_run per seed."""
    l2n = problem.known_smoothness**2 * problem.n
    diffs = np.empty(len(seeds))
    for k, seed in enumerate(seeds):
        trace = adaspider_run(problem, x0, config, np.random.default_rng(seed), keep_path=True)
        gammas = trace.step_sizes
        devs = trace.estimates - problem.mean_gradients(trace.iterates)
        lhs = 0.0
        for gamma, dev in zip(gammas, devs):
            lhs += gamma**weight_power * float(dev @ dev)
        rhs = l2n * float(np.sum(gammas ** (2 + weight_power) * trace.estimator_norms**2))
        diffs[k] = rhs - lhs
    mean = float(diffs.mean())
    stderr = float(diffs.std(ddof=1) / math.sqrt(len(diffs)))
    margin = mean + 3.0 * stderr
    return {
        "lemma": lemma,
        "trials": len(seeds),
        "violations": 0 if margin >= 0 else 1,
        "worst_margin": margin,
        "pass": margin >= 0,
        "detail": f"mean margin {mean:.3e}, stderr {stderr:.3e}, {len(seeds)} seeds",
    }


def per_seed_rate_slopes(problem, t_grid, seeds, x0, beta0, g0) -> list:
    """Rate-fit slopes made with one adaspider_run per seed and one true
    gradient call per iterate."""
    config = AdaSpiderConfig(steps=t_grid[-1], beta0=beta0, g0=g0)
    slopes = []
    for seed in seeds:
        trace = adaspider_run(problem, x0, config, np.random.default_rng(seed), keep_path=True)
        norms = np.array(
            [float(np.linalg.norm(problem.metric_gradient(xt))) for xt in trace.iterates]
        )
        means = [float(norms[:t].mean()) for t in t_grid]
        slopes.append(float(np.polyfit(np.log(t_grid), np.log(means), 1)[0]))
    return slopes


class TestSeededChecksEqualPerSeedRuns:
    """The rate and variance checks step their seeds as one lockstep block;
    their reports equal those of one run per seed."""

    @pytest.mark.parametrize("block", [1 << 22, 25 * 3 * 7, 1])
    def test_variance_reports(self, monkeypatch, block):
        # blocks of all 60 seeds, of 7 seeds and of one seed
        monkeypatch.setattr(verify, "_SEED_BLOCK_COORDS", block)
        problem = QuadraticProblem.random(6, 3, np.random.default_rng(5), definite=True)
        config = AdaSpiderConfig(steps=25, beta0=1.5, g0=0.7, period=5, inner_batch=2)
        seeds = list(range(7, 427, 7))
        x0 = np.array([0.5, -1.0, 2.0])
        for check, lemma, power in (
            (check_cumulative_variance, "cumulative_variance", 0),
            (check_weighted_variance, "weighted_variance", 1),
        ):
            report = check(problem, config, seeds, x0=x0)
            assert report.to_dict() == per_seed_variance_report(
                lemma, power, problem, config, seeds, x0
            )

    def test_both_variance_checks_share_their_runs(self, monkeypatch):
        made = []

        def seeded_runs(*args):
            made.append(args[3])
            return original(*args)

        original = verify._seeded_runs
        monkeypatch.setattr(verify, "_seeded_runs", seeded_runs)
        problem = default_variance_problem(3)
        config, seeds = AdaSpiderConfig(steps=20), range(1, 61)
        reports = [check(problem, config, seeds) for check in (
            check_cumulative_variance, check_weighted_variance,
            check_cumulative_variance, check_weighted_variance,
        )]
        assert len(made) == 1
        assert [r.to_dict() for r in reports[:2]] == [r.to_dict() for r in reports[2:]]
        # another config, seeds or x0 runs them anew, and so does going back
        changes = [
            (AdaSpiderConfig(steps=21), seeds, None),
            (AdaSpiderConfig(steps=20), range(1, 62), None),
            (AdaSpiderConfig(steps=20), seeds, np.array([-0.0, 0.0])),
        ]
        for other_config, other_seeds, x0 in changes:
            check_weighted_variance(problem, other_config, other_seeds, x0=x0)
            check_weighted_variance(problem, config, seeds)
        assert len(made) == 1 + 2 * len(changes)
        # so does another problem object; the kept runs do not keep their
        # problem alive
        check_weighted_variance(default_variance_problem(3), config, seeds)
        assert len(made) == 2 + 2 * len(changes)
        config.steps = 21  # the key keeps a copy of the config
        check_weighted_variance(problem, config, seeds)
        assert len(made) == 3 + 2 * len(changes)
        problem_ref = weakref.ref(problem)
        del problem
        gc.collect()
        assert problem_ref() is None

    @pytest.mark.parametrize("block", [1 << 22, 300 * 4 * 3, 1])
    def test_rate_report(self, monkeypatch, block):
        monkeypatch.setattr(verify, "_SEED_BLOCK_COORDS", block)
        dataset = generate_synthetic("quadratic", n=20, d=4, seed=3)
        problem = RegularizedERM(dataset, loss_kind="squared", lam=0.1)
        t_grid, seeds, x0 = (5, 40, 300), (3, 11, 4, 8), np.full(4, 0.3)
        report = check_rate_scaling(problem, t_grid, seeds, beta0=0.5, g0=2.0, x0=x0)
        median = float(np.median(per_seed_rate_slopes(problem, t_grid, seeds, x0, 0.5, 2.0)))
        assert report.worst_margin == -0.35 - median
        assert report.detail == (
            f"median slope {median:.3f} over {len(seeds)} seeds, threshold -0.35"
        )


class TestReports:
    def test_json_round_trip_fields(self):
        report = check_sqrt_lemma([1.0, 2.0])
        doc = json.loads(report.to_json())
        assert set(doc) == {
            "lemma",
            "trials",
            "violations",
            "worst_margin",
            "pass",
            "detail",
        }
        assert doc["lemma"] == "sqrt_sum"
        assert doc["pass"] is True

    def test_pass_iff_zero_violations(self):
        good = LemmaReport("x", 5, 0, 0.1, True)
        bad = LemmaReport("x", 5, 2, -0.1, False)
        assert good.passed == (good.violations == 0)
        assert bad.passed == (bad.violations == 0)

    def test_failure_detail_names_margin_and_sides(self):
        report = check_sqrt_lemma([1.0, 2.0, 3.0], rhs_factor=-1.0)
        assert not report.passed
        assert report.worst_margin < 0
        assert report.violations == 1
        assert "lhs=" in report.detail and "rhs=" in report.detail

    def test_sweep_failure_names_worst_trial(self):
        report = sweep_sqrt_lemma(20, np.random.default_rng(0), rhs_factor=0.5)
        assert not report.passed
        assert "worst trial" in report.detail

    def test_checkers_reproducible(self):
        a = sweep_sqrt_lemma(100, np.random.default_rng(3))
        b = sweep_sqrt_lemma(100, np.random.default_rng(3))
        assert a.worst_margin == b.worst_margin
