"""Optimizer runs: estimator, step sizes, accounting, reference simulations."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaspider.core import OracleCounter
from adaspider.data import generate_synthetic
from adaspider.harness import AlgorithmSpec, closed_form_oracle_calls
from adaspider.optimizers import (
    AdaSpiderConfig,
    adagrad_norm_run,
    adaspider_run,
    adaspider_step_size,
    select_output,
    sgd_run,
    spider_estimator_update,
    spider_run,
    spiderboost_run,
    svrg_run,
)
from adaspider.problems import QuadraticProblem, RegularizedERM

from test_core import ScaledSquare


def two_component_quadratic():
    """f_1(x) = x^2, f_2(x) = 2 x^2 in one dimension."""
    return ScaledSquare([1.0, 2.0])


def zero_problem(n=4, d=3):
    return QuadraticProblem(np.zeros((n, d, d)), np.zeros((n, d)))


def charged_after_each_step(run, steps: int) -> list:
    """The charged calls of the first t steps, for t = 1 .. ``steps``: the
    ``charged_calls`` of ``run(t)``, the same run with a budget of t steps."""
    return [run(t).charged_calls for t in range(1, steps + 1)]


class TestStepSize:
    def test_forced_arithmetic(self):
        assert adaspider_step_size(16, 1.0, 1.0, 0.0) == pytest.approx(0.25)
        assert adaspider_step_size(16, 1.0, 1.0, 12.0) == pytest.approx(0.125)
        assert adaspider_step_size(1, 2.0, 3.0, 0.0) == pytest.approx(1.0 / 6.0)

    def test_negative_accumulator_rejected(self):
        with pytest.raises(ValueError):
            adaspider_step_size(4, 1.0, 1.0, -1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=1000),
        increments=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30
        ),
    )
    def test_positive_and_non_increasing(self, n, increments):
        acc = 0.0
        previous = math.inf
        for inc in increments:
            acc += inc
            gamma = adaspider_step_size(n, 1.0, 1.0, acc)
            assert 0.0 < gamma <= previous
            previous = gamma


class TestSpiderEstimator:
    """The one SVRG/SPIDER estimate of a run alone,
    ``spider_estimator_update(problem, x, anchor, base, reset, exact,
    indices, counter)``, and the runs that step through it. It charges only
    a reset; the run charges its inner steps (``tests/test_lockstep.py``)."""

    def test_first_update_is_full_gradient(self):
        problem = two_component_quadratic()
        counter = OracleCounter()
        est = spider_estimator_update(
            problem, np.array([1.0]), None, None, True, False, None, counter
        )
        assert est == pytest.approx([3.0])
        assert counter.component_calls == 2

    def test_period_one_always_exact(self):
        problem = two_component_quadratic()
        def run(steps):
            return adaspider_run(
                problem, np.array([1.0]), AdaSpiderConfig(steps=steps, period=1),
                np.random.default_rng(1), keep_path=True,
            )

        trace = run(5)
        for x, est in zip(trace.iterates, trace.estimates):
            assert np.array_equal(est, problem.mean_gradient(x))
        assert charged_after_each_step(run, 5) == [2, 4, 6, 8, 10]

    def test_inner_update_enumeration(self):
        # anchor x=1 with estimate 3; at x=0.5 the two possible updates are
        # 1 - 2 + 3 = 2 (i=1) and 2 - 4 + 3 = 1 (i=2); their mean is the
        # true gradient 1.5
        problem = two_component_quadratic()
        seen = {}
        for seed in range(20):
            counter = OracleCounter()
            indices = np.random.default_rng(seed).integers(problem.n, size=1) + 1
            est = spider_estimator_update(
                problem, np.array([0.5]), np.array([1.0]), np.array([3.0]),
                False, False, indices, counter,
            )
            assert counter.component_calls == 0
            seen[round(float(est[0]), 12)] = True
        assert set(seen) == {2.0, 1.0}
        mean_over_components = np.mean(
            [
                problem.component_gradient(i, np.array([0.5]))
                - problem.component_gradient(i, np.array([1.0]))
                + 3.0
                for i in (1, 2)
            ]
        )
        assert mean_over_components == pytest.approx(1.5)
        assert problem.mean_gradient(np.array([0.5]))[0] == pytest.approx(1.5)

    def test_increment_unbiased_by_enumeration(self):
        rng = np.random.default_rng(5)
        for n in (2, 7, 20):
            problem = QuadraticProblem.random(n, 3, rng)
            x_prev = rng.standard_normal(3)
            x_new = rng.standard_normal(3)
            increments = np.stack(
                [
                    problem.component_gradient(i, x_new)
                    - problem.component_gradient(i, x_prev)
                    for i in range(1, n + 1)
                ]
            )
            expected = problem.mean_gradient(x_new) - problem.mean_gradient(x_prev)
            assert np.allclose(increments.mean(axis=0), expected, atol=1e-12)

    def test_reset_exactness_along_run(self):
        dataset = generate_synthetic("separable-logistic", n=6, d=4, seed=0)
        problem = RegularizedERM(dataset, lam=0.1)
        trace = adaspider_run(
            problem,
            np.zeros(4),
            AdaSpiderConfig(steps=20),
            np.random.default_rng(2),
            keep_path=True,
        )
        for t in range(0, 20, problem.n):
            full = problem.mean_gradient(trace.iterates[t])
            assert np.array_equal(trace.estimates[t], full)

    def test_batch_of_n_is_exact_difference(self):
        problem = QuadraticProblem.random(5, 2, np.random.default_rng(3))
        x_prev = np.array([1.0, -1.0])
        x_new = np.array([0.5, 0.25])
        prev_estimate = problem.mean_gradient(x_prev)
        counter = OracleCounter()
        est = spider_estimator_update(
            problem, x_new, x_prev, prev_estimate.copy(), False, True, None, counter
        )
        expected = (
            problem.mean_gradient(x_new) - problem.mean_gradient(x_prev) + prev_estimate
        )
        assert np.allclose(est, expected, atol=1e-15)
        assert counter.component_calls == 0

    def test_run_with_batch_of_n_takes_the_exact_difference(self):
        # a SPIDER run whose inner batch is n or more draws nothing and steps
        # by the difference of two exact full gradients
        problem = QuadraticProblem.random(5, 2, np.random.default_rng(3))

        def run(steps, rng=None):
            return spiderboost_run(
                problem, np.array([1.0, -1.0]), 10.0, steps, rng or np.random.default_rng(0),
                period=100, batch_size=5, keep_path=True,
            )

        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        trace = run(6, rng)
        assert rng.bit_generator.state == before
        assert list(np.diff(charged_after_each_step(run, 6))) == [10] * 5
        for t in range(1, 6):
            x, anchor = trace.iterates[t], trace.iterates[t - 1]
            expected = (
                problem.mean_gradient(x) - problem.mean_gradient(anchor)
            ) + trace.estimates[t - 1]
            assert np.array_equal(trace.estimates[t], expected)

    @staticmethod
    def count_rows(monkeypatch, problem, name):
        """The rows of each call of ``problem.<name>``, in order."""
        rows, original = [], getattr(problem, name)

        def counted(*args):
            result = original(*args)
            rows.append(len(result))
            return result

        monkeypatch.setattr(problem, name, counted)
        return rows

    def test_batched_inner_step_is_one_component_gradients_call(self, monkeypatch):
        # the samples at x and at the anchor come from one batched call, of
        # the unchecked body of component_gradients, since the loop drew them;
        # the resets (steps 0, 4 and 8) take their gradients through mean_gradients
        dataset = generate_synthetic("separable-logistic", n=16, d=3, seed=0)
        problem = RegularizedERM(dataset, lam=0.1)
        rows = self.count_rows(monkeypatch, problem, "_gradients")
        spiderboost_run(
            problem, np.zeros(3), 1.0, 10, np.random.default_rng(0), period=4, batch_size=3
        )
        assert rows == [2 * 3] * 7

    def test_exact_inner_step_is_one_mean_gradients_call(self, monkeypatch):
        # a batch of n or more: both full gradients of an inner step in one
        # two-row call, as a reset (steps 0, 4 and 8) takes its one row
        problem = QuadraticProblem.random(5, 2, np.random.default_rng(3))
        rows = self.count_rows(monkeypatch, problem, "mean_gradients")
        spider_run(
            problem, np.zeros(2), 0.1, 10.0, 10, np.random.default_rng(0),
            period=4, inner_batch=5,
        )
        assert rows == [1, 2, 2, 2, 1, 2, 2, 2, 1, 2]


class TestAdaSpiderRun:
    def test_zero_gradient_problem_fixed_point(self):
        problem = zero_problem(n=16, d=3)
        x0 = np.array([1.0, -2.0, 0.5])
        trace = adaspider_run(
            problem, x0, AdaSpiderConfig(steps=12), np.random.default_rng(0), keep_path=True
        )
        assert np.array_equal(trace.x_final, x0)
        expected_gamma = 1.0 / (math.sqrt(16) * 1.0 * 1.0)
        assert np.allclose(trace.step_sizes, expected_gamma)

    def test_oracle_calls_closed_form(self):
        problem = QuadraticProblem.random(8, 2, np.random.default_rng(1))
        trace = adaspider_run(
            problem, np.zeros(2), AdaSpiderConfig(steps=8), np.random.default_rng(0)
        )
        assert trace.charged_calls == 8 + 2 * 7
        for steps in (1, 5, 8, 17, 24):
            trace = adaspider_run(
                problem,
                np.zeros(2),
                AdaSpiderConfig(steps=steps),
                np.random.default_rng(0),
            )
            assert trace.charged_calls == closed_form_oracle_calls(
                AlgorithmSpec("adaspider"), problem, steps
            )

    def test_matches_scalar_reference_simulation(self):
        # independent straight-line re-implementation in plain floats
        problem = two_component_quadratic()
        seed, steps = 123, 50
        trace = adaspider_run(
            problem,
            np.array([1.0]),
            AdaSpiderConfig(steps=steps),
            np.random.default_rng(seed),
            keep_path=True,
        )

        rng = np.random.default_rng(seed)
        coeffs = (1.0, 2.0)  # gradients of the components are 2 c x
        x = 1.0
        x_prev = None
        estimate = 0.0
        accum = 0.0
        ref_iterates, ref_gammas = [], []
        for t in range(steps):
            ref_iterates.append(x)
            if t % 2 == 0:
                estimate = (2.0 * coeffs[0] * x + 2.0 * coeffs[1] * x) / 2.0
            else:
                i = int(rng.integers(2))
                estimate = (
                    2.0 * coeffs[i] * x - 2.0 * coeffs[i] * x_prev + estimate
                )
            accum += estimate * estimate
            gamma = 1.0 / (2.0**0.25 * math.sqrt(math.sqrt(2.0) + accum))
            ref_gammas.append(gamma)
            x_prev = x
            x = x - gamma * estimate
        assert np.allclose(trace.iterates[:, 0], ref_iterates, atol=1e-12)
        assert np.allclose(trace.step_sizes, ref_gammas, atol=1e-12)
        assert trace.x_final[0] == pytest.approx(x, abs=1e-12)

    def test_step_size_monotone_and_step_length_bounded(self):
        dataset = generate_synthetic("separable-logistic", n=10, d=5, seed=1)
        problem = RegularizedERM(dataset, lam=0.1)
        for beta0 in (0.5, 1.0, 2.0):
            trace = adaspider_run(
                problem,
                np.zeros(5),
                AdaSpiderConfig(steps=60, beta0=beta0),
                np.random.default_rng(4),
                keep_path=True,
            )
            assert np.all(np.diff(trace.step_sizes) <= 1e-15)
            lengths = trace.step_sizes * trace.estimator_norms
            assert np.all(lengths <= 1.0 / beta0 + 1e-12)

    def test_deterministic_given_seed(self):
        dataset = generate_synthetic("separable-logistic", n=6, d=3, seed=0)
        problem = RegularizedERM(dataset, lam=0.1)
        a, b = (
            adaspider_run(
                problem, np.zeros(3), AdaSpiderConfig(steps=30), np.random.default_rng(9),
                keep_path=True,
            )
            for _ in range(2)
        )
        assert np.array_equal(a.x_final, b.x_final)
        assert np.array_equal(a.step_sizes, b.step_sizes)
        assert a.charged_calls == b.charged_calls

    def test_inner_batch_extension_charges_per_sample(self):
        problem = QuadraticProblem.random(9, 2, np.random.default_rng(2))
        trace = adaspider_run(
            problem,
            np.zeros(2),
            AdaSpiderConfig(steps=9, inner_batch=3),
            np.random.default_rng(0),
        )
        assert trace.charged_calls == 9 + 6 * 8

    def test_nonfinite_iterate_recorded_not_raised(self):
        class PoisonedAwayFromStart(ScaledSquare):
            # clean gradients at the initial point, NaN elsewhere, so the
            # first inner step produces a non-finite iterate
            def component_gradient(self, i, x):
                if x[0] == 1.0:
                    return super().component_gradient(i, x)
                return np.array([np.nan])

        trace = adaspider_run(
            PoisonedAwayFromStart([1.0, 2.0]),
            np.array([1.0]),
            AdaSpiderConfig(steps=10),
            np.random.default_rng(0),
        )
        assert trace.diverged
        assert trace.diverged_at == 1
        assert trace.num_steps == 2  # aborted early
        assert math.isinf(trace.epoch_rows[-1].loss)

    def test_runaway_iterates_recorded_as_divergence(self):
        problem = ScaledSquare([0.5])  # gradient x; eta 3 doubles |x| per step
        trace = sgd_run(
            problem, np.array([1.0]), eta=3.0, steps=200, rng=np.random.default_rng(0)
        )
        assert trace.diverged
        assert trace.num_steps < 200
        assert math.isinf(trace.epoch_rows[-1].grad_norm)


class TestSpiderRun:
    def test_step_size_min_formula(self):
        eps, smoothness, n = 0.01, 100.0, 16
        norm = 1.0
        expected = min(
            eps / (smoothness * math.sqrt(n) * norm),
            1.0 / (2.0 * math.sqrt(n) * smoothness),
        )
        assert expected == pytest.approx(2.5e-5)
        problem = QuadraticProblem.random(n, 2, np.random.default_rng(0))
        trace = spider_run(
            problem,
            np.zeros(2),
            epsilon=eps,
            smoothness=smoothness,
            steps=5,
            rng=np.random.default_rng(1),
            keep_path=True,
        )
        for gamma, est_norm in zip(trace.step_sizes, trace.estimator_norms):
            want = (
                1.0 / (2.0 * math.sqrt(n) * smoothness)
                if est_norm == 0
                else min(
                    eps / (smoothness * math.sqrt(n) * est_norm),
                    1.0 / (2.0 * math.sqrt(n) * smoothness),
                )
            )
            assert gamma == pytest.approx(want, rel=1e-12)

    def test_zero_norm_selects_constant_branch(self):
        problem = zero_problem(n=4, d=2)
        trace = spider_run(
            problem,
            np.ones(2),
            epsilon=0.5,
            smoothness=2.0,
            steps=3,
            rng=np.random.default_rng(0),
            keep_path=True,
        )
        assert np.allclose(trace.step_sizes, 1.0 / (2.0 * math.sqrt(4) * 2.0))

    def test_step_length_capped_by_accuracy(self):
        dataset = generate_synthetic("separable-logistic", n=9, d=4, seed=2)
        problem = RegularizedERM(dataset, lam=0.1)
        eps, smoothness = 0.05, problem.known_smoothness
        trace = spider_run(
            problem,
            np.zeros(4),
            epsilon=eps,
            smoothness=smoothness,
            steps=40,
            rng=np.random.default_rng(3),
            keep_path=True,
        )
        lengths = trace.step_sizes * trace.estimator_norms
        assert np.all(lengths <= eps / (smoothness * math.sqrt(9)) + 1e-15)

    def test_matches_scalar_reference_simulation(self):
        # the eps rule in plain floats: both branches of the min are taken
        problem = two_component_quadratic()
        seed, steps, eps, smoothness = 5, 40, 0.5, 4.0
        trace = spider_run(
            problem,
            np.array([1.0]),
            epsilon=eps,
            smoothness=smoothness,
            steps=steps,
            rng=np.random.default_rng(seed),
            keep_path=True,
        )
        rng = np.random.default_rng(seed)
        coeffs = (1.0, 2.0)
        cap = 1.0 / (2.0 * math.sqrt(2.0) * smoothness)
        x, x_prev, estimate = 1.0, None, 0.0
        ref_iterates, ref_gammas = [], []
        for t in range(steps):
            ref_iterates.append(x)
            if t % 2 == 0:
                estimate = (2.0 * coeffs[0] * x + 2.0 * coeffs[1] * x) / 2.0
            else:
                i = int(rng.integers(2))
                estimate = 2.0 * coeffs[i] * x - 2.0 * coeffs[i] * x_prev + estimate
            if estimate == 0.0:
                gamma = cap
            else:
                gamma = min(eps / (smoothness * math.sqrt(2.0) * abs(estimate)), cap)
            ref_gammas.append(gamma)
            x_prev = x
            x = x - gamma * estimate
        assert cap in ref_gammas and min(ref_gammas) < cap
        assert np.allclose(trace.iterates[:, 0], ref_iterates, atol=1e-12)
        assert np.allclose(trace.step_sizes, ref_gammas, atol=1e-12)
        assert trace.x_final[0] == pytest.approx(x, abs=1e-12)

    def test_invalid_parameters(self):
        problem = zero_problem()
        with pytest.raises(ValueError):
            spider_run(problem, np.zeros(3), 0.0, 1.0, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            spider_run(problem, np.zeros(3), 0.1, -1.0, 5, np.random.default_rng(0))

    @pytest.mark.parametrize("batch", [0, -2])
    def test_non_positive_batch_rejected(self, batch):
        problem = zero_problem()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="batch"):
            spider_run(problem, np.zeros(3), 0.1, 1.0, 5, rng, inner_batch=batch)
        with pytest.raises(ValueError, match="batch"):
            spiderboost_run(problem, np.zeros(3), 1.0, 5, rng, batch_size=batch)


class TestSpiderBoostRun:
    def test_schedule_and_charges_n16(self):
        problem = QuadraticProblem.random(16, 2, np.random.default_rng(2))

        def run(steps):
            return spiderboost_run(
                problem,
                np.zeros(2),
                smoothness=10.0,
                steps=steps,
                rng=np.random.default_rng(0),
            )

        # full pass every 4 steps, batch 4: charges n, 8, 8, 8, n, 8, 8, 8
        per_step = np.diff(np.concatenate([[0], charged_after_each_step(run, 8)]))
        assert per_step.tolist() == [16, 8, 8, 8, 16, 8, 8, 8]

    def test_constant_step_size(self):
        problem = QuadraticProblem.random(9, 2, np.random.default_rng(4))
        trace = spiderboost_run(
            problem,
            np.zeros(2),
            smoothness=200.0,
            steps=6,
            rng=np.random.default_rng(0),
            keep_path=True,
        )
        assert np.allclose(trace.step_sizes, 0.005)

    def test_full_batch_recursion_has_zero_variance(self):
        problem = QuadraticProblem.random(6, 2, np.random.default_rng(5))
        trace = spiderboost_run(
            problem,
            0.1 * np.ones(2),
            smoothness=50.0,
            steps=10,
            rng=np.random.default_rng(1),
            batch_size=6,
            keep_path=True,
        )
        for t in range(10):
            assert np.allclose(
                trace.estimates[t],
                problem.mean_gradient(trace.iterates[t]),
                atol=1e-12,
            )


    def test_matches_scalar_reference_simulation(self):
        # a batch of 2 on n = 2 takes the exact difference of full
        # gradients between resets, and draws nothing
        problem = two_component_quadratic()
        steps, smoothness = 30, 4.0
        rng = np.random.default_rng(9)
        trace = spiderboost_run(
            problem,
            np.array([1.0]),
            smoothness=smoothness,
            steps=steps,
            rng=rng,
            batch_size=2,
            keep_path=True,
        )
        assert rng.bit_generator.state == np.random.default_rng(9).bit_generator.state
        coeffs = (1.0, 2.0)
        x, x_prev, estimate = 1.0, None, 0.0
        ref_iterates = []
        for t in range(steps):
            ref_iterates.append(x)
            full = (2.0 * coeffs[0] * x + 2.0 * coeffs[1] * x) / 2.0
            if t % 2 == 0:
                estimate = full
            else:
                prev = (2.0 * coeffs[0] * x_prev + 2.0 * coeffs[1] * x_prev) / 2.0
                estimate = full - prev + estimate
            x_prev = x
            x = x - estimate / smoothness
        assert np.allclose(trace.iterates[:, 0], ref_iterates, atol=1e-12)
        assert np.allclose(trace.step_sizes, 1.0 / smoothness, atol=1e-12)
        assert trace.x_final[0] == pytest.approx(x, abs=1e-12)


class TestSvrgRun:
    def test_snapshot_step_uses_exact_full_gradient(self):
        problem = QuadraticProblem.random(5, 3, np.random.default_rng(6))

        def run(steps):
            return svrg_run(
                problem,
                np.ones(3),
                eta=0.01,
                epoch_length=4,
                steps=steps,
                rng=np.random.default_rng(0),
                keep_path=True,
            )

        trace = run(9)
        for t in (0, 4, 8):
            assert np.array_equal(
                trace.estimates[t], problem.mean_gradient(trace.iterates[t])
            )
        per_step = np.diff(np.concatenate([[0], charged_after_each_step(run, 9)]))
        assert per_step.tolist() == [5, 2, 2, 2, 5, 2, 2, 2, 5]

    def test_corrected_gradient_cancels_at_snapshot_point(self):
        # at x == y the correction grad f_i(x) - grad f_i(y) vanishes for
        # every i, leaving exactly the snapshot full gradient
        problem = QuadraticProblem.random(4, 2, np.random.default_rng(7))
        y = np.array([0.3, -0.8])
        mu = problem.mean_gradient(y)
        for i in range(1, 5):
            corrected = (
                problem.component_gradient(i, y)
                - problem.component_gradient(i, y)
                + mu
            )
            assert np.array_equal(corrected, mu)

    def test_epoch_length_one_is_full_gradient_descent(self):
        problem = QuadraticProblem.random(3, 2, np.random.default_rng(8))
        eta, steps = 0.05, 7
        trace = svrg_run(
            problem,
            np.ones(2),
            eta=eta,
            epoch_length=1,
            steps=steps,
            rng=np.random.default_rng(0),
        )
        x = np.ones(2)
        for _ in range(steps):
            x = x - eta * problem.mean_gradient(x)
        assert np.allclose(trace.x_final, x, atol=1e-12)
        assert trace.charged_calls == 3 * steps

    def test_matches_scalar_reference_simulation(self):
        problem = two_component_quadratic()
        seed, steps, eta, m = 77, 30, 0.05, 3
        trace = svrg_run(
            problem,
            np.array([1.0]),
            eta=eta,
            epoch_length=m,
            steps=steps,
            rng=np.random.default_rng(seed),
        )
        rng = np.random.default_rng(seed)
        coeffs = (1.0, 2.0)
        x = 1.0
        y = mu = 0.0
        for t in range(steps):
            if t % m == 0:
                y = x
                mu = (2.0 * coeffs[0] * y + 2.0 * coeffs[1] * y) / 2.0
                g = mu
            else:
                i = int(rng.integers(2))
                g = 2.0 * coeffs[i] * x - 2.0 * coeffs[i] * y + mu
            x = x - eta * g
        assert trace.x_final[0] == pytest.approx(x, abs=1e-12)


class TestSgdRun:
    def test_single_component_contraction(self):
        problem = ScaledSquare([0.5])  # f(x) = x^2 / 2, gradient x
        trace = sgd_run(
            problem, np.array([1.0]), eta=0.1, steps=3, rng=np.random.default_rng(0)
        )
        assert trace.x_final[0] == pytest.approx(0.9**3)
        assert trace.charged_calls == 3

    def test_zero_gradient_constant_iterates(self):
        problem = zero_problem()
        x0 = np.array([1.0, 2.0, 3.0])
        trace = sgd_run(problem, x0, eta=0.5, steps=5, rng=np.random.default_rng(1))
        assert np.array_equal(trace.x_final, x0)


    def test_matches_scalar_reference_simulation(self):
        problem = two_component_quadratic()
        seed, steps, eta = 31, 40, 0.1
        trace = sgd_run(
            problem,
            np.array([1.0]),
            eta=eta,
            steps=steps,
            rng=np.random.default_rng(seed),
            keep_path=True,
        )
        rng = np.random.default_rng(seed)
        coeffs = (1.0, 2.0)
        x = 1.0
        ref_iterates = []
        for t in range(steps):
            ref_iterates.append(x)
            i = int(rng.integers(2))
            x = x - eta * 2.0 * coeffs[i] * x
        assert np.allclose(trace.iterates[:, 0], ref_iterates, atol=1e-12)
        assert np.allclose(trace.step_sizes, eta, atol=1e-12)
        assert trace.x_final[0] == pytest.approx(x, abs=1e-12)


class TestAdagradNormRun:
    def test_zero_first_gradient_no_movement(self):
        problem = zero_problem()
        trace = adagrad_norm_run(
            problem,
            np.ones(3),
            eta=0.5,
            b0=2.0,
            steps=1,
            rng=np.random.default_rng(0),
            keep_path=True,
        )
        assert trace.step_sizes[0] == pytest.approx(0.25)  # eta / b0
        assert np.array_equal(trace.x_final, np.ones(3))

    def test_effective_step_sizes_non_increasing(self):
        dataset = generate_synthetic("separable-logistic", n=8, d=4, seed=3)
        problem = RegularizedERM(dataset, lam=0.1)
        trace = adagrad_norm_run(
            problem,
            np.zeros(4),
            eta=0.1,
            b0=1e-4,
            steps=50,
            rng=np.random.default_rng(2),
            keep_path=True,
        )
        assert np.all(np.diff(trace.step_sizes) <= 1e-18)

    def test_matches_direct_recurrence(self):
        problem = two_component_quadratic()
        seed, steps, eta, b0 = 13, 25, 0.05, 0.1
        trace = adagrad_norm_run(
            problem,
            np.array([1.0]),
            eta=eta,
            b0=b0,
            steps=steps,
            rng=np.random.default_rng(seed),
        )
        rng = np.random.default_rng(seed)
        x, acc = 1.0, 0.0
        for _ in range(steps):
            i = int(rng.integers(2))
            g = 2.0 * (1.0, 2.0)[i] * x
            acc += g * g
            x = x - eta * g / math.sqrt(b0**2 + acc)
        assert trace.x_final[0] == pytest.approx(x, abs=1e-12)


class TestSelectOutput:
    def test_single_step_returns_initial_point(self):
        problem = two_component_quadratic()
        trace = adaspider_run(
            problem, np.array([1.0]), AdaSpiderConfig(steps=1), np.random.default_rng(0)
        )
        uniform, best = select_output(trace, np.random.default_rng(5))
        assert np.array_equal(uniform, np.array([1.0]))
        assert np.array_equal(best, np.array([1.0]))

    def test_best_by_measured_norm(self):
        problem = two_component_quadratic()
        trace = adaspider_run(
            problem, np.array([1.0]), AdaSpiderConfig(steps=1), np.random.default_rng(0)
        )
        trace.epoch_rows[0].grad_norm = 3.0
        trace.epoch_rows.append(
            type(trace.epoch_rows[0])(1, 10, 0.0, 1.0, 0.1)
        )
        trace.epoch_points.append(np.array([0.5]))
        trace.epoch_rows.append(
            type(trace.epoch_rows[0])(2, 20, 0.0, 2.0, 0.1)
        )
        trace.epoch_points.append(np.array([0.7]))
        _, best = select_output(trace, np.random.default_rng(0))
        assert np.array_equal(best, np.array([0.5]))

    def test_deterministic_given_seed(self):
        problem = two_component_quadratic()
        trace = adaspider_run(
            problem,
            np.array([1.0]),
            AdaSpiderConfig(steps=9),
            np.random.default_rng(0),
        )
        u1, b1 = select_output(trace, np.random.default_rng(42))
        u2, b2 = select_output(trace, np.random.default_rng(42))
        assert np.array_equal(u1, u2)
        assert np.array_equal(b1, b2)


    def test_diverged_terminal_snapshot_never_picked(self):
        # eta 1e13 moves x0 = 1 beyond the divergence limit in one step, so
        # the trace holds the epoch-0 snapshot and the non-finite terminal one
        problem = two_component_quadratic()
        trace = sgd_run(
            problem, np.array([1.0]), eta=1e13, steps=5, rng=np.random.default_rng(0)
        )
        assert trace.diverged and trace.diverged_at == 0
        assert len(trace.epoch_points) == 2
        assert abs(trace.epoch_points[-1][0]) > 1e12
        for seed in range(20):
            uniform, best = select_output(trace, np.random.default_rng(seed))
            assert np.array_equal(uniform, np.array([1.0]))
            assert np.array_equal(best, np.array([1.0]))

    def test_diverged_run_picks_only_finite_snapshots(self):
        problem = ScaledSquare([0.5])  # gradient x; eta 3 doubles |x| per step
        trace = sgd_run(
            problem, np.array([1.0]), eta=3.0, steps=200, rng=np.random.default_rng(0)
        )
        assert trace.diverged
        finite = trace.epoch_points[:-1]
        for seed in range(50):
            uniform, best = select_output(trace, np.random.default_rng(seed))
            assert any(uniform is p for p in finite)
            assert best is finite[0]


class TestTraceShape:
    def test_trace_length_equals_steps_and_calls_non_decreasing(self):
        dataset = generate_synthetic("separable-logistic", n=7, d=3, seed=5)
        problem = RegularizedERM(dataset, lam=0.1)
        def run(steps):
            return adaspider_run(
                problem,
                np.zeros(3),
                AdaSpiderConfig(steps=steps),
                np.random.default_rng(0),
            )

        for steps in (1, 7, 20):
            trace = run(steps)
            assert trace.num_steps == steps
            assert np.all(np.diff(charged_after_each_step(run, steps)) >= 0)
            epochs_calls = [r.oracle_calls for r in trace.epoch_rows]
            assert epochs_calls == sorted(epochs_calls)

    # A run alone keeps nothing per step without keep_path, and with True
    # 16 bytes a step for its step sizes and norms plus 8 d for each path;
    # the rest is its epoch rows.
    # At 20,000 steps a layout of 112 bytes a step (672 with both paths)
    # still reads past both bounds.
    @pytest.mark.parametrize("keep_path, bound", [(False, 48), (True, 128)])
    def test_step_records_stay_small(self, keep_path, bound):
        problem = RegularizedERM(generate_synthetic("separable-logistic", 50, 5, 0))
        steps = 20_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = sgd_run(
                problem, np.zeros(5), 0.1, steps, np.random.default_rng(0), keep_path=keep_path
            )
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert trace.num_steps == steps
        assert peak / steps <= bound


# Every positive real argument of each run function: (algo, key, message).
# The AdaSpider keys are set on its config.
POSITIVE_ARGUMENTS = [
    ("sgd", "eta", "step size"),
    ("adagrad_norm", "eta", "step size"),
    ("adagrad_norm", "b0", "norm offset b0"),
    ("svrg", "eta", "step size"),
    ("spider", "epsilon", "target accuracy"),
    ("spider", "smoothness", "smoothness constant"),
    ("spiderboost", "smoothness", "smoothness constant"),
    ("adaspider", "beta0", "beta0 and G0"),
    ("adaspider", "g0", "beta0 and G0"),
]


# Each run function but adaspider_run, with valid values of its other arguments.
RUNS = {
    "sgd": (sgd_run, {"eta": 0.1}),
    "adagrad_norm": (adagrad_norm_run, {"eta": 0.1, "b0": 1.0}),
    "svrg": (svrg_run, {"eta": 0.1, "epoch_length": None}),
    "spider": (spider_run, {"epsilon": 0.1, "smoothness": 1.0}),
    "spiderboost": (spiderboost_run, {"smoothness": 1.0}),
}


def call_run(algo, problem, rng, **values):
    """``<algo>_run`` for 5 steps from zero with valid arguments, except
    for ``values``."""
    x0 = np.zeros(problem.d)
    if algo == "adaspider":
        return adaspider_run(problem, x0, AdaSpiderConfig(steps=5, **values), rng)
    run, args = RUNS[algo]
    return run(problem, x0, steps=5, rng=rng, **{**args, **values})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("algo,key,what", POSITIVE_ARGUMENTS)
def test_run_refuses_an_argument_not_positive_and_finite(algo, key, what, value):
    # NaN and infinity once slipped past the `<= 0` checks: NaN steps
    # "diverged" at step 0, and beta0 = inf took zero-length steps
    problem = QuadraticProblem.random(4, 2, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    with pytest.raises(ValueError) as refused:
        call_run(algo, problem, rng, **{key: value})
    assert str(refused.value) == f"{what} must be positive and finite"
    assert rng.bit_generator.state == before
    assert not call_run(algo, problem, rng, **{key: 0.5}).diverged


@pytest.mark.parametrize("beta0,g0", [(math.nan, 1.0), (1.0, math.inf), (math.inf, 1.0)])
def test_step_size_refuses_constants_not_positive_and_finite(beta0, g0):
    with pytest.raises(ValueError, match="beta0 and G0 must be positive and finite"):
        adaspider_step_size(4, beta0, g0, 0.0)
