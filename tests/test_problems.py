"""Concrete objectives: regularizer, ERM gradients, network backprop, init."""

import math

import numpy as np
import pytest

from adaspider.core import OracleCounter, finite_difference_gradient, full_gradient
from adaspider.data import Dataset, generate_synthetic
from adaspider.problems import (
    MLPClassificationProblem,
    MLPNet,
    QuadraticProblem,
    RegularizedERM,
    kaiming_uniform_scaled_init,
    logsumexp,
    mlp_forward,
    mlp_loss_and_gradient,
    mlp_param_count,
    nonconvex_regularizer,
    nonconvex_regularizer_grad,
)


class TestRegularizer:
    def test_zero(self):
        assert nonconvex_regularizer(np.zeros(3)) == 0.0
        assert np.array_equal(nonconvex_regularizer_grad(np.zeros(3)), np.zeros(3))

    def test_ones(self):
        assert nonconvex_regularizer(np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_single_three(self):
        assert nonconvex_regularizer(np.array([3.0])) == pytest.approx(0.9)

    def test_gradient_at_one(self):
        assert nonconvex_regularizer_grad(np.array([1.0]))[0] == pytest.approx(0.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = 3.0 * rng.standard_normal(4)
            numeric = finite_difference_gradient(nonconvex_regularizer, x, 1e-6)
            assert np.allclose(nonconvex_regularizer_grad(x), numeric, atol=1e-6)

    def test_bounded_value_and_gradient(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = int(rng.integers(1, 8))
            x = 100.0 * rng.standard_normal(d)
            value = nonconvex_regularizer(x)
            assert 0.0 <= value < d
            assert np.all(np.abs(nonconvex_regularizer_grad(x)) <= 0.65)


class TestRegularizedERM:
    def test_logistic_gradient_at_zero(self):
        # sigmoid(0) = 1/2, so the loss part is -b a / 2 and the
        # regularizer part vanishes
        dataset = Dataset(
            indptr=[0, 2], indices=[1, 2], values=[2.0, -1.0], labels=[1.0], d=2
        )
        problem = RegularizedERM(dataset, loss_kind="logistic", lam=0.1)
        grad = problem.component_gradient(1, np.zeros(2))
        assert np.allclose(grad, [-1.0, 0.5])

    def test_squared_unit_case(self):
        dataset = Dataset(indptr=[0, 1], indices=[1], values=[1.0], labels=[0.0], d=1)
        problem = RegularizedERM(dataset, loss_kind="squared", lam=0.0)
        grad = problem.component_gradient(1, np.array([1.0]))
        assert np.allclose(grad, [1.0])

    def test_logistic_gradients_match_finite_differences(self):
        dataset = generate_synthetic("separable-logistic", n=10, d=6, seed=2)
        problem = RegularizedERM(dataset, loss_kind="logistic", lam=0.1)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(6)
            i = int(rng.integers(10)) + 1
            analytic = problem.component_gradient(i, x)
            numeric = finite_difference_gradient(
                lambda p: problem.component_value(i, p), x, 1e-6
            )
            rel = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(analytic))
            assert rel <= 1e-5

    def test_squared_gradients_match_finite_differences(self):
        dataset = generate_synthetic("quadratic", n=10, d=5, seed=4)
        problem = RegularizedERM(dataset, loss_kind="squared", lam=0.2)
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.standard_normal(5)
            i = int(rng.integers(10)) + 1
            analytic = problem.component_gradient(i, x)
            numeric = finite_difference_gradient(
                lambda p: problem.component_value(i, p), x, 1e-6
            )
            rel = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(analytic))
            assert rel <= 1e-5

    def test_component_mean_equals_full_gradient(self):
        dataset = generate_synthetic("separable-logistic", n=12, d=4, seed=1)
        problem = RegularizedERM(dataset, loss_kind="logistic", lam=0.1)
        x = np.random.default_rng(0).standard_normal(4)
        mean_of_components = np.stack(
            [problem.component_gradient(i, x) for i in range(1, 13)]
        ).mean(axis=0)
        assert np.array_equal(
            full_gradient(problem, x, OracleCounter()), mean_of_components
        )

    def test_metric_gradient_agrees_with_oracle_path(self):
        dataset = generate_synthetic("separable-logistic", n=12, d=4, seed=1)
        problem = RegularizedERM(dataset, loss_kind="logistic", lam=0.1)
        x = np.random.default_rng(1).standard_normal(4)
        assert np.allclose(
            problem.metric_gradient(x), problem.mean_gradient(x), atol=1e-14
        )

    def test_rejects_non_binary_labels_for_logistic(self):
        dataset = Dataset(indptr=[0, 1], indices=[1], values=[1.0], labels=[2.0], d=1)
        with pytest.raises(ValueError, match="label"):
            RegularizedERM(dataset, loss_kind="logistic")

    def test_value_is_mean_of_components(self):
        dataset = generate_synthetic("quadratic", n=7, d=3, seed=8)
        problem = RegularizedERM(dataset, loss_kind="squared", lam=0.3)
        x = np.random.default_rng(2).standard_normal(3)
        components = [problem.component_value(i, x) for i in range(1, 8)]
        assert problem.value(x) == pytest.approx(np.mean(components), rel=1e-12)


class TestQuadraticProblem:
    def test_exact_smoothness_is_max_spectral_norm(self):
        a1 = np.diag([1.0, -3.0])
        a2 = np.diag([2.0, 0.5])
        problem = QuadraticProblem(np.stack([a1, a2]), np.zeros((2, 2)))
        assert problem.known_smoothness == pytest.approx(3.0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        problem = QuadraticProblem.random(4, 3, rng)
        x = rng.standard_normal(3)
        for i in range(1, 5):
            numeric = finite_difference_gradient(
                lambda p: problem.component_value(i, p), x, 1e-6
            )
            assert np.allclose(problem.component_gradient(i, x), numeric, atol=1e-5)


class TestMLPForward:
    def test_zero_network_gives_zero_logits(self):
        dims = (3, 5, 2)
        net = MLPNet(layer_dims=dims, params=np.zeros(mlp_param_count(dims)))
        assert np.array_equal(mlp_forward(net, np.array([1.0, -2.0, 0.5])), np.zeros(2))

    def test_single_affine_layer(self):
        net = MLPNet(layer_dims=(2, 1), params=np.array([1.0, 1.0, 0.0]))
        assert mlp_forward(net, np.array([1.0, 2.0]))[0] == pytest.approx(3.0)

    def test_output_shape_and_finiteness(self):
        dims = (4, 8, 3)
        rng = np.random.default_rng(0)
        net = kaiming_uniform_scaled_init(dims, 1.0, rng)
        logits = mlp_forward(net, rng.standard_normal(4))
        assert logits.shape == (3,)
        assert np.all(np.isfinite(logits))

    def test_batch_forward_matches_per_sample(self):
        dims = (4, 8, 3)
        rng = np.random.default_rng(1)
        net = kaiming_uniform_scaled_init(dims, 0.5, rng)
        batch = rng.standard_normal((5, 4))
        batched = mlp_forward(net, batch)
        assert batched.shape == (5, 3)
        for k in range(5):
            assert np.allclose(batched[k], mlp_forward(net, batch[k]), atol=1e-14)

    def test_input_dimension_checked(self):
        net = MLPNet(layer_dims=(2, 1), params=np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            mlp_forward(net, np.zeros(3))


class TestMLPLoss:
    def test_zero_logits_loss_is_ln2(self):
        dims = (3, 2)
        net = MLPNet(layer_dims=dims, params=np.zeros(mlp_param_count(dims)))
        loss, _ = mlp_loss_and_gradient(net, np.ones(3), np.array([1.0, 0.0]))
        assert loss == pytest.approx(math.log(2.0))

    def test_binary_softmax_identity(self):
        # one unit fed by a single weight: logits are (t, 0)
        for t in (-3.0, 0.0, 2.5):
            net = MLPNet(layer_dims=(1, 2), params=np.array([t, 0.0, 0.0, 0.0]))
            loss, _ = mlp_loss_and_gradient(
                net, np.array([1.0]), np.array([1.0, 0.0])
            )
            assert loss == pytest.approx(math.log1p(math.exp(-t)))

    def test_gradient_matches_finite_differences(self):
        dims = (3, 4, 2)
        rng = np.random.default_rng(42)
        for _ in range(5):
            net = kaiming_uniform_scaled_init(dims, 0.5, rng)
            x_in = rng.standard_normal(3)
            label = np.zeros(2)
            label[int(rng.integers(2))] = 1.0
            _, analytic = mlp_loss_and_gradient(net, x_in, label)

            def loss_at(p):
                value, _ = mlp_loss_and_gradient(
                    MLPNet(layer_dims=dims, params=p), x_in, label
                )
                return value

            numeric = finite_difference_gradient(loss_at, net.params, 1e-6)
            rel = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(analytic))
            assert rel <= 1e-5

    def test_rejects_non_one_hot_labels(self):
        dims = (2, 2)
        net = MLPNet(layer_dims=dims, params=np.zeros(mlp_param_count(dims)))
        for bad in (np.array([1.0, 1.0]), np.array([0.5, 0.5]), np.zeros(2)):
            with pytest.raises(ValueError, match="one-hot"):
                mlp_loss_and_gradient(net, np.ones(2), bad)

    def test_logsumexp_stable_at_large_logits(self):
        z = np.array([1e3, -1e3, 500.0])
        assert np.isfinite(logsumexp(z))
        # loss through a network with huge logits stays finite
        net = MLPNet(layer_dims=(1, 2), params=np.array([1e3, -1e3, 0.0, 0.0]))
        loss, grad = mlp_loss_and_gradient(net, np.array([1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))


class TestKaimingScaledInit:
    def test_variance_matches_target_within_five_percent(self):
        # one wide layer gives 1e5 draws for the empirical variance
        dims = (500, 200, 1)
        c_init = 0.03
        net = kaiming_uniform_scaled_init(dims, c_init, np.random.default_rng(0))
        first_layer = net.params[: 500 * 200]
        target = c_init / 500
        assert abs(first_layer.var() - target) <= 0.05 * target

    def test_uniform_bound(self):
        c_init = 0.01
        dims = (100, 50, 2)
        net = kaiming_uniform_scaled_init(dims, c_init, np.random.default_rng(1))
        bound = math.sqrt(3 * c_init / 100)
        first_layer = net.params[: 100 * 50]
        assert np.max(np.abs(first_layer)) <= bound
        # the draws should come close to filling the interval
        assert np.max(np.abs(first_layer)) >= 0.95 * bound

    def test_biases_zero(self):
        dims = (4, 3, 2)
        net = kaiming_uniform_scaled_init(dims, 0.1, np.random.default_rng(2))
        w0_end = 4 * 3
        assert np.array_equal(net.params[w0_end : w0_end + 3], np.zeros(3))

    def test_deterministic_given_seed(self):
        dims = (6, 5, 4)
        a = kaiming_uniform_scaled_init(dims, 0.02, np.random.default_rng(7))
        b = kaiming_uniform_scaled_init(dims, 0.02, np.random.default_rng(7))
        assert np.array_equal(a.params, b.params)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            kaiming_uniform_scaled_init((3, 2), 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            kaiming_uniform_scaled_init((3,), 0.1, np.random.default_rng(0))


class TestMLPProblem:
    def test_component_count_and_dimension(self):
        dims = (5, 4, 3)
        dataset = generate_synthetic(
            "two-cluster-classification", n=9, d=5, seed=0, n_classes=3
        )
        problem = MLPClassificationProblem(dataset, dims)
        assert problem.n == 9
        assert problem.d == mlp_param_count(dims)

    def test_component_gradient_matches_finite_differences(self):
        dims = (4, 3, 2)
        dataset = generate_synthetic(
            "two-cluster-classification", n=5, d=4, seed=1, n_classes=2
        )
        problem = MLPClassificationProblem(dataset, dims)
        rng = np.random.default_rng(3)
        x = 0.3 * rng.standard_normal(problem.d)
        for i in (1, 3, 5):
            analytic = problem.component_gradient(i, x)
            numeric = finite_difference_gradient(
                lambda p: problem.component_value(i, p), x, 1e-6
            )
            rel = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(analytic))
            assert rel <= 1e-5

    def test_batched_value_matches_component_mean(self):
        dims = (5, 4, 3)
        dataset = generate_synthetic(
            "two-cluster-classification", n=9, d=5, seed=0, n_classes=3
        )
        problem = MLPClassificationProblem(dataset, dims)
        rng = np.random.default_rng(1)
        x = 0.3 * rng.standard_normal(problem.d)
        loop = np.mean([problem.component_value(i, x) for i in range(1, 10)])
        assert problem.value(x) == pytest.approx(loop, rel=1e-12)
