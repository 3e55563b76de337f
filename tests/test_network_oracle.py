"""The network oracle is one stacked forward pass and one backpropagation:
its one-row and k-row logits, losses and gradients are bitwise equal to
the per-sample reference in ``mlp_reference``."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mlp_reference import reference_rows

from adaspider.data import generate_synthetic
from adaspider.problems import (
    MLPClassificationProblem,
    MLPNet,
    _stacked_forward,
    mlp_forward,
    mlp_loss_and_gradient,
    mlp_param_count,
)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=4),
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
    # 0.0 and -0.0 give zero parameters of both signs
    scale=st.sampled_from([0.0, -0.0, 0.01, 1.0, 30.0]),
    picks=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=12),
)
@example(dims=[1, 1], n=1, seed=0, scale=0.0, picks=[0, 0])
@example(dims=[3, 1, 2], n=3, seed=1, scale=-0.0, picks=[2, 0, 2])
def test_one_row_and_k_row_calls_match_reference(dims, n, seed, scale, picks):
    dims = tuple(dims)
    dataset = generate_synthetic(
        "two-cluster-classification", n, dims[0], seed, n_classes=dims[-1]
    )
    problem = MLPClassificationProblem(dataset, dims)
    rng = np.random.default_rng(seed + 1)
    x = scale * rng.standard_normal(mlp_param_count(dims))
    net = MLPNet(layer_dims=dims, params=x)
    indices = [1 + p % n for p in picks]  # a multiset: repeats allowed
    expected = reference_rows(problem, indices, x)

    rows = problem.component_gradients(indices, x)
    _, activations, _ = _stacked_forward(
        dims, x, problem._features[np.array(indices) - 1]
    )
    for r, (i, (logits, loss, grad)) in enumerate(zip(indices, expected)):
        assert same_bits(rows[r], grad)
        assert same_bits(activations[-1][r], logits)
        assert same_bits(problem.component_gradient(i, x), grad)
        assert same_bits(problem.component_value(i, x), loss)
        sample = problem._features[i - 1]
        assert same_bits(mlp_forward(net, sample), logits)
        one_loss, one_grad = mlp_loss_and_gradient(net, sample, problem._one_hot[i - 1])
        assert same_bits(one_loss, loss)
        assert same_bits(one_grad, grad)


def test_problem_oracle_rejects_wrong_parameter_length():
    dims = (3, 2, 2)
    dataset = generate_synthetic("two-cluster-classification", 4, 3, 0, n_classes=2)
    problem = MLPClassificationProblem(dataset, dims)
    for x in (np.zeros(problem.d - 1), np.zeros(problem.d + 1)):
        for call in (
            lambda: problem.component_gradient(1, x),
            lambda: problem.component_gradients([1, 2], x),
            lambda: problem.component_value(1, x),
            lambda: problem.value(x),
        ):
            with pytest.raises(ValueError, match="shape"):
                call()
