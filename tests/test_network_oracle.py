"""The network oracle is one stacked forward pass and one backpropagation:
its one-row and k-row logits, losses and gradients are bitwise equal to
the per-sample reference in ``mlp_reference``, at one parameter vector
and at one per row."""

import hashlib
import runpy
import sys
from pathlib import Path

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
    kaiming_uniform_scaled_init,
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
    for block in (np.zeros((3, problem.d)), np.zeros((2, problem.d + 1))):
        with pytest.raises(ValueError, match="shape"):
            problem.component_gradients([1, 2], block)


# The network of the gradcheck and of scripts/train_small_net.py.
NET_DIMS = (20, 16, 16, 4)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    c_init=st.sampled_from([1e-4, 0.01, 0.1, 1.0, 30.0]),
    picks=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=9),
    zero=st.sampled_from([None, 0.0, -0.0]),
)
def test_one_point_per_row_equals_single_calls(seed, c_init, picks, zero):
    """One pass at one parameter vector per row gives each row's single
    call, bitwise; so do the rows of component_values."""
    dataset = generate_synthetic("two-cluster-classification", 30, 20, seed, n_classes=4)
    problem = MLPClassificationProblem(dataset, NET_DIMS)
    rng = np.random.default_rng(seed + 1)
    points = np.stack([kaiming_uniform_scaled_init(NET_DIMS, c_init, rng).params for _ in picks])
    if zero is not None:  # a row of zero parameters of one sign
        points[0] = zero
    indices = [1 + p % problem.n for p in picks]
    rows = problem.component_gradients(indices, points)
    shared = problem.component_gradients(indices, points[0])
    for r, (i, x) in enumerate(zip(indices, points)):
        assert same_bits(rows[r], problem.component_gradient(i, x))
        assert same_bits(shared[r], problem.component_gradient(i, points[0]))
    i = indices[0]
    values = problem.component_values(i, points)
    assert same_bits(values, [problem.component_value(i, x) for x in points])
    _, activations, _ = _stacked_forward(NET_DIMS, points, problem._features[[i - 1] * len(picks)])
    for logits, x in zip(activations[-1], points):
        assert same_bits(logits, mlp_forward(MLPNet(NET_DIMS, x), problem._features[i - 1]))


SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "train_small_net.py"

# SHA-256 of the CSV of scripts/train_small_net.py at n=40 and 4 epochs,
# (repeats, seed) -> digest; taken when every block of network points, one
# per row, stacked single-sample calls. With 3 repeats the runs step as
# lockstep groups, with 1 each run steps alone.
TRAIN_GOLDEN = {
    (3, 0): "67462f5f6e60790de9429eb58099ed0917db1b9e4b46463eef1a766a7be9caa6",
    (1, 3): "a65cc458982a59bb30f216bd3bdb5670f0da1944f615abf7836e99dea63bc253",
}


@pytest.mark.parametrize("repeats, seed", sorted(TRAIN_GOLDEN))
def test_training_script_golden_digest(repeats, seed, tmp_path, monkeypatch, capsys):
    out = tmp_path / "network.csv"
    argv = ["--n", "40", "--epochs", "4", "--repeats", str(repeats), "--seed", str(seed)]
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *argv, "--out", str(out)])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TRAIN_GOLDEN[repeats, seed]
