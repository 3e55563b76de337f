"""The network oracle is one forward pass and one backpropagation, stacked
or on one 1-d sample: its 1-d, one-row and k-row logits, losses and
gradients are bitwise equal to the per-sample reference in
``mlp_reference``, at one parameter vector and at one per row. The full
loss ``value()`` is bitwise equal to the reference's matrix-product
forward pass."""

import hashlib
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mlp_reference import (
    elu_derivative,
    reference_cross_entropy,
    reference_rows,
    reference_value,
)

from adaspider.data import generate_synthetic
from adaspider.problems import (
    MLPClassificationProblem,
    _backprop,
    _stacked_forward,
    _unpack_params,
    kaiming_uniform_scaled_init,
    logsumexp,
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
# widths past the strategy's reach the gemv kernels' unrolled blocks, which
# the 1-d np.dot and the stacked np.matmul must share
@example(dims=[20, 16, 16, 4], n=5, seed=2, scale=1.0, picks=[4, 1, 4, 0])
@example(dims=[40, 33, 5], n=4, seed=3, scale=0.01, picks=[3, 2])
@example(dims=[40, 33, 5], n=2, seed=4, scale=-0.0, picks=[1, 0])
# a 1 x 1 layer at -0.0, which np.dot would take for a scalar
@example(dims=[1, 1], n=1, seed=0, scale=-0.0, picks=[0])
def test_one_row_and_k_row_calls_match_reference(dims, n, seed, scale, picks):
    dims = tuple(dims)
    dataset = generate_synthetic(
        "two-cluster-classification", n, dims[0], seed, n_classes=dims[-1]
    )
    problem = MLPClassificationProblem(dataset, dims)
    rng = np.random.default_rng(seed + 1)
    x = scale * rng.standard_normal(mlp_param_count(dims))
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
        one_row = _stacked_forward(dims, x, problem._features[i - 1][None])[1][-1][0]
        assert same_bits(one_row, logits)
        unstacked = _stacked_forward(dims, x, problem._features[i - 1])
        assert same_bits(unstacked[1][-1], logits)
        assert same_bits(_backprop(dims, *unstacked, problem._one_hot[i - 1]), grad)
    assert same_bits(problem.value(x), reference_value(problem, x))


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
    points = np.stack([kaiming_uniform_scaled_init(NET_DIMS, c_init, rng) for _ in picks])
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
        assert same_bits(logits, _stacked_forward(NET_DIMS, x, problem._features[[i - 1]])[1][-1][0])


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    c_init=st.sampled_from([1e-4, 0.01, 0.1, 1.0, 30.0]),
    n=st.integers(min_value=1, max_value=60),
)
def test_value_equals_the_matrix_product_reference(seed, c_init, n):
    """value() is bitwise the reference's forward pass of one matrix
    product per layer over all samples, whose arithmetic the logged losses
    of network runs were made with; the stacked pass differs in the last
    bits on some points."""
    dataset = generate_synthetic("two-cluster-classification", n, 20, seed, n_classes=4)
    problem = MLPClassificationProblem(dataset, NET_DIMS)
    x = kaiming_uniform_scaled_init(NET_DIMS, c_init, np.random.default_rng(seed + 1))
    assert same_bits(problem.value(x), reference_value(problem, x))


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


# Per layer (out, in) and where its weight matrix starts in the flat vector,
# written out by hand; the bias follows its weights.
LAYOUTS = {
    (3, 2): [((2, 3), 0)],
    (20, 16, 16, 4): [((16, 20), 0), ((16, 16), 336), ((4, 16), 608)],
    (5, 1, 3): [((1, 5), 0), ((3, 1), 6)],  # a width-1 hidden layer
}
TOTALS = {(3, 2): 8, (20, 16, 16, 4): 676, (5, 1, 3): 12}


@pytest.mark.parametrize("dims", sorted(LAYOUTS))
def test_layout_views_tile_the_vector_once_in_order(dims):
    total = TOTALS[dims]
    assert mlp_param_count(dims) == total
    flat = np.arange(total, dtype=np.float64)
    block = np.stack([flat, -flat, 2.0 * flat])
    layers, stacked = _unpack_params(dims, flat), _unpack_params(dims, block)
    assert len(layers) == len(stacked) == len(LAYOUTS[dims])
    pieces = []
    for (w, b), (ws, bs), ((out, inp), start) in zip(layers, stacked, LAYOUTS[dims]):
        weights = np.arange(start, start + out * inp, dtype=np.float64).reshape(out, inp)
        bias = np.arange(start + out * inp, start + out * inp + out, dtype=np.float64)
        assert same_bits(w, weights) and same_bits(b, bias)
        assert same_bits(ws, np.stack([weights, -weights, 2.0 * weights]))
        assert same_bits(bs, np.stack([bias, -bias, 2.0 * bias]))
        # views, not copies: writes reach the flat vector
        assert np.shares_memory(w, flat) and np.shares_memory(b, flat)
        assert np.shares_memory(ws, block) and np.shares_memory(bs, block)
        pieces += [w.ravel(), b]
    assert same_bits(np.concatenate(pieces), flat)  # each entry once, in order


def test_elu_derivative_is_the_exponential_of_min_z_0():
    """exp(min(z, 0)), as the backpropagation takes it, is bitwise the
    two-branch derivative where(z > 0, 1, exp(min(z, 0)))."""
    tiny = np.finfo(np.float64).smallest_subnormal
    normal = np.finfo(np.float64).tiny
    edges = [
        0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, normal, -normal,
        np.nextafter(normal, 0.0), -np.nextafter(normal, 0.0), 1e-300, -1e-300,
        1.0, -1.0, 709.0, -709.0, -745.0, -746.0, 1e308, -1e308,
        np.inf, -np.inf, np.nan, -np.nan,
    ]
    rng = np.random.default_rng(0)
    z = np.concatenate(
        [edges] + [scale * rng.standard_normal(2000) for scale in (1e-300, 1e-3, 1.0, 30.0, 1e3)]
    )
    assert same_bits(np.exp(np.minimum(z, 0.0)), elu_derivative(z))


@pytest.mark.parametrize("scale", [1e-3, 0.1, 1.0, 10.0, 100.0, 700.0])
@pytest.mark.parametrize("classes", [2, 4, 7])
def test_row_wise_value_tail_equals_the_per_row_tail(scale, classes):
    """component_values and logsumexp take all rows at once; on this
    machine's exp and log kernels that is bitwise the tail of one row at a
    time. A one-layer network with zero weights has its bias as logits, so
    the rows reach the tail unchanged."""
    dims = (3, classes)
    dataset = generate_synthetic("two-cluster-classification", 8, 3, 0, n_classes=classes)
    problem = MLPClassificationProblem(dataset, dims)
    logits = scale * np.random.default_rng(classes).standard_normal((500, classes))
    points = np.zeros((500, problem.d))
    points[:, 3 * classes :] = logits
    inputs = problem._features[[0] * len(points)]
    assert same_bits(_stacked_forward(dims, points, inputs)[1][-1], logits)
    no_label = np.zeros(classes)
    assert same_bits(logsumexp(logits), [reference_cross_entropy(z, no_label) for z in logits])
    for i in range(1, problem.n + 1):
        label = problem._one_hot[i - 1]
        expected = [reference_cross_entropy(z, label) for z in logits]
        assert same_bits(problem.component_values(i, points), expected)
