"""Concrete finite-sum objectives.

Regularized empirical risk (logistic or squared loss plus a bounded
non-convex regularizer), random quadratic families for verification,
and a small fully connected ELU network with manual backpropagation.

Each family implements the batched oracle ``component_gradients`` in
numpy. For the empirical-risk and quadratic families its rows are
bitwise equal to the single-component ``component_gradient``, at one
shared point or at one point per row: per-sample products run as a
stacked ``np.matmul``, which calls the same BLAS kernel per row as the
1-d ``np.dot`` of the single path (a plain 2-d product would not), and
every other step is elementwise. The network has one stacked forward
pass and one backpropagation at a shared point; its single-sample
gradient, loss and logits are their one-row cases. At one point per row
it stacks single-sample calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FiniteSumProblem
from .data import Dataset, map_binary_labels

# Curvature bound of the scalar loss z -> loss(z, b): 1/4 for logistic,
# 1 for squared error.
_LOSS_CURVATURE = {"logistic": 0.25, "squared": 1.0}

# Each coordinate term z^2/(1+z^2) has second derivative (2-6z^2)/(1+z^2)^3,
# maximized at z=0 with value 2.
_REGULARIZER_SMOOTHNESS = 2.0


def _sigmoid_scalar(z: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:  # e^{-z} beyond the float range
        return 0.0


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + e^{-z}), elementwise.

    The exponentials come from the C library's exp (``math.exp``), one
    element at a time: numpy's vectorized exp rounds differently on some
    inputs, which would change the logged records.
    """
    z = np.asarray(z, dtype=np.float64)
    try:
        e = np.fromiter(map(math.exp, (-z).ravel().tolist()), np.float64, z.size)
    except OverflowError:
        values = [_sigmoid_scalar(v) for v in z.ravel().tolist()]
        return np.array(values).reshape(z.shape)
    return (1.0 / (1.0 + e)).reshape(z.shape)


def nonconvex_regularizer(x: np.ndarray) -> float:
    """Bounded non-convex penalty sum_j x_j^2 / (1 + x_j^2), in [0, d)."""
    sq = np.square(x)
    return float(np.sum(sq / (1.0 + sq)))


def nonconvex_regularizer_grad(x: np.ndarray) -> np.ndarray:
    """Gradient of the penalty: component j is 2 x_j / (1 + x_j^2)^2."""
    return 2.0 * x / np.square(1.0 + np.square(x))


class RegularizedERM(FiniteSumProblem):
    """Mean of per-sample losses plus a non-convex regularizer.

    Component i is loss(x, (a_i, b_i)) + lam * g(x) with g the bounded
    non-convex penalty, so the mean over components equals the full
    regularized objective. Logistic loss requires labels in {-1, +1}
    (raw 0/1 labels are mapped on construction).
    """

    def __init__(self, dataset: Dataset, loss_kind: str = "logistic", lam: float = 0.1):
        if loss_kind not in _LOSS_CURVATURE:
            raise ValueError(f"unknown loss kind {loss_kind!r}")
        if lam < 0:
            raise ValueError("regularizer weight must be non-negative")
        if dataset.n < 1:
            raise ValueError("dataset is empty")
        self.loss_kind = loss_kind
        self.lam = float(lam)
        self.dataset = dataset
        self._features = dataset.dense()
        if loss_kind == "logistic":
            self._labels = map_binary_labels(dataset.dense_labels())
        else:
            self._labels = dataset.dense_labels()
        row_norms_sq = np.einsum("ij,ij->i", self._features, self._features)
        smoothness = float(
            _LOSS_CURVATURE[loss_kind] * row_norms_sq.max()
            + _REGULARIZER_SMOOTHNESS * self.lam
        )
        super().__init__(
            n=dataset.n, d=dataset.d, known_smoothness=max(smoothness, 1e-12)
        )

    def _loss_value(self, margin: np.ndarray, label: np.ndarray) -> np.ndarray:
        if self.loss_kind == "logistic":
            return np.logaddexp(0.0, -label * margin)
        return 0.5 * np.square(margin - label)

    def _loss_slope(self, margins: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Derivative of the loss in the margin, elementwise."""
        if self.loss_kind == "logistic":
            return -labels * sigmoid(-labels * margins)
        return margins - labels

    def component_value(self, i: int, x: np.ndarray) -> float:
        self._check_index(i)
        a = self._features[i - 1]
        b = self._labels[i - 1]
        margin = float(np.dot(a, x))
        return float(self._loss_value(np.float64(margin), b)) + self.lam * nonconvex_regularizer(x)

    def component_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        self._check_index(i)
        a = self._features[i - 1]
        b = self._labels[i - 1]
        margin = np.dot(a, x)
        if self.loss_kind == "logistic":
            coeff = -b * _sigmoid_scalar(-b * margin)
        else:
            coeff = margin - b
        grad = coeff * a
        if self.lam:
            grad = grad + self.lam * nonconvex_regularizer_grad(x)
        return grad

    def component_gradients(self, indices, x: np.ndarray) -> np.ndarray:
        indices = self._check_indices(indices)
        x = self._check_at(indices, x)
        idx = indices - 1
        grads = self._features[idx]
        margins = np.matmul(grads[:, None, :], x[..., None])[:, 0, 0]
        grads *= self._loss_slope(margins, self._labels[idx])[:, None]
        if self.lam:
            grads += self.lam * nonconvex_regularizer_grad(x)
        return grads

    # Vectorized diagnostics. einsum keeps the reduction order fixed so
    # logged metrics are reproducible run to run.
    def value(self, x: np.ndarray) -> float:
        margins = np.einsum("ij,j->i", self._features, x)
        losses = self._loss_value(margins, self._labels)
        return float(losses.mean()) + self.lam * nonconvex_regularizer(x)

    def metric_gradients(self, points) -> np.ndarray:
        """Full gradients at the rows of ``points``: all margins in one
        einsum, then all loss slopes, then one einsum back to features."""
        points = self._check_points(points)
        margins = np.einsum("ij,tj->ti", self._features, points)
        coeff = self._loss_slope(margins, self._labels)
        grads = np.einsum("ij,ti->tj", self._features, coeff) / self.n
        if self.lam:
            grads += self.lam * nonconvex_regularizer_grad(points)
        return grads


class QuadraticProblem(FiniteSumProblem):
    """Finite sum of quadratics f_i(x) = x' A_i x / 2 + b_i' x.

    The exact smoothness constant (max spectral norm of the A_i) is
    computed on construction, which makes these the instances of choice
    for inequality checks that need a tight L.
    """

    def __init__(self, matrices: np.ndarray, offsets: np.ndarray):
        matrices = np.asarray(matrices, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.float64)
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise ValueError("matrices must have shape (n, d, d)")
        if offsets.shape != matrices.shape[:2]:
            raise ValueError("offsets must have shape (n, d)")
        if not np.allclose(matrices, np.swapaxes(matrices, 1, 2)):
            raise ValueError("component matrices must be symmetric")
        self.matrices = matrices
        self.offsets = offsets
        n, d = offsets.shape
        smoothness = max(
            float(np.max(np.abs(np.linalg.eigvalsh(a)))) for a in matrices
        )
        super().__init__(n=n, d=d, known_smoothness=max(smoothness, 1e-12))

    @classmethod
    def random(
        cls, n: int, d: int, rng: np.random.Generator, *, definite: bool = False
    ) -> "QuadraticProblem":
        """Random instance; ``definite=True`` makes every component convex."""
        mats = np.empty((n, d, d))
        for i in range(n):
            m = rng.standard_normal((d, d))
            if definite:
                mats[i] = m @ m.T / d + 0.1 * np.eye(d)
            else:
                mats[i] = (m + m.T) / 2.0
        offsets = rng.standard_normal((n, d))
        return cls(mats, offsets)

    def component_value(self, i: int, x: np.ndarray) -> float:
        self._check_index(i)
        a = self.matrices[i - 1]
        return float(0.5 * x @ a @ x + self.offsets[i - 1] @ x)

    def component_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        self._check_index(i)
        return self.matrices[i - 1] @ x + self.offsets[i - 1]

    def component_gradients(self, indices, x: np.ndarray) -> np.ndarray:
        indices = self._check_indices(indices)
        x = self._check_at(indices, x)
        idx = indices - 1
        return np.matmul(self.matrices[idx], x[..., None])[:, :, 0] + self.offsets[idx]

    def value(self, x: np.ndarray) -> float:
        quad = 0.5 * np.einsum("j,ijk,k->i", x, self.matrices, x)
        lin = np.einsum("ij,j->i", self.offsets, x)
        return float(np.mean(quad + lin))

    def mean_gradients(self, points) -> np.ndarray:
        """:meth:`mean_gradient` at every row of ``points`` in one stacked
        ``np.matmul``: the per-component products and the mean over
        components are the ones :meth:`component_gradients` and
        :meth:`mean_gradient` make for a single point."""
        points = self._check_points(points)
        products = np.matmul(self.matrices[None], points[:, None, :, None])
        return (products[..., 0] + self.offsets).mean(axis=1)

    def metric_gradients(self, points) -> np.ndarray:
        points = self._check_points(points)
        return (
            np.einsum("ijk,tk->tj", self.matrices, points) + self.offsets.sum(axis=0)
        ) / self.n


def elu(z: np.ndarray) -> np.ndarray:
    """Exponential linear unit with unit saturation: z if z > 0 else e^z - 1."""
    return np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))


def elu_derivative(z: np.ndarray) -> np.ndarray:
    return np.where(z > 0, 1.0, np.exp(np.minimum(z, 0.0)))


def logsumexp(z: np.ndarray) -> float:
    """Stable log sum exp: the max is subtracted before exponentiating."""
    m = float(np.max(z))
    return m + float(np.log(np.sum(np.exp(z - m))))


def mlp_param_count(layer_dims) -> int:
    return sum(
        d_in * d_out + d_out for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:])
    )


@dataclass(frozen=True)
class MLPNet:
    """Fully connected ELU network: layer sizes plus one flat parameter vector.

    The flat layout is, per layer, the (out, in) weight matrix in row-major
    order followed by the bias. The parameter vector is what optimizers
    move; the net object itself never mutates.
    """

    layer_dims: tuple
    params: np.ndarray

    def __post_init__(self):
        if len(self.layer_dims) < 2:
            raise ValueError("network needs at least input and output dimensions")
        expected = mlp_param_count(self.layer_dims)
        if self.params.shape != (expected,):
            raise ValueError(
                f"parameter vector has shape {self.params.shape}, "
                f"expected ({expected},) for dims {tuple(self.layer_dims)}"
            )

    @property
    def d(self) -> int:
        return self.params.shape[0]


def _unpack_params(layer_dims, params: np.ndarray):
    """Views of the flat vector as per-layer (weight, bias) pairs."""
    layers = []
    offset = 0
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        w = params[offset : offset + d_in * d_out].reshape(d_out, d_in)
        offset += d_in * d_out
        b = params[offset : offset + d_out]
        offset += d_out
        layers.append((w, b))
    return layers


def _stacked_forward(layer_dims, params: np.ndarray, inputs: np.ndarray):
    """Forward pass of a (k, d_in) stack of inputs, keeping every row's
    activations and pre-activations for :func:`_backprop`.

    ``np.matmul(w, h[:, :, None])`` runs the gemv of ``w @ h`` once per
    row, so a row's logits do not depend on the other rows.
    """
    layers = _unpack_params(layer_dims, params)
    h = inputs
    activations = [h]
    pre_acts = []
    for k, (w, b) in enumerate(layers):
        z = np.matmul(w, h[:, :, None])[:, :, 0] + b
        pre_acts.append(z)
        h = elu(z) if k < len(layers) - 1 else z
        activations.append(h)
    return layers, activations, pre_acts


def _backprop(layers, activations, pre_acts, one_hot: np.ndarray) -> np.ndarray:
    """Cross-entropy gradient of every row of a :func:`_stacked_forward`
    pass, one flat parameter vector per row, by manual backpropagation
    through the affine and ELU layers."""
    logits = activations[-1]
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    # softmax - label is the gradient of the loss in the logits
    delta = shifted / shifted.sum(axis=1, keepdims=True) - one_hot
    blocks = []  # per layer, last first: bias gradient, then weight gradient
    for k in range(len(layers) - 1, -1, -1):
        w, _b = layers[k]
        blocks.append(delta)
        outer = delta[:, :, None] * activations[k][:, None, :]
        blocks.append(outer.reshape(len(delta), w.size))
        if k > 0:
            delta = np.matmul(w.T, delta[:, :, None])[:, :, 0] * elu_derivative(
                pre_acts[k - 1]
            )
    grads = np.concatenate(blocks[::-1], axis=1)
    # -0.0 products become +0.0, as when accumulating into a zero vector;
    # the recorded runs were made with that arithmetic.
    grads += 0.0
    return grads


def mlp_forward(net: MLPNet, inputs: np.ndarray) -> np.ndarray:
    """Logits of the network: one input vector, or a (k, d_in) batch."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim == 2 and inputs.shape[1] == net.layer_dims[0]:
        layers = _unpack_params(net.layer_dims, net.params)
        h = inputs
        for k, (w, b) in enumerate(layers):
            z = h @ w.T + b
            h = elu(z) if k < len(layers) - 1 else z
        return h
    if inputs.shape != (net.layer_dims[0],):
        raise ValueError(
            f"input has shape {inputs.shape}, expected ({net.layer_dims[0]},) "
            f"or (k, {net.layer_dims[0]})"
        )
    _, activations, _ = _stacked_forward(net.layer_dims, net.params, inputs[None])
    return activations[-1][0]


def mlp_loss_and_gradient(net: MLPNet, inputs: np.ndarray, one_hot_label: np.ndarray):
    """Cross-entropy value and its gradient with respect to all parameters.

    The loss is logsumexp(logits) - label' logits, computed stably, and
    the gradient is the one-row case of :func:`_backprop`.
    """
    one_hot_label = np.asarray(one_hot_label, dtype=np.float64)
    n_classes = net.layer_dims[-1]
    if one_hot_label.shape != (n_classes,) or not (
        np.all((one_hot_label == 0.0) | (one_hot_label == 1.0))
        and one_hot_label.sum() == 1.0
    ):
        raise ValueError(f"label must be one-hot of length {n_classes}")
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.shape != (net.layer_dims[0],):
        raise ValueError(
            f"input has shape {inputs.shape}, expected ({net.layer_dims[0]},)"
        )
    stacked = _stacked_forward(net.layer_dims, net.params, inputs[None])
    logits = stacked[1][-1][0]
    loss = logsumexp(logits) - float(one_hot_label @ logits)
    return loss, _backprop(*stacked, one_hot_label[None])[0]


def kaiming_uniform_scaled_init(
    layer_dims, c_init: float, rng: np.random.Generator
) -> MLPNet:
    """Uniform weight init with per-layer variance c_init / d_in, zero biases.

    Weights are drawn from [-sqrt(3 c_init / d_in), +sqrt(3 c_init / d_in)],
    a scaled-down variant of the usual fan-in uniform scheme.
    """
    if c_init <= 0:
        raise ValueError("c_init must be positive")
    layer_dims = tuple(int(v) for v in layer_dims)
    if len(layer_dims) < 2:
        raise ValueError("layer_dims must list at least input and output sizes")
    params = np.zeros(mlp_param_count(layer_dims))
    for w, _b in _unpack_params(layer_dims, params):
        d_out, d_in = w.shape
        bound = np.sqrt(3.0 * c_init / d_in)
        w[...] = rng.uniform(-bound, bound, size=(d_out, d_in))
    return MLPNet(layer_dims=layer_dims, params=params)


class MLPClassificationProblem(FiniteSumProblem):
    """Cross-entropy over a labeled dataset, one component per sample."""

    def __init__(self, dataset: Dataset, layer_dims):
        layer_dims = tuple(int(v) for v in layer_dims)
        if len(layer_dims) < 2:
            raise ValueError("layer_dims must list at least input and output sizes")
        if dataset.d != layer_dims[0]:
            raise ValueError(
                f"dataset dimension {dataset.d} does not match input size "
                f"{layer_dims[0]}"
            )
        self.layer_dims = layer_dims
        self._features = dataset.dense()
        classes = dataset.dense_labels().astype(np.int64)
        n_classes = layer_dims[-1]
        if classes.min() < 0 or classes.max() >= n_classes:
            raise ValueError(
                f"labels must be integers in 0..{n_classes - 1} for "
                f"{n_classes} output units"
            )
        self._one_hot = np.zeros((dataset.n, n_classes))
        self._one_hot[np.arange(dataset.n), classes] = 1.0
        super().__init__(n=dataset.n, d=mlp_param_count(layer_dims))

    def _params(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise ValueError(f"parameters have shape {x.shape}, expected ({self.d},)")
        return x

    def component_value(self, i: int, x: np.ndarray) -> float:
        """Cross-entropy of sample i: a one-row forward pass, no backprop."""
        self._check_index(i)
        _, activations, _ = _stacked_forward(
            self.layer_dims, self._params(x), self._features[i - 1 : i]
        )
        logits = activations[-1][0]
        return logsumexp(logits) - float(self._one_hot[i - 1] @ logits)

    def component_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        return self.component_gradients((i,), x)[0]

    def component_gradients(self, indices, x: np.ndarray) -> np.ndarray:
        """Forward and backpropagation of all requested samples at once;
        a block of points, one per sample, stacks single calls."""
        if np.ndim(x) == 2:
            return super().component_gradients(indices, x)
        idx = self._check_indices(indices) - 1
        stacked = _stacked_forward(
            self.layer_dims, self._params(x), self._features[idx]
        )
        return _backprop(*stacked, self._one_hot[idx])

    def value(self, x: np.ndarray) -> float:
        """Mean cross-entropy via one batched forward pass (diagnostics)."""
        logits = mlp_forward(MLPNet(self.layer_dims, self._params(x)), self._features)
        peak = logits.max(axis=1, keepdims=True)
        lse = peak[:, 0] + np.log(np.sum(np.exp(logits - peak), axis=1))
        losses = lse - np.einsum("ij,ij->i", self._one_hot, logits)
        return float(losses.mean())
