"""Concrete finite-sum objectives.

Regularized empirical risk (logistic or squared loss plus a bounded
non-convex regularizer), random quadratic families for verification,
and a small fully connected ELU network with manual backpropagation.

Each family implements in numpy the unchecked oracles behind its public
entries: ``_gradients`` of a 0-based array of rows, a batch, behind
``component_gradients``, and ``_gradient(row, x)`` of one integer 0-based
row at one point, behind ``component_gradient``; the network also has
``_gradient_difference(row, x, anchor)``, the one-sample correction
behind ``component_gradient_difference``. The public entries check the
index and the point, then make that call; the step loops call the
unchecked ones with the rows they drew. A batch's rows are bitwise equal
to the one-sample gradients, at one shared point or at
one point per row: per-sample products run as a stacked ``np.matmul``,
which calls the same BLAS kernel per row as a single call (a plain 2-d
product would not), and every other step is elementwise. The network
is a flat parameter vector, laid out by :func:`_unpack_params`, with one
stacked forward pass and one backpropagation, at one shared parameter
vector or at one per row, whose per-row weights are views of the rows;
one sample's gradient is the 1-d pass, by ``np.dot``, the gemv that the
stacked ``np.matmul`` runs per row. Its loss is the one-row case, and
the difference of one sample's gradients at two points is one two-row pass.
Only the full loss ``value()`` runs its own forward pass, one matrix
product per layer over all samples.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import FiniteSumProblem, _row_norms
from .data import Dataset, map_binary_labels

# Curvature bound of the scalar loss z -> loss(z, b): 1/4 for logistic,
# 1 for squared error.
_LOSS_CURVATURE = {"logistic": 0.25, "squared": 1.0}

# Each coordinate term z^2/(1+z^2) has second derivative (2-6z^2)/(1+z^2)^3,
# maximized at z=0 with value 2.
_REGULARIZER_SMOOTHNESS = 2.0

# Most (point, component, coordinate) entries that one chunk of
# ``RegularizedERM.mean_gradients`` holds: 8 MB a temporary.
_MEAN_BLOCK = 1 << 20

# Most (point, component) margins that one chunk of
# ``RegularizedERM.metric_gradients`` holds, which bounds the chunk's
# margin and loss-slope temporaries.
_METRIC_BLOCK = 1 << 14

# The largest double whose ``np.exp`` is finite; the next one overflows.
_EXP_LIMIT = 709.782712893384


def _sigmoid_scalar(z: float) -> float:
    """:func:`sigmoid` of one number, bitwise. Past _EXP_LIMIT e^{-z}
    overflows and the value is 0.0, tested first because entering
    ``np.errstate`` on every call would cost more than the exp."""
    if -z > _EXP_LIMIT:
        return 0.0
    return 1.0 / (1.0 + np.exp(-z))


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + e^{-z}), elementwise, with numpy's exp:
    the logistic records depend on the exp kernel numpy picks for the CPU,
    as the network's do. Where e^{-z} overflows it is +inf, and the value
    0.0."""
    z = np.asarray(z, dtype=np.float64)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def nonconvex_regularizer(x: np.ndarray) -> float:
    """Bounded non-convex penalty sum_j x_j^2 / (1 + x_j^2), in [0, d)."""
    sq = np.square(x)
    return float(np.sum(sq / (1.0 + sq)))


def nonconvex_regularizer_grad(x: np.ndarray) -> np.ndarray:
    """Gradient of the penalty: component j is 2 x_j / (1 + x_j^2)^2."""
    return 2.0 * x / np.square(1.0 + np.square(x))


def _check_finite(what: str, values: np.ndarray) -> None:
    """Refuse ``values``, one entry or one row per sample, unless every
    entry is finite; the error names the first row that is not, from 1."""
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.argmin(finite.reshape(len(finite), -1).all(axis=1))) + 1
        raise ValueError(f"row {row}: {what} must be finite")


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
        if not 0 <= lam < math.inf:
            raise ValueError("regularizer weight must be non-negative and finite")
        if dataset.n < 1:
            raise ValueError("dataset is empty")
        self.loss_kind = loss_kind
        self.lam = float(lam)
        self._features = dataset.dense()
        _check_finite("feature values", self._features)
        if loss_kind == "logistic":
            self._labels = map_binary_labels(dataset.dense_labels())
        else:
            self._labels = dataset.dense_labels()
            _check_finite("label", self._labels)
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
            negated = -labels
            return negated * sigmoid(negated * margins)
        return margins - labels

    def component_value(self, i: int, x: np.ndarray) -> float:
        self._check_index(i)
        x = self._check_point(x)
        a = self._features[i - 1]
        b = self._labels[i - 1]
        margin = float(np.dot(a, x))
        return float(self._loss_value(np.float64(margin), b)) + self.lam * nonconvex_regularizer(x)

    def component_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        self._check_index(i)
        return self._gradient(i - 1, self._check_point(x))

    def _gradient(self, row: int, x: np.ndarray) -> np.ndarray:
        a = self._features[row]
        b = self._labels[row]
        margin = np.dot(a, x)
        if self.loss_kind == "logistic":
            coeff = -b * _sigmoid_scalar(-b * margin)
        else:
            coeff = margin - b
        grad = coeff * a
        if self.lam:
            grad = grad + self.lam * nonconvex_regularizer_grad(x)
        return grad

    def _gradients(self, rows, x: np.ndarray) -> np.ndarray:
        grads = self._features.take(rows, axis=0)  # a copy, as _features[rows], but faster
        margins = np.matmul(grads[:, None, :], x[..., None])[:, 0, 0]
        grads *= self._loss_slope(margins, self._labels[rows])[:, None]
        if self.lam:
            grads += self.lam * nonconvex_regularizer_grad(x)
        return grads

    def _in_chunks(self, chunk, points, out: np.ndarray, block: int, entries: int) -> np.ndarray:
        """``out`` filled with ``chunk`` of the rows of the checked ``points``,
        in chunks of at most ``block`` entries, ``entries`` a row, or one row."""
        rows = max(1, block // entries)
        for start in range(0, len(points), rows):
            out[start : start + rows] = chunk(points[start : start + rows])
        return out

    def mean_gradients(self, points) -> np.ndarray:
        """:meth:`mean_gradient` at every row of ``points``, bitwise: the
        margins of every (point, component) pair in one stacked
        ``np.matmul``, the loss slopes, the regularizer gradient once per
        point added by broadcast, then the mean over the components. Rows
        go in chunks of at most _MEAN_BLOCK (point, component, coordinate)
        entries, which bounds each chunk's (k, n, d) temporaries."""
        points = self._check_points(points)
        grads = np.empty_like(points)
        return self._in_chunks(self._mean_chunk, points, grads, _MEAN_BLOCK, self.n * self.d)

    def _mean_chunk(self, x: np.ndarray) -> np.ndarray:
        margins = np.matmul(self._features[:, None, :], x[:, None, :, None])[..., 0, 0]
        terms = self._features * self._loss_slope(margins, self._labels)[..., None]
        if self.lam:
            terms += (self.lam * nonconvex_regularizer_grad(x))[:, None, :]
        return terms.mean(axis=1)

    # Vectorized diagnostics. einsum keeps the reduction order fixed so
    # logged metrics are reproducible run to run.
    def value(self, x: np.ndarray) -> float:
        margins = np.einsum("ij,j->i", self._features, x)
        losses = self._loss_value(margins, self._labels)
        return float(losses.mean()) + self.lam * nonconvex_regularizer(x)

    def metric_gradients(self, points) -> np.ndarray:
        """Full gradients at the rows of ``points``: per chunk of at most
        _METRIC_BLOCK (point, component) margins, all margins in one
        einsum, then all loss slopes, then one einsum back to features.
        A row's bits do not depend on its chunk."""
        points = self._check_points(points)
        grads = np.empty_like(points)
        return self._in_chunks(self._metric_chunk, points, grads, _METRIC_BLOCK, self.n)

    def metric_gradient_norms(self, points) -> np.ndarray:
        """The norms of :meth:`metric_gradients`, taken chunk by chunk."""
        points = self._check_points(points)

        def chunk_norms(chunk):
            return _row_norms(self._metric_chunk(chunk))

        return self._in_chunks(chunk_norms, points, np.empty(len(points)), _METRIC_BLOCK, self.n)

    def _metric_chunk(self, points: np.ndarray) -> np.ndarray:
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
        x = self._check_point(x)
        a = self.matrices[i - 1]
        return float(0.5 * x @ a @ x + self.offsets[i - 1] @ x)

    def component_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        self._check_index(i)
        return self._gradient(i - 1, self._check_point(x))

    def _gradient(self, row: int, x: np.ndarray) -> np.ndarray:
        return self.matrices[row] @ x + self.offsets[row]

    def _gradients(self, rows, x: np.ndarray) -> np.ndarray:
        return np.matmul(self.matrices[rows], x[..., None])[:, :, 0] + self.offsets[rows]

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


def logsumexp(z: np.ndarray) -> np.ndarray:
    """Stable log sum exp over the last axis: the max is subtracted first."""
    m = np.maximum.reduce(z, axis=-1, keepdims=True)
    return (m + np.log(np.add.reduce(np.exp(z - m), axis=-1, keepdims=True)))[..., 0]


@functools.cache
def _layout(layer_dims: tuple):
    """Each layer's (weight start, weight end, bias end, (out, in)); the count."""
    spans, end = [], 0
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        start, end = end, end + d_in * d_out
        spans.append((start, end, end + d_out, (d_out, d_in)))
        end += d_out
    return tuple(spans), end


def mlp_param_count(layer_dims) -> int:
    return _layout(tuple(layer_dims))[1]


def _unpack_params(layer_dims, params: np.ndarray):
    """Views of the flat vector as per-layer (weight, bias) pairs; of a
    (k, d) block, as (k, out, in) weight and (k, out) bias stacks. Per
    layer, the vector holds the (out, in) weight matrix in row-major order,
    then the bias."""
    lead = params.shape[:-1]
    return [
        (params[..., start:end].reshape(lead + shape), params[..., end:bias_end])
        for start, end, bias_end, shape in _layout(tuple(layer_dims))[0]
    ]


def _stacked_forward(layer_dims, params: np.ndarray, inputs: np.ndarray):
    """Forward pass of a (k, d_in) stack of inputs at one parameter vector
    (d,) or at one per row (k, d), or of one (d_in,) input at one (d,).
    Returns, for :func:`_backprop`, the layers, every layer's activations
    and each hidden layer's ``min(z, 0)``, which the ELU and its
    derivative share.

    ``np.matmul(w, h[..., None])`` runs the gemv of ``w @ h`` once per
    row, whether ``w`` is one (out, in) matrix or a (k, out, in) stack of
    views of the rows of ``params``, so a row's logits depend neither on
    the other rows nor on whether the rows share their parameters. One
    input runs that gemv by the cheaper ``np.dot``, but for a 1 x 1 ``w``,
    which ``np.dot`` takes for a scalar, keeping a zero's sign.
    """
    layers = _unpack_params(layer_dims, params)
    h, activations, belows = inputs, [inputs], []
    for k, (w, b) in enumerate(layers):
        if h.ndim == 1 and w.size > 1:
            h = np.dot(w, h) + b
        else:
            h = np.matmul(w, h[..., None])[..., 0] + b
        if k < len(layers) - 1:  # elu(h), as :func:`elu` computes it
            belows.append(np.minimum(h, 0.0))
            h = np.where(h > 0, h, np.expm1(belows[-1]))
        activations.append(h)
    return layers, activations, belows


def _backprop(layer_dims, layers, activations, belows, one_hot: np.ndarray) -> np.ndarray:
    """Cross-entropy gradient of every row of a :func:`_stacked_forward`
    pass, one flat parameter vector per row, by manual backpropagation
    through the affine and ELU layers, with the products of the forward
    pass; of a 1-d pass, one (d,) vector. Each layer's gradient is written
    into its views of one array."""
    logits = activations[-1]
    shifted = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    # softmax - label is the gradient of the loss in the logits
    delta = shifted / np.add.reduce(shifted, axis=-1, keepdims=True) - one_hot
    grads = np.empty(delta.shape[:-1] + (mlp_param_count(layer_dims),))
    grad_layers = _unpack_params(layer_dims, grads)
    for k in range(len(layers) - 1, -1, -1):
        grad_w, grad_b = grad_layers[k]
        grad_b[...] = delta
        np.multiply(delta[..., :, None], activations[k][..., None, :], out=grad_w)
        if k > 0:
            w_t = layers[k][0].swapaxes(-1, -2)
            if delta.ndim == 1 and w_t.size > 1:
                delta = np.dot(w_t, delta)
            else:
                delta = np.matmul(w_t, delta[..., None])[..., 0]
            delta *= np.exp(belows[k - 1])  # ELU derivative: exp(+0.0) = 1 where z > 0
    # -0.0 products become +0.0, as when accumulating into a zero vector;
    # the recorded runs were made with that arithmetic.
    grads += 0.0
    return grads


def kaiming_uniform_scaled_init(
    layer_dims, c_init: float, rng: np.random.Generator
) -> np.ndarray:
    """Flat parameter vector of a network of ``layer_dims``: uniform weights
    with per-layer variance c_init / d_in, zero biases.

    Weights are drawn from [-sqrt(3 c_init / d_in), +sqrt(3 c_init / d_in)],
    a scaled-down variant of the usual fan-in uniform scheme. The vector
    has the layout of :func:`_unpack_params`, the point that optimizers move.
    """
    if not 0 < c_init < math.inf:
        raise ValueError("c_init must be positive and finite")
    layer_dims = tuple(int(v) for v in layer_dims)
    if len(layer_dims) < 2:
        raise ValueError("layer_dims must list at least input and output sizes")
    params = np.zeros(mlp_param_count(layer_dims))
    for w, _b in _unpack_params(layer_dims, params):
        d_out, d_in = w.shape
        bound = np.sqrt(3.0 * c_init / d_in)
        w[...] = rng.uniform(-bound, bound, size=(d_out, d_in))
    return params


class MLPClassificationProblem(FiniteSumProblem):
    """Cross-entropy over a labeled dataset, one component per sample."""

    # mean_gradients is inherited: one pass over all (point, sample) pairs measured slower

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
        _check_finite("feature values", self._features)
        labels = dataset.dense_labels()
        n_classes = layer_dims[-1]
        # a NaN fails every comparison, so it is refused with the rest
        if not np.all((labels >= 0) & (labels < n_classes) & (labels == np.floor(labels))):
            raise ValueError(
                f"labels must be integers in 0..{n_classes - 1} for "
                f"{n_classes} output units"
            )
        self._one_hot = np.zeros((dataset.n, n_classes))
        self._one_hot[np.arange(dataset.n), labels.astype(np.int64)] = 1.0
        super().__init__(n=dataset.n, d=mlp_param_count(layer_dims))

    def _gradients(self, rows, params: np.ndarray) -> np.ndarray:
        """Forward and backpropagation of the 0-based samples ``rows``, an
        array or a slice, in one pass at one point or at one per row; of one
        sample, an integer ``rows``, as the 1-d pass at one point."""
        stacked = _stacked_forward(self.layer_dims, params, self._features[rows])
        return _backprop(self.layer_dims, *stacked, self._one_hot[rows])

    def component_value(self, i: int, x: np.ndarray) -> float:
        """Cross-entropy of sample i: the one-row :meth:`component_values`."""
        return float(self.component_values(i, self._check_point(x)[None])[0])

    def component_values(self, i: int, points) -> np.ndarray:
        """One forward pass with one parameter vector per row, then the
        cross-entropy of every row at once: bitwise the rows taken one at a
        time, under the exp and log kernels numpy picks for the CPU."""
        self._check_index(i)
        points = self._check_points(points)
        inputs = np.broadcast_to(self._features[i - 1], (len(points), self.layer_dims[0]))
        logits = _stacked_forward(self.layer_dims, points, inputs)[1][-1]
        return logsumexp(logits) - logits @ self._one_hot[i - 1]

    def component_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        """The 1-d pass of sample i: bitwise its row of :meth:`component_gradients`."""
        self._check_index(i)
        return self._gradients(i - 1, self._check_point(x))

    def _gradient(self, row: int, x: np.ndarray) -> np.ndarray:
        """The 1-d pass of the 0-based sample ``row``, unchecked."""
        return self._gradients(row, x)

    def _gradient_difference(self, row: int, x: np.ndarray, anchor: np.ndarray) -> np.ndarray:
        """One two-row pass, at x and at the anchor."""
        both = self._gradients([row, row], np.stack((x, anchor)))
        return both[0] - both[1]

    def value(self, x: np.ndarray) -> float:
        """Mean cross-entropy over all samples (diagnostics). Its forward
        pass is one ``h @ w.T + b`` product per layer, the arithmetic the
        recorded losses were made with; the stacked pass differs from it in
        the last bits on some points."""
        layers = _unpack_params(self.layer_dims, self._check_point(x))
        h = self._features
        for k, (w, b) in enumerate(layers):
            h = h @ w.T + b
            if k < len(layers) - 1:
                h = elu(h)
        losses = logsumexp(h) - np.einsum("ij,ij->i", self._one_hot, h)
        return float(losses.mean())
