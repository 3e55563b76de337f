"""Test-only reference for the network oracle: a per-sample forward pass
and backpropagation, one input vector at a time, with the arithmetic the
recorded network runs were made with.

The package computes every network logit, loss and gradient through one
stacked forward pass and one backpropagation over a (k, d_in) block of
inputs. Their one-row and k-row results are checked bit for bit against
this code, which keeps no stacked axis.
"""

import numpy as np

from adaspider.problems import _unpack_params, elu, elu_derivative


def reference_forward_cached(layer_dims, params: np.ndarray, inputs: np.ndarray):
    """Forward pass keeping pre-activations for backpropagation."""
    layers = _unpack_params(layer_dims, params)
    activations = [np.asarray(inputs, dtype=np.float64)]
    pre_acts = []
    h = activations[0]
    for k, (w, b) in enumerate(layers):
        z = w @ h + b
        pre_acts.append(z)
        h = elu(z) if k < len(layers) - 1 else z
        activations.append(h)
    return layers, activations, pre_acts


def reference_loss_and_gradient(layer_dims, params, inputs, one_hot_label):
    """Logits, cross-entropy and its parameter gradient for one sample."""
    layers, activations, pre_acts = reference_forward_cached(
        layer_dims, params, inputs
    )
    logits = activations[-1]
    m = float(np.max(logits))
    shifted = np.exp(logits - m)
    total = float(np.sum(shifted))
    loss = m + np.log(total) - float(one_hot_label @ logits)

    grad = np.zeros_like(params)
    grad_layers = _unpack_params(layer_dims, grad)
    # softmax - label is the gradient of the loss in the logits
    delta = shifted / total - one_hot_label
    for k in range(len(layers) - 1, -1, -1):
        w, _b = layers[k]
        gw, gb = grad_layers[k]
        gw += np.outer(delta, activations[k])
        gb += delta
        if k > 0:
            delta = (w.T @ delta) * elu_derivative(pre_acts[k - 1])
    return logits, float(loss), grad


def reference_rows(problem, indices, x):
    """Reference (logits, loss, gradient) of each indexed sample of an
    ``MLPClassificationProblem``."""
    return [
        reference_loss_and_gradient(
            problem.layer_dims, x, problem._features[i - 1], problem._one_hot[i - 1]
        )
        for i in indices
    ]
