"""Federated learning over edge devices (Section 5.5 / Figure 10 of the paper).

A FLoX-style application: an aggregator initializes a model, shares it with
edge devices which train on their private data, and averages the returned
models (FedAvg).  Only models cross the network.  The paper grows the model
(number of hidden blocks) to show that ProxyStore both reduces transfer time
and lifts the 5 MB FaaS payload ceiling that otherwise caps the model size.

The paper's CNN is replaced by a NumPy multi-layer perceptron for
Fashion-MNIST-shaped data; what matters for the experiment is that the
serialized model size grows linearly with the number of hidden blocks and
that training/aggregation are real computations over those weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field
from typing import Any
from typing import Sequence

import numpy as np

from repro.proxy import Proxy
from repro.serialize import serialize

__all__ = [
    'MLPModel',
    'create_model',
    'generate_client_data',
    'local_training_task',
    'federated_average',
    'model_nbytes',
]

INPUT_DIM = 28 * 28       # Fashion-MNIST images
N_CLASSES = 10
HIDDEN_WIDTH = 180


@dataclass
class MLPModel:
    """A multi-layer perceptron expressed as a list of (weight, bias) layers."""

    layers: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    @property
    def hidden_blocks(self) -> int:
        return max(0, len(self.layers) - 2)

    def num_parameters(self) -> int:
        return int(sum(w.size + b.size for w, b in self.layers))

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute class logits for a batch of flattened images."""
        h = np.asarray(x, dtype=np.float32)
        for i, (w, b) in enumerate(self.layers):
            h = h @ w + b
            if i < len(self.layers) - 1:
                h = np.maximum(h, 0.0)  # ReLU
        return h

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(x), axis=1)

    def copy(self) -> 'MLPModel':
        return MLPModel(layers=[(w.copy(), b.copy()) for w, b in self.layers])


def create_model(hidden_blocks: int, *, seed: int = 0, hidden_width: int = HIDDEN_WIDTH) -> MLPModel:
    """Create a model with ``hidden_blocks`` hidden layers (Figure 10's x-axis)."""
    if hidden_blocks < 0:
        raise ValueError('hidden_blocks must be non-negative')
    rng = np.random.default_rng(seed)
    dims = [INPUT_DIM] + [hidden_width] * (hidden_blocks + 1) + [N_CLASSES]
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        scale = np.sqrt(2.0 / d_in)
        layers.append((
            (rng.normal(0, scale, size=(d_in, d_out))).astype(np.float32),
            np.zeros(d_out, dtype=np.float32),
        ))
    return MLPModel(layers=layers)


def model_nbytes(model: MLPModel) -> int:
    """Serialized size of the model (what actually crosses the network)."""
    return len(serialize(model))


def generate_client_data(
    n_samples: int = 256,
    *,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic Fashion-MNIST-like data private to one edge device."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, N_CLASSES, size=n_samples)
    # Class-dependent mean images so that training signal exists.
    images = rng.normal(0.0, 0.5, size=(n_samples, INPUT_DIM)).astype(np.float32)
    images += (labels[:, None] / N_CLASSES).astype(np.float32)
    return images, labels


def _softmax_cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    logits = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    grad = probs
    grad[np.arange(len(labels)), labels] -= 1.0
    return grad / len(labels)


def train_local(
    model: MLPModel,
    images: np.ndarray,
    labels: np.ndarray,
    *,
    epochs: int = 1,
    lr: float = 0.05,
) -> MLPModel:
    """One device's local training: plain SGD on the cross-entropy loss."""
    trained = model.copy()
    for _ in range(epochs):
        # Forward pass, keeping activations for the backward pass.
        activations = [np.asarray(images, dtype=np.float32)]
        h = activations[0]
        for i, (w, b) in enumerate(trained.layers):
            h = h @ w + b
            if i < len(trained.layers) - 1:
                h = np.maximum(h, 0.0)
            activations.append(h)
        grad = _softmax_cross_entropy_grad(activations[-1], labels)
        # Backward pass.
        for i in reversed(range(len(trained.layers))):
            w, b = trained.layers[i]
            a_prev = activations[i]
            grad_w = a_prev.T @ grad
            grad_b = grad.sum(axis=0)
            if i > 0:
                grad = grad @ w.T
                grad = grad * (activations[i] > 0)
            trained.layers[i] = (w - lr * grad_w, b - lr * grad_b)
    return trained


def federated_average(models: Sequence[MLPModel]) -> MLPModel:
    """FedAvg: average corresponding weights of the locally-trained models."""
    if not models:
        raise ValueError('cannot average zero models')
    n_layers = len(models[0].layers)
    if any(len(m.layers) != n_layers for m in models):
        raise ValueError('all models must have the same architecture')
    averaged = []
    for i in range(n_layers):
        w = np.mean([m.layers[i][0] for m in models], axis=0)
        b = np.mean([m.layers[i][1] for m in models], axis=0)
        averaged.append((w, b))
    return MLPModel(layers=averaged)


def local_training_task(model: Any, *, seed: int = 0, epochs: int = 1, ctx=None) -> MLPModel:
    """The FaaS task run on an edge device: train the (possibly proxied) model.

    The device's private data never leaves it — only the updated model is
    returned (or proxied back, when the application passes models by proxy).
    """
    if ctx is not None and isinstance(model, Proxy):
        ctx.resolve_proxy(model)
    images, labels = generate_client_data(seed=seed)
    if ctx is not None:
        # Edge-device training time grows with the model size.
        n_layers = len(model.layers) if hasattr(model, 'layers') else 1
        ctx.sleep(0.2 + 0.01 * n_layers)
    return train_local(MLPModel(layers=[(w.copy(), b.copy()) for w, b in model.layers]),
                       images, labels, epochs=epochs)
