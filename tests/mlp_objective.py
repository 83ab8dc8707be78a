"""The MLP's mean cross-entropy and its analytic gradient, for gradient
checks. The gradient runs the training code's own backward pass
(learners._mlp_backward), so finite differences of the loss check what
training uses."""

from typing import Sequence

import numpy as np

from icewatch.errors import DataError
from icewatch.learners import MlpModel, _mlp_backward, _mlp_forward, mlp_probability


def mlp_loss(model: MlpModel, X: np.ndarray, y: Sequence[int]) -> float:
    """Mean cross-entropy of the batch."""
    p = mlp_probability(model, X)
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    t = np.asarray(y, dtype=float)
    return float(-np.mean(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)))


def mlp_gradient(
    model: MlpModel, X: np.ndarray, y: Sequence[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Analytic gradient of the mean cross-entropy for every weight and bias.

    X is raw (unstandardized); the model's own standardization is applied,
    matching mlp_loss, so finite differences of mlp_loss check this exactly.
    Training runs the same backward pass.
    """
    t = np.asarray(y, dtype=float)
    if t.size == 0:
        raise DataError("matrix has no rows")
    X_std = model.standardization.apply(np.asarray(X, dtype=float))
    grads_w = [np.empty_like(W) for W in model.weights]
    grads_b = [np.empty_like(b) for b in model.biases]
    _mlp_backward(model.weights, _mlp_forward(model.weights, model.biases, X_std), t, grads_w, grads_b)
    return grads_w, grads_b
