"""From-scratch classifiers: brute-force KNN, Gini CART, and a small MLP.

All three train on a float matrix (n samples x n features) with integer
labels coded 0=normal, 1=abnormal, and share deterministic contracts:
identical config, seed, and data produce bit-identical models. KNN and
the MLP standardize features with statistics fit on the training data;
CART is scale-free and trains on raw values.

Tie rules, fixed so behavior is reproducible:
* KNN distance ties break toward the lower training-row index; a class
  tie in the vote (even k) breaks toward abnormal.
* CART splits minimize weighted Gini impurity; equal splits break toward
  the lower feature index, then the lower threshold. A leaf's class tie
  breaks toward abnormal. Descent sends value < threshold to the left.
* MLP output probability >= 0.5 predicts abnormal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EmptyMatrix, InvalidConfig, SingleClassDataset, TooFewSamples
from .scada import Label

NORMAL, ABNORMAL = 0, 1

_KNN_CHUNK = 1024


@dataclass(frozen=True)
class StandardizationParams:
    """Per-feature mean and population standard deviation. Zero-std
    features pass through unscaled."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        scale = np.where(self.std == 0.0, 1.0, self.std)
        return (X - self.mean) / scale


def standardize_fit(matrix: np.ndarray) -> StandardizationParams:
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise EmptyMatrix()
    return StandardizationParams(mean=X.mean(axis=0), std=X.std(axis=0))


@dataclass(frozen=True)
class LearnerConfig:
    algorithm: str  # "knn", "cart", or "mlp"
    knn_k: int = 3
    cart_max_depth: int = 12
    cart_min_leaf: int = 5
    mlp_hidden: tuple[int, ...] = (16,)
    mlp_learning_rate: float = 0.01
    mlp_epochs: int = 200
    mlp_batch_size: int = 32
    mlp_init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ("knn", "cart", "mlp"):
            raise InvalidConfig(f"unknown algorithm {self.algorithm!r}")
        if self.knn_k < 1:
            raise InvalidConfig(f"knn_k must be >= 1, got {self.knn_k}")
        if self.cart_max_depth < 1:
            raise InvalidConfig(f"cart_max_depth must be >= 1, got {self.cart_max_depth}")
        if self.cart_min_leaf < 1:
            raise InvalidConfig(f"cart_min_leaf must be >= 1, got {self.cart_min_leaf}")
        if not self.mlp_hidden or any(h < 1 for h in self.mlp_hidden):
            raise InvalidConfig(f"mlp_hidden sizes must be positive, got {self.mlp_hidden}")
        if self.mlp_learning_rate <= 0:
            raise InvalidConfig("mlp_learning_rate must be positive")
        if self.mlp_epochs < 1:
            raise InvalidConfig(f"mlp_epochs must be >= 1, got {self.mlp_epochs}")
        if self.mlp_batch_size < 1:
            raise InvalidConfig("mlp_batch_size must be >= 1")
        if self.mlp_init_scale <= 0:
            raise InvalidConfig("mlp_init_scale must be positive")


# --- KNN ---------------------------------------------------------------------


@dataclass(frozen=True)
class KnnModel:
    k: int
    X: np.ndarray  # standardized training rows
    y: np.ndarray
    standardization: StandardizationParams
    # squared norm of every training row, derived from X and never serialized
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sq_norms", np.einsum("ij,ij->i", self.X, self.X))


def _train_knn(cfg: LearnerConfig, X: np.ndarray, y: np.ndarray) -> KnnModel:
    if X.shape[0] < cfg.knn_k:
        raise TooFewSamples(cfg.knn_k, X.shape[0])
    params = standardize_fit(X)
    return KnnModel(k=cfg.knn_k, X=params.apply(X), y=y.copy(), standardization=params)


def _knn_predict_std(model: KnnModel, Q: np.ndarray) -> np.ndarray:
    """Vote over already standardized queries."""
    Xt, yt, k, t_sq = model.X, model.y, model.k, model.sq_norms
    out = np.empty(Q.shape[0], dtype=np.int8)
    for lo in range(0, Q.shape[0], _KNN_CHUNK):
        q = Q[lo : lo + _KNN_CHUNK]
        d2 = (q * q).sum(axis=1)[:, None] + t_sq[None, :] - 2.0 * (q @ Xt.T)
        np.maximum(d2, 0.0, out=d2)
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        mask = d2 <= kth[:, None]
        counts = mask.sum(axis=1)
        votes = (mask & (yt == ABNORMAL)).sum(axis=1)
        block = np.where(2 * votes >= k, ABNORMAL, NORMAL).astype(np.int8)
        # distance ties straddling the k boundary: resolve by lower row index
        for row in np.flatnonzero(counts != k):
            nearest = np.argsort(d2[row], kind="stable")[:k]
            v = int(yt[nearest].sum())
            block[row] = ABNORMAL if 2 * v >= k else NORMAL
        out[lo : lo + _KNN_CHUNK] = block
    return out


# --- CART --------------------------------------------------------------------


@dataclass(frozen=True)
class CartNode:
    n: int
    impurity: float
    klass: int
    proportions: tuple[float, float]  # (p_normal, p_abnormal)
    feature: int | None = None
    threshold: float | None = None
    left: "CartNode | None" = None
    right: "CartNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class CartModel:
    root: CartNode
    max_depth: int
    min_leaf: int


def _gini(n_abnormal: float, n: float) -> float:
    p = n_abnormal / n
    return 1.0 - (p * p + (1.0 - p) * (1.0 - p))


def _best_split(X: np.ndarray, y: np.ndarray, idx: np.ndarray, min_leaf: int):
    n = idx.size
    total_abn = int(y[idx].sum())
    best = None  # (weighted impurity, feature, threshold)
    for f in range(X.shape[1]):
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        sy = y[idx][order]
        prefix_abn = np.cumsum(sy)
        pos = np.arange(min_leaf - 1, n - min_leaf)  # left part is sv[:pos+1]
        if pos.size == 0:
            continue
        distinct = sv[pos] < sv[pos + 1]
        pos = pos[distinct]
        if pos.size == 0:
            continue
        n_l = (pos + 1).astype(float)
        n_r = n - n_l
        a_l = prefix_abn[pos].astype(float)
        a_r = total_abn - a_l
        p_l = a_l / n_l
        p_r = a_r / n_r
        g_l = 1.0 - (p_l * p_l + (1.0 - p_l) * (1.0 - p_l))
        g_r = 1.0 - (p_r * p_r + (1.0 - p_r) * (1.0 - p_r))
        weighted = (n_l * g_l + n_r * g_r) / n
        j = int(np.argmin(weighted))  # first minimum: lowest threshold wins ties
        if best is None or weighted[j] < best[0]:
            best = (float(weighted[j]), f, float((sv[pos[j]] + sv[pos[j] + 1]) / 2.0))
    return best


def _grow(X: np.ndarray, y: np.ndarray, idx: np.ndarray, depth: int, cfg: LearnerConfig) -> CartNode:
    n = idx.size
    abn = int(y[idx].sum())
    impurity = _gini(abn, n)
    klass = ABNORMAL if 2 * abn >= n else NORMAL
    proportions = ((n - abn) / n, abn / n)
    if depth >= cfg.cart_max_depth or impurity == 0.0 or n < 2 * cfg.cart_min_leaf:
        return CartNode(n=n, impurity=impurity, klass=klass, proportions=proportions)
    best = _best_split(X, y, idx, cfg.cart_min_leaf)
    if best is None or best[0] >= impurity:
        return CartNode(n=n, impurity=impurity, klass=klass, proportions=proportions)
    _, feature, threshold = best
    goes_left = X[idx, feature] < threshold
    left = _grow(X, y, idx[goes_left], depth + 1, cfg)
    right = _grow(X, y, idx[~goes_left], depth + 1, cfg)
    return CartNode(
        n=n,
        impurity=impurity,
        klass=klass,
        proportions=proportions,
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
    )


def _train_cart(cfg: LearnerConfig, X: np.ndarray, y: np.ndarray) -> CartModel:
    if X.shape[0] < 2 * cfg.cart_min_leaf:
        raise TooFewSamples(2 * cfg.cart_min_leaf, X.shape[0])
    root = _grow(X, y, np.arange(X.shape[0]), 0, cfg)
    return CartModel(root=root, max_depth=cfg.cart_max_depth, min_leaf=cfg.cart_min_leaf)


def _cart_predict_one(node: CartNode, x: np.ndarray) -> int:
    while not node.is_leaf:
        node = node.left if x[node.feature] < node.threshold else node.right
    return node.klass


# --- MLP ---------------------------------------------------------------------


@dataclass(frozen=True)
class MlpModel:
    weights: tuple[np.ndarray, ...]  # layer l: (fan_in, fan_out)
    biases: tuple[np.ndarray, ...]
    standardization: StandardizationParams


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _mlp_forward(model: MlpModel, X_std: np.ndarray) -> list[np.ndarray]:
    """Activations per layer, input included; last entry is the output
    probability column."""
    activations = [X_std]
    for W, b in zip(model.weights, model.biases):
        activations.append(_sigmoid(activations[-1] @ W + b))
    return activations


def mlp_probability(model: MlpModel, X: np.ndarray) -> np.ndarray:
    X_std = model.standardization.apply(np.asarray(X, dtype=float))
    return _mlp_forward(model, X_std)[-1][:, 0]


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
    """
    t = np.asarray(y, dtype=float)
    if t.size == 0:
        raise EmptyMatrix()
    X_std = model.standardization.apply(np.asarray(X, dtype=float))
    acts = _mlp_forward(model, X_std)
    m = X_std.shape[0]
    # logistic output + cross-entropy collapses to (p - y) / m
    delta = (acts[-1] - t[:, None]) / m
    grads_w: list[np.ndarray] = []
    grads_b: list[np.ndarray] = []
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w.append(acts[layer].T @ delta)
        grads_b.append(delta.sum(axis=0))
        if layer > 0:
            a = acts[layer]
            delta = (delta @ model.weights[layer].T) * a * (1.0 - a)
    grads_w.reverse()
    grads_b.reverse()
    return grads_w, grads_b


def _train_mlp(cfg: LearnerConfig, X: np.ndarray, y: np.ndarray) -> MlpModel:
    n = X.shape[0]
    if n < cfg.mlp_batch_size:
        raise TooFewSamples(cfg.mlp_batch_size, n)
    params = standardize_fit(X)
    sizes = [X.shape[1], *cfg.mlp_hidden, 1]
    rng = np.random.default_rng(cfg.seed)
    weights = tuple(
        rng.normal(0.0, cfg.mlp_init_scale, size=(fan_in, fan_out))
        for fan_in, fan_out in zip(sizes, sizes[1:])
    )
    biases = tuple(np.zeros(fan_out) for fan_out in sizes[1:])
    model = MlpModel(weights=weights, biases=biases, standardization=params)

    for _ in range(cfg.mlp_epochs):
        perm = rng.permutation(n)
        for lo in range(0, n, cfg.mlp_batch_size):
            batch = perm[lo : lo + cfg.mlp_batch_size]
            grads_w, grads_b = mlp_gradient(model, X[batch], y[batch])
            model = MlpModel(
                weights=tuple(
                    W - cfg.mlp_learning_rate * g for W, g in zip(model.weights, grads_w)
                ),
                biases=tuple(
                    b - cfg.mlp_learning_rate * g for b, g in zip(model.biases, grads_b)
                ),
                standardization=params,
            )
    return model


# --- shared contract -----------------------------------------------------------

TrainedModel = KnnModel | CartModel | MlpModel


def train(cfg: LearnerConfig, features: np.ndarray, labels: Sequence[int]) -> TrainedModel:
    """Train per cfg.algorithm. Deterministic in (cfg, data)."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=np.int8)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyMatrix()
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} rows but {y.shape[0]} labels")
    present = set(np.unique(y).tolist())
    if not present <= {NORMAL, ABNORMAL}:
        raise ValueError(f"labels must be 0 or 1, got {sorted(present)}")
    if len(present) < 2:
        raise SingleClassDataset()
    if cfg.algorithm == "knn":
        return _train_knn(cfg, X, y)
    if cfg.algorithm == "cart":
        return _train_cart(cfg, X, y)
    return _train_mlp(cfg, X, y)


def predict_batch(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    """Predict many rows at once; returns an int8 array of 0/1 labels."""
    X = np.asarray(features, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if isinstance(model, KnnModel):
        return _knn_predict_std(model, model.standardization.apply(X))
    if isinstance(model, CartModel):
        return np.array([_cart_predict_one(model.root, row) for row in X], dtype=np.int8)
    p = mlp_probability(model, X)
    return np.where(p >= 0.5, ABNORMAL, NORMAL).astype(np.int8)


def predict(model: TrainedModel, fv: np.ndarray) -> Label:
    """Predict one feature vector."""
    code = int(predict_batch(model, np.asarray(fv, dtype=float))[0])
    return Label.ABNORMAL if code == ABNORMAL else Label.NORMAL


# --- serialization -------------------------------------------------------------

MODEL_FORMAT = 1


def _params_to_dict(p: StandardizationParams) -> dict:
    return {"mean": p.mean.tolist(), "std": p.std.tolist()}


def _params_from_dict(doc: dict) -> StandardizationParams:
    return StandardizationParams(
        mean=np.array(doc["mean"], dtype=float), std=np.array(doc["std"], dtype=float)
    )


def _node_to_dict(node: CartNode) -> dict:
    doc = {
        "n": node.n,
        "impurity": node.impurity,
        "class": node.klass,
        "proportions": list(node.proportions),
    }
    if not node.is_leaf:
        doc.update(
            feature=node.feature,
            threshold=node.threshold,
            left=_node_to_dict(node.left),
            right=_node_to_dict(node.right),
        )
    return doc


def _node_from_dict(doc: dict) -> CartNode:
    common = dict(
        n=int(doc["n"]),
        impurity=float(doc["impurity"]),
        klass=int(doc["class"]),
        proportions=(float(doc["proportions"][0]), float(doc["proportions"][1])),
    )
    if "feature" not in doc:
        return CartNode(**common)
    return CartNode(
        **common,
        feature=int(doc["feature"]),
        threshold=float(doc["threshold"]),
        left=_node_from_dict(doc["left"]),
        right=_node_from_dict(doc["right"]),
    )


def model_to_dict(model: TrainedModel) -> dict:
    if isinstance(model, KnnModel):
        return {
            "format": MODEL_FORMAT,
            "kind": "knn",
            "k": model.k,
            "X": model.X.tolist(),
            "y": model.y.tolist(),
            "standardization": _params_to_dict(model.standardization),
        }
    if isinstance(model, CartModel):
        return {
            "format": MODEL_FORMAT,
            "kind": "cart",
            "max_depth": model.max_depth,
            "min_leaf": model.min_leaf,
            "root": _node_to_dict(model.root),
        }
    return {
        "format": MODEL_FORMAT,
        "kind": "mlp",
        "activation": "sigmoid",
        "weights": [W.tolist() for W in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "standardization": _params_to_dict(model.standardization),
    }


def model_from_dict(doc: dict) -> TrainedModel:
    if doc.get("format") != MODEL_FORMAT:
        raise InvalidConfig(f"unsupported model format {doc.get('format')!r}")
    kind = doc.get("kind")
    if kind == "knn":
        return KnnModel(
            k=int(doc["k"]),
            X=np.array(doc["X"], dtype=float),
            y=np.array(doc["y"], dtype=np.int8),
            standardization=_params_from_dict(doc["standardization"]),
        )
    if kind == "cart":
        return CartModel(
            root=_node_from_dict(doc["root"]),
            max_depth=int(doc["max_depth"]),
            min_leaf=int(doc["min_leaf"]),
        )
    if kind == "mlp":
        return MlpModel(
            weights=tuple(np.array(W, dtype=float) for W in doc["weights"]),
            biases=tuple(np.array(b, dtype=float) for b in doc["biases"]),
            standardization=_params_from_dict(doc["standardization"]),
        )
    raise InvalidConfig(f"unknown model kind {kind!r}")
