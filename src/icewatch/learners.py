"""From-scratch classifiers: brute-force KNN, Gini CART, and a small MLP.

All three train on a float matrix (n samples x n features) with integer
labels coded 0=normal, 1=abnormal, predict those same codes, and share
deterministic contracts: identical config, seed, and data produce
bit-identical models. KNN and the MLP standardize features with
statistics fit on the training data; CART is scale-free, trains on raw
values and keeps its tree as one node table.

Tie rules, fixed so behavior is reproducible:
* KNN votes over the first k training rows in (exact distance, row index)
  order, where the exact distance is sum (q_f - t_f)^2 over the
  standardized doubles without rounding, so an exact distance tie breaks
  toward the lower training-row index. The label therefore depends neither
  on the BLAS build nor on the other rows of a batch (_knn_predict_std).
  A row with a NaN or infinite standardized cell, or whose |q|^2 plus the
  training rows' largest |t|^2 reaches a quarter of the largest double
  (about 4.5e307, where a sum inside the distance product could overflow),
  has no finite rounding bound; it keeps the stable sort of its float64
  distances, NaN last: the exact tier would have to score every training
  row for it. A class tie in the vote
  (even k) breaks toward abnormal.
* CART splits minimize weighted Gini impurity; equal splits break toward
  the lower feature index, then the lower threshold. A leaf's class tie
  breaks toward abnormal. Descent sends value < threshold to the left.
* MLP output probability >= 0.5 predicts abnormal.

CART sorts each feature once per tree (the presorted attribute lists of
SLIQ, Mehta, Agrawal & Rissanen, EDBT 1996): a (features, rows) table of
row indices in value order, ties in any order, never read, because a
split position needs a strictly larger next value, so equal values never
fall on both sides. Each split filters the table into its children's
tables without reordering, and gives each child its abnormal count from
the split's prefix sums. A node scores every split position of every
feature in one array pass, and one argmin over the flattened scores
applies the tie rule above.

`train_many` trains one model per training set, as cross-validation
needs one per fold and one on all rows, and checks every set before it
trains any. MLPs train in lockstep on stacked arrays (_train_mlps), each
model bitwise the one `train` gives on its set alone; `train` of an MLP is
the one-set case. Each epoch walks a step schedule made once per call
(_mlp_schedule), in which models of equal size share their last partial
batch.

`predict_batch`, used by the experiments, and `predict`, used by
deployment, run one path for every learner, and every row gets, bit for
bit, the label of a call on that row alone. KNN labels are defined by
exact distances. The MLP multiplies each layer as one stacked np.matmul
whose items are the rows' one-row products (_mlp_forward on rows of
shape (1, features)): numpy hands BLAS each item on its own, so a row's
product does not depend on the rows that share the call, as the rows of
one matrix-matrix product may. CART compares values exactly.

Each model is its own declared document: model_to_dict writes its fields
under its format and kind, and model_from_dict decodes them with
schema.from_dict. A model checks its fields' domains and its cross-field
shapes when it is built, trained or decoded. A CART model's node table is
written as the nested _Node documents of its root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated, NamedTuple, Sequence

import numpy as np

from .errors import DataError, InvalidConfig
from .schema import ANY, EXTENDED, NOT_NEGATIVE, POSITIVE, array, at_least, check, from_dict, one_of, to_dict

NORMAL, ABNORMAL = 0, 1

_KNN_BLOCK = 128

Vector, Matrix, Labels = array(float, 1), array(float, 2), array(np.int8, 1)


@dataclass(frozen=True, eq=False)
class StandardizationParams:
    """Per-feature mean and population standard deviation. Zero-std
    features pass through unscaled. A feature whose training values are
    not all finite has a NaN std."""

    mean: Vector
    std: Vector = field(metadata=NOT_NEGATIVE)

    def __post_init__(self):
        check(self)
        if self.mean.shape != self.std.shape:
            raise InvalidConfig(f"{self.mean.size} means but {self.std.size} deviations")

    def apply(self, X: np.ndarray) -> np.ndarray:
        scale = np.where(self.std == 0.0, 1.0, self.std)
        return (X - self.mean) / scale


def _float_matrix(matrix) -> np.ndarray:
    """`matrix` as a float64 matrix of at least one row."""
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2 or X.shape[0] < 1:
        raise DataError("matrix has no rows")
    return X


def standardize_fit(matrix: np.ndarray) -> StandardizationParams:
    X = _float_matrix(matrix)
    return StandardizationParams(mean=X.mean(axis=0), std=X.std(axis=0))


@dataclass(frozen=True)
class LearnerConfig:
    algorithm: str = field(metadata=one_of("knn", "cart", "mlp"))
    knn_k: int = field(default=3, metadata=at_least(1))
    cart_max_depth: int = field(default=12, metadata=at_least(1))
    cart_min_leaf: int = field(default=5, metadata=at_least(1))
    mlp_hidden: tuple[int, ...] = field(default=(16,), metadata=at_least(1))
    mlp_learning_rate: float = field(default=0.01, metadata=POSITIVE)
    mlp_epochs: int = field(default=200, metadata=at_least(1))
    mlp_batch_size: int = field(default=32, metadata=at_least(1))
    mlp_init_scale: float = field(default=0.1, metadata=POSITIVE)
    seed: int = field(default=0, metadata=at_least(0))

    def __post_init__(self):
        check(self)
        if not self.mlp_hidden:
            raise InvalidConfig("mlp_hidden must name at least one layer")


# --- KNN ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KnnModel:
    """k, the standardized training rows X, their labels y and the
    standardization, as model_to_dict writes them; immutable, and checked
    when built. The rest is derived from X and never serialized: every
    row's squared norm, the largest of them, and the screens' training side
    [-2t, 1, |t|^2] in float64 and float32, which a query's [q, |q|^2, 1]
    multiplies into |q|^2 + |t|^2 - 2 q.t in one product."""

    k: int = field(metadata=at_least(1))
    X: Matrix
    y: Labels
    standardization: StandardizationParams

    def __post_init__(self):
        check(self)
        rows, features = self.X.shape
        if rows != self.y.size:
            raise InvalidConfig(f"{rows} training rows but {self.y.size} labels")
        if features != self.standardization.mean.size:
            raise InvalidConfig(f"{features} columns but {self.standardization.mean.size} standardized features")
        if self.k > rows:
            raise InvalidConfig(f"k must be an integer in 1..{rows}, got {self.k}")
        if ((self.y != NORMAL) & (self.y != ABNORMAL)).any():
            raise InvalidConfig("labels must be 0 or 1")
        sq_norms = np.einsum("ij,ij->i", self.X, self.X)
        with np.errstate(over="ignore"):
            screen64 = np.hstack([-2.0 * self.X, np.ones((rows, 1)), sq_norms[:, None]])
            screen32 = screen64.astype(np.float32)
        derived = {"sq_norms": sq_norms, "max_sq_norm": float(sq_norms.max()), "screen64": screen64, "screen32": screen32}
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def _train_knn(cfg: LearnerConfig, X: np.ndarray, y: np.ndarray) -> KnnModel:
    params = standardize_fit(X)
    return KnnModel(k=cfg.knn_k, X=params.apply(X), y=y.copy(), standardization=params)


def _rounding_bound(n_features: int, dtype) -> tuple[float, float]:
    """(c, a) such that a screen's distance in `dtype` lies within
    B = c * (|q|^2 + |t|^2) + a of the exact squared distance |q - t|^2.

    The screen rounds [q, |q|^2, 1] and [-2t, 1, |t|^2] to dtype (relative
    error u each, the float64 norms themselves within gamma_F of the exact
    ones) and sums their F + 2 products in any order, within
    gamma_{F+2} * sum|products| (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, section 3.1), where
    gamma_n = n u / (1 - n u). With 2 sum|q_f t_f| <= |q|^2 + |t|^2 = P
    the terms add up to (3u + u^2 + gamma_F + 2 gamma_{F+2} (1 + 3u +
    gamma_F)) * P. The 1% margin covers the second-order terms and the
    rounding of B itself, and a covers every product, conversion and norm
    that underflows (at most one subnormal spacing each). A dtype too coarse
    for F features gets an infinite bound and certifies nothing."""
    u = float(np.finfo(dtype).eps) / 2
    n = n_features + 2
    if n * u >= 0.01:
        return math.inf, math.inf
    gamma = n * u / (1.0 - n * u)
    gamma_sq = n_features * 2.0**-53 / (1.0 - n_features * 2.0**-53)
    c = 1.01 * (3 * u + u * u + gamma_sq + 2 * gamma * (1 + 3 * u + gamma_sq))
    return c, 8 * n * float(np.finfo(dtype).smallest_subnormal)


def _knn_predict_std(model: KnnModel, Q: np.ndarray) -> np.ndarray:
    """Labels of already standardized queries: the vote of each row's
    first k training rows in (exact distance, row index) order.

    A row's bound B = c * (|q|^2 + max|t|^2) + a covers the rounding of
    every one of its computed distances (_rounding_bound). The float32
    screen, then the float64 one, label every row whose computed k-th and
    (k+1)-th distances lie more than 2B apart, so that the k rows picked
    are the k exactly nearest whatever the rounding, or whose training rows
    within 2B of the k-th distance carry one label (_knn_screen). The exact
    tier scores the rest (_knn_exact_votes). A row without a float64 bound
    (_bounded), because it has a NaN or infinite cell or because
    |q|^2 + max|t|^2 is huge, instead takes the stable sort of its float64
    distances -2 q.t + (|q|^2 + |t|^2), clamped at zero, with q.t one
    stacked one-row product per query so that no label depends on the rest
    of the batch (_knn_sorted_votes).
    """
    votes = np.empty(Q.shape[0], dtype=np.intp)
    with np.errstate(over="ignore", invalid="ignore"):
        q_sq = (Q * Q).sum(axis=1)
        reach = q_sq + model.max_sq_norm
        Qa = np.hstack([Q, q_sq[:, None], np.ones((Q.shape[0], 1))])
        bounded = _bounded(reach, np.float64)
        rows = _knn_screen(model, Qa, reach, np.flatnonzero(bounded), model.screen32, votes)
        _knn_screen(model, Qa, reach, rows, model.screen64, votes, exact=Q)
        for block in _blocks(np.flatnonzero(~bounded)):
            d2 = np.matmul(Q[block, None], model.X.T)[:, 0]
            d2 *= -2.0
            d2 += q_sq[block, None] + model.sq_norms
            np.maximum(d2, 0.0, out=d2)
            votes[block] = _knn_sorted_votes(d2, model.y, model.k)
    return (2 * votes >= model.k).astype(np.int8)  # True is ABNORMAL


def _bounded(reach: np.ndarray, dtype) -> np.ndarray:
    """The rows whose distances have a rounding bound in dtype: those with
    |q|^2 + max|t|^2 below a quarter of the largest value, so that no
    product, norm or partial sum of the screen's product can overflow
    (each sum of magnitudes is at most twice |q|^2 + max|t|^2). NaN is
    not."""
    return 4.0 * reach < np.finfo(dtype).max


def _blocks(rows: np.ndarray) -> list[np.ndarray]:
    return [rows[lo : lo + _KNN_BLOCK] for lo in range(0, rows.size, _KNN_BLOCK)]


def _knn_screen(
    model: KnnModel,
    Qa: np.ndarray,
    reach: np.ndarray,
    rows: np.ndarray,
    screen: np.ndarray,
    votes: np.ndarray,
    exact: np.ndarray | None = None,
) -> np.ndarray:
    """Vote the given rows of Qa ([q, |q|^2, 1] per query) in the dtype of
    `screen` and write the votes of the rows it certifies; return the rest.

    Per block of _KNN_BLOCK rows: one product Qa @ screen.T into one
    scratch buffer, then k + 1 first-minimum passes (_first_minima). The
    distances are not clamped at zero: the bound B holds for them as they
    are. A row is certified when its (k+1)-th distance exceeds d(k) + 2B.
    Failing that, every training row below d(k) - 2B is exactly among the
    first k and every one above d(k) + 2B exactly outside them, so the row
    is still certified when all the rows in between, which fill the
    remaining places, carry one label: copies of a training row, as
    over-sampling makes, tie exactly and need no exact tier. With `exact`,
    the standardized queries, the exact tier votes the rows left, on their
    training rows up to d(k) + 2B. Comparisons run in float64 against
    d(k) +- 2B rounded to float64, which decide as the exact sums would,
    because no float lies between a sum and its rounding."""
    k, m = model.k, model.X.shape[0]
    abnormal = model.y == ABNORMAL
    c, a = _rounding_bound(Qa.shape[1] - 2, screen.dtype)
    margin = np.where(_bounded(reach, screen.dtype), 2.0 * (c * reach + a), np.inf)
    scratch = np.empty((min(_KNN_BLOCK, rows.size), m), dtype=screen.dtype)
    unsure = []
    for block in _blocks(rows):
        d2 = np.matmul(Qa[block].astype(screen.dtype, copy=False), screen.T, out=scratch[: block.size])
        nearest, picked = _first_minima(d2, min(k + 1, m))
        votes[block] = model.y[nearest[:k]].sum(axis=0)
        limit = picked[k - 1] + margin[block]
        sure = np.isfinite(limit)
        if k < m:
            sure &= picked[k] > limit
        left = np.flatnonzero(~sure)
        if left.size:
            _restore(d2, nearest, picked, left)
            d2 = d2[left]
            inside = d2 < (picked[k - 1, left] - margin[block[left]])[:, None]
            band = ~inside & (d2 <= limit[left, None])
            band_abnormal = np.count_nonzero(band & abnormal, axis=1)
            one_label = (band_abnormal == 0) | (band_abnormal == np.count_nonzero(band, axis=1))
            agree = np.isfinite(limit[left]) & one_label
            in_abnormal = np.count_nonzero(inside & abnormal, axis=1)
            votes[block[left]] = in_abnormal + (band_abnormal > 0) * (k - np.count_nonzero(inside, axis=1))
            left, d2, limit = left[~agree], d2[~agree], limit[left[~agree]]
            if exact is not None and left.size:
                candidates = [np.flatnonzero(row <= at) for row, at in zip(d2, limit)]
                votes[block[left]] = _knn_exact_votes(exact[block[left]], model.X, model.y, k, candidates)
        unsure.append(block[left])
    return np.concatenate(unsure) if unsure else rows


def _first_minima(d2: np.ndarray, passes: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's first `passes` cells in (value, index) order, as
    (passes, rows) column indices and values: each pass takes every row's
    first minimum and sets it to +inf in d2. A NaN is picked first, and a
    cell already set to +inf may be picked again once only +inf is left."""
    rows = np.arange(d2.shape[0])
    nearest = np.empty((passes, rows.size), dtype=np.intp)
    picked = np.empty((passes, rows.size), dtype=d2.dtype)
    for p in range(passes):
        d2.argmin(axis=1, out=nearest[p])
        picked[p] = d2[rows, nearest[p]]
        d2[rows, nearest[p]] = np.inf
    return nearest, picked


def _restore(d2: np.ndarray, nearest: np.ndarray, picked: np.ndarray, rows: np.ndarray) -> None:
    """Put back the cells _first_minima set aside in the given rows; a cell
    picked twice gets its first value back last."""
    for p in range(nearest.shape[0] - 1, -1, -1):
        d2[rows, nearest[p, rows]] = picked[p, rows]


def _knn_sorted_votes(d2: np.ndarray, yt: np.ndarray, k: int) -> np.ndarray:
    """The abnormal labels among each row's first k cells of a stable
    sort: (distance, row index) order with +inf after every finite
    distance and NaN last."""
    return yt[np.argsort(d2, axis=1, kind="stable")[:, :k]].sum(axis=1)


def _knn_exact_votes(Q: np.ndarray, Xt: np.ndarray, yt: np.ndarray, k: int, candidates: list) -> np.ndarray:
    """The abnormal labels among the first k of each query's candidate
    training rows (ascending indices) in (exact distance, row index) order.

    Every finite double is an integer over a power of two, the pair that
    float.as_integer_ratio gives and fractions.Fraction holds. Over the
    largest denominator among a query and its candidates all of them are
    integers, so sum (q_f - t_f)^2 is computed exactly, in Python integers,
    without a Fraction object's normalization at every step."""
    votes = np.empty(Q.shape[0], dtype=np.intp)
    width = Q.shape[1]
    for i, (q, rows) in enumerate(zip(Q, candidates)):
        ratios = [v.as_integer_ratio() for v in np.concatenate([q, Xt[rows].ravel()]).tolist()]
        den = max((d for _, d in ratios), default=1)
        ints = [n * (den // d) for n, d in ratios]
        q = ints[:width]
        dist = [
            sum((a - b) ** 2 for a, b in zip(q, ints[width * j : width * (j + 1)])) for j in range(1, rows.size + 1)
        ]
        order = sorted(range(rows.size), key=dist.__getitem__)  # stable: ties keep the lower row index first
        votes[i] = yt[rows[order[:k]]].sum()
    return votes


# --- CART --------------------------------------------------------------------


class NodeTable(NamedTuple):
    """A tree as one node table: row i of each array is node i, depth first
    from the root at row 0. A leaf has feature, left and right -1."""

    n: np.ndarray  # int64 training rows that reach the node
    impurity: np.ndarray  # Gini impurity of those rows
    klass: np.ndarray  # int8 majority class, ties to abnormal
    p_normal: np.ndarray
    p_abnormal: np.ndarray
    feature: np.ndarray  # intp split feature, -1 at a leaf
    threshold: np.ndarray  # value < threshold descends left
    left: np.ndarray  # intp child rows
    right: np.ndarray


_NODE_DTYPES = (np.int64, float, np.int8, float, float, np.intp, float, np.intp, np.intp)


def _node_table(rows: list[list]) -> NodeTable:
    """The table of node rows (n, impurity, class, p_normal, p_abnormal,
    feature, threshold, left, right) in table order."""
    return NodeTable(*(np.array(column, dtype=dtype) for column, dtype in zip(zip(*rows), _NODE_DTYPES)))


@dataclass(frozen=True, eq=False)
class CartModel:
    """The tree's growth limits and its node table, written as the nested
    _Node document of its root."""

    max_depth: int = field(metadata=at_least(1))
    min_leaf: int = field(metadata=at_least(1))
    root: Annotated[NodeTable, _table_of, _tree_of]

    def __post_init__(self):
        check(self)


def _gini(n_abnormal: float, n: float) -> float:
    p = n_abnormal / n
    return 1.0 - (p * p + (1.0 - p) * (1.0 - p))


def _threshold(a: float, b: float) -> float:
    """A split value t with a < t <= b: their midpoint, or b where the
    midpoint rounds down to a (adjacent doubles, or a = -inf) or overflows.
    A zero b is returned as +0.0: the run of equal values it starts may
    hold zeros of both signs, in any order."""
    t = (a + b) / 2.0
    return t if a < t <= b else b + 0.0


def _best_split(XT: np.ndarray, y: np.ndarray, order: np.ndarray, abn: int, min_leaf: int):
    """The split of a node with abn abnormal rows that has the lowest
    weighted Gini impurity, as (weighted impurity, feature, threshold,
    left size, left abnormal count), or None.

    order is the node's presorted table: row f holds its training rows in
    X[:, f] value order, ties in any order. Split position p of feature f
    sends the first p + 1 rows of row f left. Every position of every
    feature is scored at once, a position whose next value is not larger
    scores +inf, and the first minimum of the flattened scores is the
    lowest feature, then the lowest threshold. Ties in any order, never
    read, because a scored position ends a run of equal values: its
    counts and values, and the rows on each side, are those of any order.
    The left child's abnormal count is the split's prefix sum, the right
    child's abn minus it.
    """
    features, n = order.shape
    sv = XT[np.arange(features)[:, None], order]
    prefix_abn = np.cumsum(y[order], axis=1)
    lo, hi = min_leaf - 1, n - min_leaf  # positions lo..hi-1
    n_l = np.arange(lo + 1, hi + 1, dtype=float)
    n_r = n - n_l
    p_l = prefix_abn[:, lo:hi].astype(float)
    p_r = abn - p_l
    # n_side * (1 - (p * p + (1 - p) * (1 - p))) for each side, in place
    for p, count in ((p_l, n_l), (p_r, n_r)):
        p /= count
        q = 1.0 - p
        p *= p
        p += q * q
        np.subtract(1.0, p, out=p)
        p *= count
    weighted = np.add(p_l, p_r, out=p_l)
    weighted /= n
    weighted[~(sv[:, lo:hi] < sv[:, lo + 1 : hi + 1])] = np.inf
    feature, j = divmod(int(np.argmin(weighted)), hi - lo)
    if weighted[feature, j] == np.inf:
        return None
    at = lo + j
    threshold = _threshold(float(sv[feature, at]), float(sv[feature, at + 1]))
    return float(weighted[feature, j]), feature, threshold, at + 1, int(prefix_abn[feature, at])


def _grow(
    XT: np.ndarray, y: np.ndarray, order: np.ndarray, abn: int, depth: int, cfg: LearnerConfig, rows: list,
    goes_left: np.ndarray,
) -> int:
    """Append the node of the presorted table order, whose rows hold abn
    abnormal labels, then its subtrees, to rows; return its row. goes_left
    is an all-False scratch mask over the training rows."""
    n = order.shape[1]
    impurity = _gini(abn, n)
    at = len(rows)
    rows.append([n, impurity, ABNORMAL if 2 * abn >= n else NORMAL, (n - abn) / n, abn / n, -1, 0.0, -1, -1])
    if depth >= cfg.cart_max_depth or impurity == 0.0 or n < 2 * cfg.cart_min_leaf:
        return at
    best = _best_split(XT, y, order, abn, cfg.cart_min_leaf)
    if best is None or best[0] >= impurity:
        return at
    _, feature, threshold, n_left, abn_left = best
    # the split feature's first n_left rows are those below the threshold;
    # masking every row of the table keeps each feature's order
    left_rows = order[feature, :n_left]
    goes_left[left_rows] = True
    mask = goes_left[order]
    goes_left[left_rows] = False
    features = order.shape[0]
    left_order = order[mask].reshape(features, n_left)
    right_order = order[~mask].reshape(features, n - n_left)
    left = _grow(XT, y, left_order, abn_left, depth + 1, cfg, rows, goes_left)
    right = _grow(XT, y, right_order, abn - abn_left, depth + 1, cfg, rows, goes_left)
    rows[at][5:] = feature, threshold, left, right
    return at


def _train_cart(cfg: LearnerConfig, X: np.ndarray, y: np.ndarray) -> CartModel:
    """Grow the tree from one presorted table: each feature's row indices
    in value order; ties in any order, never read, because no split falls
    inside a run of equal values. Each split filters the table into its
    children's tables, so no node sorts again, and each child's abnormal
    count comes from the split's prefix sums."""
    rows: list[list] = []
    XT = np.ascontiguousarray(X.T)
    _grow(XT, y, np.argsort(XT, axis=1), int(y.sum()), 0, cfg, rows, np.zeros(X.shape[0], dtype=bool))
    return CartModel(cfg.cart_max_depth, cfg.cart_min_leaf, _node_table(rows))


def _cart_predict(model: CartModel, X: np.ndarray) -> np.ndarray:
    """Descend all rows one level per step; a row stops at its leaf."""
    tree = model.root
    node = np.zeros(X.shape[0], dtype=np.intp)
    rows = np.arange(X.shape[0])
    while rows.size:
        at = node[rows]
        feature = tree.feature[at]
        internal = feature >= 0
        rows, at, feature = rows[internal], at[internal], feature[internal]
        goes_left = X[rows, feature] < tree.threshold[at]
        node[rows] = np.where(goes_left, tree.left[at], tree.right[at])
    return tree.klass[node]


# --- MLP ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MlpModel:
    """Sigmoid layers: layer l's weights, (fan_in, fan_out), and biases,
    (fan_out,), from the standardized features to one output."""

    activation: str = field(metadata=one_of("sigmoid"))
    weights: tuple[Matrix, ...]
    biases: tuple[Vector, ...]
    standardization: StandardizationParams

    def __post_init__(self):
        check(self)
        if len(self.weights) != len(self.biases) or not self.weights:
            raise InvalidConfig("weights and biases must be arrays of equal, non-zero length")
        fan_in = self.standardization.mean.size
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.shape[0] != fan_in or b.shape != (W.shape[1],):
                raise InvalidConfig(f"layer {i} has weights {W.shape} and biases {b.shape} after {fan_in} inputs")
            fan_in = W.shape[1]
        if fan_in != 1:
            raise InvalidConfig(f"the last layer must have one output, got {fan_in}")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) otherwise, so exp
    never overflows. min(z, -z) is -|z| except that a NaN keeps its sign:
    np.minimum returns its first NaN argument."""
    e = np.exp(np.minimum(z, -z))
    p = np.exp(np.minimum(z, 0.0))
    e += 1.0
    p /= e
    return p


def _mlp_forward(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray], X_std: np.ndarray) -> list[np.ndarray]:
    """Activations per layer, input included; last entry is the output
    probability column. The arrays may carry a leading stack axis of
    models: weights (F, fan_in, fan_out), biases (F, fan_out) and X_std
    (F, rows, features). X_std may instead stack one-row inputs,
    (rows, 1, features), against one model's weights."""
    activations = [X_std]
    for W, b in zip(weights, biases):
        z = activations[-1] @ W
        z += b[..., None, :]
        activations.append(_sigmoid(z))
    return activations


def _mlp_backward(
    weights: Sequence[np.ndarray],
    acts: list[np.ndarray],
    t: np.ndarray,
    grads_w: Sequence[np.ndarray],
    grads_b: Sequence[np.ndarray],
) -> None:
    """Write the gradient of the mean cross-entropy for every weight and
    bias into grads_w and grads_b, from the activations of one forward pass
    and the float targets t, (rows,) or (F, rows) for a stack. Each model
    of a stack gets its own matrix products and its own sums down axis -2,
    so its gradient is bitwise the one of a call on that model alone."""
    # logistic output + cross-entropy collapses to (p - y) / m
    delta = acts[-1] - t[..., None]
    delta /= t.shape[-1]
    for layer in range(len(weights) - 1, -1, -1):
        np.matmul(acts[layer].swapaxes(-1, -2), delta, out=grads_w[layer])
        np.add.reduce(delta, axis=-2, out=grads_b[layer])
        if layer > 0:
            a = acts[layer]
            delta = delta @ weights[layer].swapaxes(-1, -2)
            delta *= a
            delta *= 1.0 - a


def mlp_probability(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Output probability of every row of X, bitwise that of a call on the
    row alone: the rows go through _mlp_forward as a stack of one-row
    inputs."""
    X_std = model.standardization.apply(np.asarray(X, dtype=float))
    return _mlp_forward(model.weights, model.biases, X_std[:, None, :])[-1][:, 0, 0]


def _layer_views(flat: np.ndarray, sizes: Sequence[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weight matrices and bias vectors of a layer stack, as views into the
    last axis of flat: each layer's weights, then its biases. A (F, n)
    flat gives (F, fan_in, fan_out) weights and (F, fan_out) biases."""
    lead = flat.shape[:-1]
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(flat[..., at : at + fan_in * fan_out].reshape(*lead, fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[..., at : at + fan_out])
        at += fan_out
    return weights, biases


def _mlp_schedule(n: Sequence[int], size: int) -> list[tuple[int, int, int, int]]:
    """One epoch's steps over sets of n[f] rows, most rows first, as
    (first, end, lo, hi): models first to end - 1 take rows lo to hi - 1 of
    their shuffled sets as one step. At each batch start lo the models
    with a full batch left are a prefix of the stack; after them, each run
    of equal-size models whose rows end inside the batch takes its partial
    batch as one step."""
    steps = []
    for lo in range(0, n[0], size):
        first = sum(rows >= lo + size for rows in n)
        if first:
            steps.append((0, first, lo, lo + size))
        while first < len(n) and n[first] > lo:
            end = first + n.count(n[first])
            steps.append((first, end, lo, n[first]))
            first = end
    return steps


def _train_mlps(cfg: LearnerConfig, sets: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[MlpModel]:
    """Minibatch SGD of one model per checked (X, y) set, every model in
    lockstep on stacked arrays and bit for bit the model of a loop of its
    own.

    Model f's weights and biases are views into row f of theta
    (F, n_params), and its gradient into row f of grad, so a step's update
    is two array operations. Each model keeps its own default_rng(cfg.seed)
    and so its own initial weights, epoch permutations and step order. The
    sets are ordered by row count, most first, and every epoch walks the
    same step schedule (_mlp_schedule), whose stacked parameter, gradient
    and batch views are made once per call: each epoch's shuffled rows are
    written into the arrays those views see. A step's models are a slice
    of the stack: the models that still have a full batch, or a run of
    equal-size models (in cross-validation, folds of one size) whose rows
    end inside the batch and take that partial batch together. Their
    products are one np.matmul, which hands BLAS each model's matrices on
    their own with the strides a lone model has, and the elementwise work
    runs on the whole slice, each model's sums on its own rows.

    Per model, standardizing once and then gathering rows gives the values
    of standardizing each batch (the transform is elementwise), and
    g *= lr; theta -= g is theta - lr * g."""
    order = sorted(range(len(sets)), key=lambda i: -sets[i][0].shape[0])
    sets = [sets[i] for i in order]
    n = [X.shape[0] for X, _ in sets]
    params = [standardize_fit(X) for X, _ in sets]
    sizes = [sets[0][0].shape[1], *cfg.mlp_hidden, 1]
    n_params = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))
    theta, grad = np.zeros((len(sets), n_params)), np.empty((len(sets), n_params))
    weights, biases = _layer_views(theta, sizes)
    grads_w, grads_b = _layer_views(grad, sizes)
    rngs = [np.random.default_rng(cfg.seed) for _ in sets]
    for f, rng in enumerate(rngs):
        for W in weights:
            W[f] = rng.normal(0.0, cfg.mlp_init_scale, size=W.shape[1:])
    X_std = [p.apply(X) for p, (X, _) in zip(params, sets)]
    targets = [y.astype(float) for _, y in sets]
    # model f's shuffled rows of an epoch fill X_epoch[f, :n[f]] and t_epoch[f, :n[f]]
    X_epoch, t_epoch = np.empty((len(sets), n[0], sizes[0])), np.empty((len(sets), n[0]))
    steps = []
    for first, end, lo, hi in _mlp_schedule(n, cfg.mlp_batch_size):
        m = slice(first, end)
        stacks = [[a[m] for a in arrays] for arrays in (weights, biases, grads_w, grads_b)]
        steps.append((*stacks, X_epoch[m, lo:hi], t_epoch[m, lo:hi], theta[m], grad[m]))
    lr = cfg.mlp_learning_rate
    for _ in range(cfg.mlp_epochs):
        for f, rng in enumerate(rngs):
            perm = rng.permutation(n[f])
            X_epoch[f, : n[f]] = X_std[f][perm]
            t_epoch[f, : n[f]] = targets[f][perm]
        for stack_w, stack_b, stack_gw, stack_gb, X_batch, t_batch, stack_theta, stack_grad in steps:
            _mlp_backward(stack_w, _mlp_forward(stack_w, stack_b, X_batch), t_batch, stack_gw, stack_gb)
            stack_grad *= lr
            stack_theta -= stack_grad
    return [
        MlpModel("sigmoid", tuple(W[f] for W in weights), tuple(b[f] for b in biases), params[f])
        for f in np.argsort(order)
    ]


# --- shared contract -----------------------------------------------------------

TrainedModel = KnnModel | CartModel | MlpModel


def _checked(cfg: LearnerConfig, features: np.ndarray, labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """One training set as float features and int8 labels, or the error
    that training cfg's learner on it raises."""
    X = _float_matrix(features)
    y = np.asarray(labels, dtype=np.int8)
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} rows but {y.shape[0]} labels")
    if ((y != NORMAL) & (y != ABNORMAL)).any():
        raise ValueError(f"labels must be 0 or 1, got {sorted(set(y.tolist()))}")
    if not np.bincount(y, minlength=2).all():
        raise DataError("dataset contains only one class")
    needed = {"knn": cfg.knn_k, "cart": 2 * cfg.cart_min_leaf, "mlp": cfg.mlp_batch_size}[cfg.algorithm]
    if X.shape[0] < needed:
        raise DataError(f"training needs at least {needed} samples, got {X.shape[0]}")
    return X, y


def train(cfg: LearnerConfig, features: np.ndarray, labels: Sequence[int]) -> TrainedModel:
    """Train per cfg.algorithm. Deterministic in (cfg, data)."""
    X, y = _checked(cfg, features, labels)
    if cfg.algorithm == "knn":
        return _train_knn(cfg, X, y)
    if cfg.algorithm == "cart":
        return _train_cart(cfg, X, y)
    return _train_mlps(cfg, [(X, y)])[0]


def train_many(
    cfg: LearnerConfig, sets: Sequence[tuple[np.ndarray, Sequence[int]]]
) -> list[TrainedModel]:
    """One model per (features, labels) set, in order, each bitwise the
    model `train` gives on that set alone. Every set is checked, in order,
    before any is trained, so a bad set raises what `train` raises on it.
    MLPs train in lockstep (_train_mlps), so their sets share one feature
    width; KNN and CART train one set after the other."""
    checked = [_checked(cfg, X, y) for X, y in sets]
    if cfg.algorithm != "mlp" or not checked:
        return [train(cfg, X, y) for X, y in checked]
    return _train_mlps(cfg, checked)


def predict_batch(model: TrainedModel, features: np.ndarray) -> np.ndarray:
    """Predict many rows at once; returns an int8 array of 0/1 labels. A
    1-d input is one row. Each row's label is bitwise the one a call on
    that row alone returns."""
    X = np.asarray(features, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if isinstance(model, KnnModel):
        return _knn_predict_std(model, model.standardization.apply(X))
    if isinstance(model, CartModel):
        return _cart_predict(model, X)
    p = mlp_probability(model, X)
    return np.where(p >= 0.5, ABNORMAL, NORMAL).astype(np.int8)


def predict(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Predict every row of X; returns an int8 array of 0=normal or
    1=abnormal. Each row's label is bitwise the one a call on that row
    alone returns, whatever other rows X holds. Deployment's entry point:
    the same code as predict_batch under its own name, by which
    perfbench/tracer.py times each."""
    return predict_batch(model, X)


# --- serialization -------------------------------------------------------------

MODEL_FORMAT = 1


@dataclass(frozen=True, eq=False)
class _Node:
    """A CART node as the document nests it: a leaf, or a split that has
    all of feature, threshold, left and right."""

    n: int = field(metadata=at_least(1))
    impurity: float = field(metadata=ANY)
    class_: int = field(metadata=one_of(NORMAL, ABNORMAL))
    proportions: tuple[float, float] = field(metadata=ANY)
    feature: int | None = field(default=None, metadata=at_least(0))
    threshold: float | None = field(default=None, metadata=EXTENDED)  # +inf splits a finite value from inf
    left: _Node | None = None
    right: _Node | None = None

    def __post_init__(self):
        check(self)  # not the subtrees, which checked themselves
        missing = [key for key in ("feature", "threshold", "left", "right") if getattr(self, key) is None]
        if 0 < len(missing) < 4:
            raise InvalidConfig(f"a split needs feature, threshold, left and right, got no {missing[0]}")

    def append_to(self, rows: list) -> int:
        """Append this node's row, then its subtrees', to rows, depth first
        and left first; return its row."""
        at = len(rows)
        rows.append([self.n, self.impurity, self.class_, *self.proportions, -1, 0.0, -1, -1])
        if self.feature is not None:
            rows[at][5:] = self.feature, self.threshold, self.left.append_to(rows), self.right.append_to(rows)
        return at


def _table_of(doc, path: str) -> NodeTable:
    """The node table of the root's _Node document."""
    rows: list[list] = []
    from_dict(_Node, doc, path).append_to(rows)
    return _node_table(rows)


def _tree_of(table: NodeTable) -> dict:
    """The root's _Node document of the node table, its tree built from the
    last row up, as a child's row follows its parent's."""
    nodes: dict[int, _Node] = {}
    rows = list(zip(*(column.tolist() for column in table)))
    for i in range(len(rows) - 1, -1, -1):
        n, impurity, klass, p_normal, p_abnormal, feature, threshold, left, right = rows[i]
        split = () if feature < 0 else (feature, threshold, nodes.pop(left), nodes.pop(right))
        nodes[i] = _Node(n, impurity, klass, (p_normal, p_abnormal), *split)
    return to_dict(nodes[0])


_DOCUMENTS = {"knn": KnnModel, "cart": CartModel, "mlp": MlpModel}
_KINDS = {cls: kind for kind, cls in _DOCUMENTS.items()}


def model_to_dict(model: TrainedModel) -> dict:
    """The JSON document of `model`: its format, its kind and its fields."""
    return {"format": MODEL_FORMAT, "kind": _KINDS[type(model)], **to_dict(model)}


def model_from_dict(doc: dict, path: str = "model") -> TrainedModel:
    """Inverse of model_to_dict: the model of the document's kind, decoded
    by schema.from_dict, so a malformed model raises InvalidConfig here,
    naming the value's path from `path`, instead of failing inside
    predict."""
    if not isinstance(doc, dict):
        raise InvalidConfig(f"{path}: expected object, got {doc!r}")
    if doc.get("format") != MODEL_FORMAT:
        raise InvalidConfig(f"{path}: unsupported model format {doc.get('format')!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _DOCUMENTS:
        raise InvalidConfig(f"{path}: unknown model kind {kind!r}")
    body = {key: value for key, value in doc.items() if key not in ("format", "kind")}
    return from_dict(_DOCUMENTS[kind], body, path)


Model = Annotated[TrainedModel, model_from_dict, model_to_dict]  # a document's field that holds a model


def check_input_width(model: TrainedModel, width: int) -> None:
    """Raise InvalidConfig unless the model reads rows of `width` features."""
    if isinstance(model, CartModel):
        needed = int(model.root.feature.max()) + 1
        if needed > width:
            raise InvalidConfig(f"cart model splits on feature {needed - 1}, but rows have {width} features")
    elif model.standardization.mean.size != width:
        raise InvalidConfig(f"model reads {model.standardization.mean.size} features, but rows have {width}")
