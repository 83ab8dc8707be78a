"""Parity of the learner kernels with their plain forms.

The MLP training loop standardizes once, updates one parameter row per model
in place, trains many models in lockstep (train_many) and shares one
backward pass with mlp_gradient; CART descends level by level over its
node table and grows it from one presorted table per tree. Each must give
the same bits as the plain version below: weights and gradients for the
MLP, labels and node tables for CART. KNN labels must be those of the
exact oracle (knn_oracle.py), on data full of exact and near ties.

`predict` labels a whole matrix, and each row must get the bits of a
one-row call, the way deployment labeled a stream one record at a time:
the references below run on each row alone.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from icewatch import learners
from icewatch.learners import (
    ABNORMAL,
    NORMAL,
    CartModel,
    KnnModel,
    LearnerConfig,
    MlpModel,
    StandardizationParams,
    _sigmoid,
    mlp_gradient,
    mlp_probability,
    predict,
    predict_batch,
    standardize_fit,
    model_to_dict,
    train,
    train_many,
)

from knn_oracle import knn_oracle


def reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_train_mlp(cfg, X, y):
    """One MlpModel per step, each batch standardized on its own."""
    n = X.shape[0]
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
            grads_w, grads_b = reference_gradient(model, X[batch], y[batch])
            model = MlpModel(
                weights=tuple(W - cfg.mlp_learning_rate * g for W, g in zip(model.weights, grads_w)),
                biases=tuple(b - cfg.mlp_learning_rate * g for b, g in zip(model.biases, grads_b)),
                standardization=params,
            )
    return model


def reference_gradient(model, X, y):
    t = np.asarray(y, dtype=float)
    X_std = model.standardization.apply(np.asarray(X, dtype=float))
    acts = [X_std]
    for W, b in zip(model.weights, model.biases):
        acts.append(reference_sigmoid(acts[-1] @ W + b))
    delta = (acts[-1] - t[:, None]) / X_std.shape[0]
    grads_w, grads_b = [], []
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w.append(acts[layer].T @ delta)
        grads_b.append(delta.sum(axis=0))
        if layer > 0:
            a = acts[layer]
            delta = (delta @ model.weights[layer].T) * a * (1.0 - a)
    return grads_w[::-1], grads_b[::-1]


def reference_cart_predict(model: CartModel, X):
    out = []
    for x in np.atleast_2d(X):
        i = 0
        while model.feature[i] >= 0:
            i = model.left[i] if x[model.feature[i]] < model.threshold[i] else model.right[i]
        out.append(model.klass[i])
    return np.array(out, dtype=np.int8)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _labeled(rng, n, d=10):
    X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d) + rng.normal(size=d)
    y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=0.7, size=n) > 0).astype(np.int8)
    y[:2] = [0, 1]
    return X, y


SPECIAL = [0.0, -0.0, 709.8, -709.8, 745.2, -745.2, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan]


def test_sigmoid_bitwise_at_every_length():
    rng = np.random.default_rng(5)
    for scale in (0.1, 1.0, 10.0, 40.0, 300.0):
        for n in range(1, 71):
            z = rng.normal(scale=scale, size=n)
            z[rng.integers(0, n)] = SPECIAL[n % len(SPECIAL)]
            assert _same_bits(_sigmoid(z), reference_sigmoid(z)), (scale, n)
    z = np.array(SPECIAL)
    assert _same_bits(_sigmoid(z), reference_sigmoid(z))
    assert _same_bits(_sigmoid(z.reshape(1, -1)), reference_sigmoid(z.reshape(1, -1)))


@pytest.mark.parametrize("hidden", [(16,), (16, 8)])
@pytest.mark.parametrize("epochs", [1, 3])
def test_mlp_training_bitwise(hidden, epochs):
    X, y = _labeled(np.random.default_rng(len(hidden) * 10 + epochs), 203)
    # batch 32 leaves an 11-row remainder batch every epoch
    cfg = LearnerConfig(algorithm="mlp", mlp_hidden=hidden, mlp_epochs=epochs, mlp_batch_size=32, seed=7)
    got, want = train(cfg, X, y), reference_train_mlp(cfg, X, y)
    assert len(got.weights) == len(want.weights) == len(hidden) + 1
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert _same_bits(a, b)
    assert _same_bits(got.standardization.mean, want.standardization.mean)


# training-set sizes for train_many at batch 32: five folds of 203 rows,
# whose sizes differ by one and end in 2- and 3-row remainder batches; and
# remainders of 13 and 1 rows beside sets of exactly one and two batches
TRAIN_MANY_SIZES = {"folds": [162, 162, 162, 163, 163], "mixed": [45, 32, 203, 64, 33]}


@pytest.mark.parametrize("sizes", sorted(TRAIN_MANY_SIZES))
@pytest.mark.parametrize("hidden", [(16,), (16, 8)])
@pytest.mark.parametrize("epochs", [1, 3])
def test_train_many_mlps_bitwise(sizes, hidden, epochs):
    """Every lockstep model is bitwise the plain loop's on its own set."""
    rng = np.random.default_rng(len(hidden) * 10 + epochs)
    sets = [_labeled(rng, n) for n in TRAIN_MANY_SIZES[sizes]]
    cfg = LearnerConfig(algorithm="mlp", mlp_hidden=hidden, mlp_epochs=epochs, mlp_batch_size=32, seed=7)
    models = train_many(cfg, sets)
    assert len(models) == len(sets)
    for (X, y), got in zip(sets, models):
        want = reference_train_mlp(cfg, X, y)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases, strict=True):
            assert _same_bits(a, b)
        assert _same_bits(got.standardization.mean, want.standardization.mean)
        assert _same_bits(got.standardization.std, want.standardization.std)


@pytest.mark.parametrize("algorithm", ["knn", "cart", "mlp"])
def test_train_many_of_one_set_is_train(algorithm):
    X, y = _labeled(np.random.default_rng(3), 203)
    cfg = LearnerConfig(algorithm=algorithm, mlp_epochs=3, seed=5)
    (got,) = train_many(cfg, [(X, y)])
    # float repr round-trips, so equal JSON text is equal bits
    assert json.dumps(model_to_dict(got)) == json.dumps(model_to_dict(train(cfg, X, y)))


def test_mlp_gradient_bitwise():
    rng = np.random.default_rng(2)
    X, y = _labeled(rng, 37)
    model = train(LearnerConfig(algorithm="mlp", mlp_hidden=(16, 8), mlp_epochs=1), X, y)
    got, want = mlp_gradient(model, X, y), reference_gradient(model, X, y)
    for a, b in zip(got[0] + got[1], want[0] + want[1]):
        assert _same_bits(a, b)


@pytest.mark.parametrize("k", [1, 3, 4])
def test_knn_labels_match_reference(k):
    rng = np.random.default_rng(k)
    X, y = _labeled(rng, 300)
    model = train(LearnerConfig(algorithm="knn", knn_k=k), X, y)
    # 1500 queries: five full row blocks and a short last block
    Q = np.vstack([_labeled(rng, 1500 - 40)[0], X[:40]])
    assert _same_bits(predict_batch(model, Q), knn_oracle(model, Q))
    for row in Q[:25]:
        assert _same_bits(predict_batch(model, row), knn_oracle(model, row))


def test_knn_tie_fallback_and_k_equal_to_n_train():
    rng = np.random.default_rng(9)
    base, labels = _labeled(rng, 40)
    # every training row three times, with differing labels: distance ties
    # straddle the k boundary and the lower row index decides
    X = np.vstack([base, base, base])
    y = np.concatenate([labels, 1 - labels, labels]).astype(np.int8)
    Q = np.vstack([base, _labeled(rng, 60)[0]])
    for k in (1, 2, 3, 4, X.shape[0]):
        model = train(LearnerConfig(algorithm="knn", knn_k=k), X, y)
        assert _same_bits(predict_batch(model, Q), knn_oracle(model, Q)), k


EXTREMES = np.array([np.nan, np.inf, -np.inf, 1e200, -1e200, 1e300, -1e300])


def _knn_tied_case(rng, rounded):
    """60 training rows and 200 queries whose distances tie: 60 queries are
    exact copies of training rows, whose negative distances clamp to zero
    ties; with rounded, every value lies on a coarse grid, so the training
    rows repeat with differing labels and many distances are equal."""
    X, y = _labeled(rng, 60)
    Q = _labeled(rng, 200)[0]
    if rounded:
        X, Q = np.round(X), np.round(Q)
    Q[:60] = X[rng.integers(0, X.shape[0], size=60)]
    return X, y, Q


def _with_extremes(rng, Q):
    """Q with one to three cells of 80 rows set to NaN, +-inf, +-1e200 or
    +-1e300: their distances overflow to inf, or mix inf with NaN."""
    Q = Q.copy()
    for row in rng.choice(Q.shape[0], size=80, replace=False):
        cells = rng.choice(Q.shape[1], size=int(rng.integers(1, 4)), replace=False)
        Q[row, cells] = rng.choice(EXTREMES, size=cells.size)
    return Q


def _with_huge_training_rows(rng, model):
    """The model with column 0 of about 90% of its training rows set to
    +-1e200. A bundle may hold such rows: a query's distances to them are
    inf, so finite and infinite distances share a row, and k can exceed
    the finite ones."""
    X = model.X.copy()
    huge = rng.random(X.shape[0]) < 0.9
    X[huge, 0] = rng.choice([1e200, -1e200], size=int(huge.sum()))
    return KnnModel(k=model.k, X=X, y=model.y, standardization=model.standardization)


@pytest.mark.parametrize("case", ["spread", "rounded", "huge-training-rows"])
def test_knn_labels_with_non_finite_and_tied_distances(case):
    rng = np.random.default_rng(17)
    X, y, Q = _knn_tied_case(rng, rounded=case == "rounded")
    Q = _with_extremes(rng, Q)
    for k in (1, 2, 3, 4, 5, 7, X.shape[0]):
        model = train(LearnerConfig(algorithm="knn", knn_k=k), X, y)
        if case == "huge-training-rows":
            model = _with_huge_training_rows(np.random.default_rng(k), model)
        want = knn_oracle(model, Q)
        assert _same_bits(predict_batch(model, Q), want), k
        assert _same_bits(predict(model, Q), want), k


BEYOND_FLOAT32 = np.array([3.5e38, -3.5e38, 1e39, -1e39, 1e100, -1e100])


@pytest.mark.parametrize("case", ["spread", "huge-training-rows"])
def test_knn_finite_cells_beyond_float32_are_silent(case):
    """A finite query cell beyond the float32 range overflows the float32
    screen; its row falls through to the float64 screen and the exact tier
    without a RuntimeWarning. With about 90% of the training rows at
    +-1e200, max|t|^2 overflows and every row takes the stable sort."""
    rng = np.random.default_rng(41)
    X, y, Q = _knn_tied_case(rng, rounded=False)
    rows = rng.choice(Q.shape[0], size=60, replace=False)
    Q[rows, rng.integers(0, Q.shape[1], size=60)] = rng.choice(BEYOND_FLOAT32, size=60)
    for k in (1, 2, 3, 7):
        model = train(LearnerConfig(algorithm="knn", knn_k=k), X, y)
        if case == "huge-training-rows":
            model = _with_huge_training_rows(np.random.default_rng(k), model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_batch, got_rows = predict_batch(model, Q), predict(model, Q)
        want = knn_oracle(model, Q)
        assert _same_bits(got_batch, want), k
        assert _same_bits(got_rows, want), k


def test_knn_distance_that_overflows_float32_is_not_taken_as_far():
    """The nearest training row's |t|^2 = 3.4e38 overflows float32, so
    the float32 product reads its distance, 1.7e38, as +inf, past two
    finite picks at 1.82e38 and 1.96e38; the exact distances say it is the
    nearest."""
    X = np.array([[-5e17, 0.0], [-1e18, 0.0], [1.305e19, 1.305e19]])
    identity = StandardizationParams(mean=np.zeros(2), std=np.ones(2))
    model = KnnModel(k=1, X=X, y=np.array([0, 0, 1], dtype=np.int8), standardization=identity)
    Q = np.array([[1.3e19, 0.0]])
    assert knn_oracle(model, Q).tolist() == [1]
    assert predict_batch(model, Q).tolist() == [1]
    assert predict(model, Q).tolist() == [1]


def test_knn_three_distances_inside_the_float32_bound():
    """Three training rows lie within 1e-9 of the same distance from the
    query, far inside the float32 bound: the float32 picks may come in any
    order, and only the rows below d(k) - 2B may be counted in for sure: a
    screen that counted every row below d(k) in mislabels this query."""
    X = np.array([[0.22082680550798894], [1.7595592278021324], [0.22082680563167797], [3.990193010470648]])
    identity = StandardizationParams(mean=np.zeros(1), std=np.ones(1))
    model = KnnModel(k=2, X=X, y=np.array([0, 1, 0, 1], dtype=np.int8), standardization=identity)
    Q = np.array([[0.9901930104706482]])
    want = knn_oracle(model, Q)
    assert _same_bits(predict_batch(model, Q), want)
    assert _same_bits(predict(model, Q), want)


def test_knn_sorted_votes_on_rows_mixing_finite_inf_and_nan():
    """The stable sort that labels a query without a finite rounding bound
    ranks each row's cells by (distance, index), +inf after every finite
    distance and NaN, of either sign, last."""
    rng = np.random.default_rng(29)
    d2 = rng.choice([0.0, 1.0, 2.0, np.inf, np.nan, -np.nan], size=(400, 8))
    yt = rng.integers(0, 2, size=8).astype(np.int8)
    for k in range(1, 9):
        want = [
            int(yt[sorted(range(8), key=lambda j: (np.isnan(row[j]), np.nan_to_num(row[j]), j))[:k]].sum())
            for row in d2
        ]
        assert learners._knn_sorted_votes(d2, yt, k).tolist() == want, k


def test_knn_sorts_only_rows_with_a_non_finite_distance(monkeypatch):
    """Ties and zero distances stay on the first-minimum passes; the stable
    sort runs for no finite query."""
    sorted_rows, sort = [], learners._knn_sorted_votes

    def spy(d2, yt, k):
        sorted_rows.append(d2.shape[0])
        return sort(d2, yt, k)

    monkeypatch.setattr(learners, "_knn_sorted_votes", spy)
    rng = np.random.default_rng(23)
    for rounded in (False, True):
        X, y, Q = _knn_tied_case(rng, rounded)
        for k in (1, 2, 3, 4, 5, 7, X.shape[0]):
            model = train(LearnerConfig(algorithm="knn", knn_k=k), X, y)
            predict_batch(model, Q)
            predict(model, Q)
    assert sorted_rows == []
    Q[5, 0] = np.nan
    predict_batch(model, Q)
    assert sorted_rows == [1]


HUGE = [1e39, -1e39, 1e200, -1e200, 1e300, -1e300]


@st.composite
def knn_near_ties(draw):
    """A KNN model and queries full of exact and near ties.

    The training rows are n base rows on a grid, then the same
    rows again with the other label, then each moved by one double ulp and
    by one float32 ulp. The queries are grid points, whose distances to the
    grid rows tie at many indices, base rows and midpoints of two base rows
    moved by less than a float32 ulp, and rows with one cell at +-1e39,
    +-1e200 or +-1e300. The grid is of halves, or of 5e-23, where float32
    products underflow. The model's standardization is the identity, so
    the queries are used as drawn."""
    width = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([0.5, 5e-23]))
    cell = st.integers(-4, 4).map(lambda v: v * scale)
    base = draw(arrays(np.float64, (draw(st.integers(2, 5)), width), elements=cell))
    up32 = np.nextafter(base.astype(np.float32), np.float32(np.inf)).astype(np.float64)
    X = np.vstack([base, base, np.nextafter(base, np.inf), up32])
    labels = draw(arrays(np.int8, base.shape[0], elements=st.integers(0, 1)))
    y = np.concatenate([labels, 1 - labels, draw(arrays(np.int8, 2 * base.shape[0], elements=st.integers(0, 1)))])
    grid = draw(arrays(np.float64, (draw(st.integers(1, 6)), width), elements=cell))
    nudge = draw(arrays(np.float64, base.shape, elements=st.floats(-1e-7, 1e-7))) * scale
    midpoints = (base + np.roll(base, 1, axis=0)) / 2 + np.roll(nudge, 1)
    huge = base.copy()
    cells = draw(arrays(np.intp, base.shape[0], elements=st.integers(0, width - 1)))
    huge[np.arange(base.shape[0]), cells] = draw(arrays(np.float64, base.shape[0], elements=st.sampled_from(HUGE)))
    k = draw(st.sampled_from([1, 2, 3, 4, 7, X.shape[0]]))
    identity = StandardizationParams(mean=np.zeros(width), std=np.ones(width))
    return KnnModel(k=k, X=X, y=y, standardization=identity), np.vstack([grid, base + nudge, midpoints, huge])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(knn_near_ties())
def test_knn_labels_match_the_exact_oracle_on_near_ties(case):
    model, Q = case
    want = knn_oracle(model, Q)
    assert _same_bits(predict_batch(model, Q), want)
    assert _same_bits(predict(model, Q), want)
    for r in range(Q.shape[0]):
        assert _same_bits(predict(model, Q[r : r + 1]), want[r : r + 1])


def reference_best_split(X, y, idx, min_leaf):
    """Each feature sorted on its own at every node, one feature at a time."""
    n = idx.size
    total_abn = int(y[idx].sum())
    best = None  # (weighted impurity, feature, threshold)
    for f in range(X.shape[1]):
        v = X[idx, f]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        prefix_abn = np.cumsum(y[idx][order])
        pos = np.arange(min_leaf - 1, n - min_leaf)  # left part is sv[:pos+1]
        pos = pos[sv[pos] < sv[pos + 1]]
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
            a, b = float(sv[pos[j]]), float(sv[pos[j] + 1])
            mid = (a + b) / 2.0
            best = (float(weighted[j]), f, mid if a < mid <= b else b)
    return best


def reference_grow(X, y, idx, depth, cfg, rows):
    """Append the node of ascending training rows idx, then its subtrees."""
    n = idx.size
    abn = int(y[idx].sum())
    p = abn / n
    impurity = 1.0 - (p * p + (1.0 - p) * (1.0 - p))
    at = len(rows)
    rows.append([n, impurity, ABNORMAL if 2 * abn >= n else NORMAL, (n - abn) / n, abn / n, -1, 0.0, -1, -1])
    if depth >= cfg.cart_max_depth or impurity == 0.0 or n < 2 * cfg.cart_min_leaf:
        return at
    best = reference_best_split(X, y, idx, cfg.cart_min_leaf)
    if best is None or best[0] >= impurity:
        return at
    _, feature, threshold = best
    goes_left = X[idx, feature] < threshold
    left = reference_grow(X, y, idx[goes_left], depth + 1, cfg, rows)
    right = reference_grow(X, y, idx[~goes_left], depth + 1, cfg, rows)
    rows[at][5:] = feature, threshold, left, right
    return at


def reference_train_cart(cfg, X, y):
    """Node rows (n, impurity, class, p_normal, p_abnormal, feature,
    threshold, left, right), depth first."""
    rows = []
    reference_grow(X, y, np.arange(X.shape[0]), 0, cfg, rows)
    return rows


_CART_COLUMNS = ("n", "impurity", "klass", "p_normal", "p_abnormal", "feature", "threshold", "left", "right")


def _cart_case(rng):
    """A small data set with what stresses split search: values rounded to
    a few levels (many ties), constant columns, a few infinite or NaN
    values, and duplicated rows with flipped labels."""
    n, d = int(rng.integers(2, 160)), int(rng.integers(1, 7))
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0, size=d)
    for f in range(d):
        kind = rng.integers(4)
        if kind == 0:
            X[:, f] = np.round(X[:, f] / X[:, f].std())
        elif kind == 1:
            X[:, f] = rng.integers(0, 3, size=n)
        elif kind == 2:
            X[:, f] = X[0, f]
        if rng.random() < 0.1:
            X[rng.integers(0, n, size=3), f] = rng.choice([np.inf, -np.inf, np.nan])
    y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int8)
    if rng.random() < 0.5:
        dup = rng.integers(0, n, size=int(rng.integers(1, n + 1)))
        X, y = np.vstack([X, X[dup]]), np.concatenate([y, 1 - y[dup]]).astype(np.int8)
    y[:2] = [0, 1]
    return X, y


def test_cart_node_table_matches_reference_grower():
    """The presorted grower builds the per-node-sort tree, bit for bit."""
    rng = np.random.default_rng(13)
    trained = splits = 0
    for case in range(320):
        X, y = _cart_case(rng)
        cfg = LearnerConfig(
            algorithm="cart", cart_min_leaf=int(rng.integers(1, 6)), cart_max_depth=int(rng.integers(1, 21))
        )
        if X.shape[0] < 2 * cfg.cart_min_leaf:
            continue
        model = train(cfg, X, y)
        want = reference_train_cart(cfg, X, y)
        for name, column in zip(_CART_COLUMNS, zip(*want)):
            got = getattr(model, name)
            assert _same_bits(got, np.array(column, dtype=got.dtype)), (case, name)
        trained += 1
        splits += int((model.feature >= 0).sum())
    assert trained >= 300 and splits > 3000


def _thresholds(model):
    return model.threshold[model.feature >= 0].tolist()


def test_cart_labels_match_reference():
    rng = np.random.default_rng(4)
    X, y = _labeled(rng, 400)
    model = train(LearnerConfig(algorithm="cart", cart_max_depth=8, cart_min_leaf=3), X, y)
    # rows sitting exactly on split thresholds pin the strict < of the descent
    on_split = np.repeat(np.array(_thresholds(model))[:, None], X.shape[1], axis=1)
    Q = np.vstack([_labeled(rng, 500)[0], X, on_split])
    Q[0, :] = np.nan
    assert _same_bits(predict_batch(model, Q), reference_cart_predict(model, Q))
    assert _same_bits(predict_batch(model, Q[3]), reference_cart_predict(model, Q[3]))


# --- row-exact predict ---------------------------------------------------------

N_ROWS = 20_000


def reference_mlp_probability(model, X):
    a = model.standardization.apply(np.atleast_2d(np.asarray(X, dtype=float)))
    for W, b in zip(model.weights, model.biases):
        a = reference_sigmoid(a @ W + b)
    return a[:, 0]


def one_row_at_a_time(reference, model, X):
    """The reference run on each row of X alone, as a one-row call runs."""
    return np.concatenate([reference(model, X[r : r + 1]) for r in range(X.shape[0])])


def _between_neighbours(model, rng, n_base, per_pair):
    """Queries near the midpoint of each of the first n_base training rows
    and its nearest other row, off the line between them: the two
    distances differ by a few ulps at most, so the rounding of the
    distance product decides which is nearer."""
    S = model.X[:n_base]
    d2 = ((S[:, None] - S[None]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    scale = np.where(model.standardization.std == 0.0, 1.0, model.standardization.std)
    queries = []
    for a, b in zip(S, S[d2.argmin(axis=1)]):
        u = (a - b) / np.linalg.norm(a - b)
        v = rng.normal(size=(per_pair, S.shape[1]))
        v -= (v @ u)[:, None] * u
        v *= rng.uniform(0.0, 0.3, size=(per_pair, 1)) * np.linalg.norm(a - b)
        queries.append(((a + b) / 2 + v) * scale + model.standardization.mean)
    return np.vstack(queries)


@pytest.mark.parametrize("k", [2, 4])
def test_knn_predict_is_row_exact(k):
    rng = np.random.default_rng(30 + k)
    base, labels = _labeled(rng, 120)
    # every training row three times with differing labels: a distance tie
    # straddles the k boundary of every query, and the lower row index
    # decides
    X = np.vstack([base, base, base])
    y = np.concatenate([labels, labels, 1 - labels]).astype(np.int8)
    model = train(LearnerConfig(algorithm="knn", knn_k=k), X, y)
    near_ties = _between_neighbours(model, rng, base.shape[0], 140)
    Q = np.vstack([near_ties, X, _labeled(rng, N_ROWS - near_ties.shape[0] - X.shape[0])[0]])
    assert Q.shape[0] == N_ROWS
    got = predict(model, Q)
    assert _same_bits(got, knn_oracle(model, Q))
    assert _same_bits(predict_batch(model, Q), got)
    assert 0 < got.sum() < N_ROWS


def _centered_mlp(rng, hidden):
    """A trained MLP whose output bias is shifted so that the median
    probability on random rows is 0.5: its decision boundary crosses them."""
    X, y = _labeled(rng, 400)
    model = train(LearnerConfig(algorithm="mlp", mlp_hidden=hidden, mlp_epochs=5, seed=3), X, y)
    p = np.median(mlp_probability(model, _labeled(rng, 2000)[0]))
    biases = model.biases[:-1] + (model.biases[-1] - np.log(p / (1.0 - p)),)
    return MlpModel(weights=model.weights, biases=biases, standardization=model.standardization)


def _near_half(model, rng, n):
    """Up to n rows, on both sides of the decision boundary and within a
    few ulps of it: bisect between random rows on either side."""
    lo, hi = _labeled(rng, n // 2)[0], _labeled(rng, n // 2)[0]
    swap = mlp_probability(model, lo) >= 0.5
    lo[swap], hi[swap] = hi[swap], lo[swap].copy()
    straddle = (mlp_probability(model, lo) < 0.5) & (mlp_probability(model, hi) >= 0.5)
    lo, hi = lo[straddle], hi[straddle]
    for _ in range(60):
        mid = (lo + hi) / 2
        up = mlp_probability(model, mid) >= 0.5
        hi[up], lo[~up] = mid[up], mid[~up]
    return np.vstack([lo, hi])


@pytest.mark.parametrize("hidden", [(16,), (16, 8)])
def test_mlp_predict_is_row_exact(hidden):
    rng = np.random.default_rng(len(hidden))
    model = _centered_mlp(rng, hidden)
    edge = _near_half(model, rng, N_ROWS)
    Q = np.vstack([edge, _labeled(rng, N_ROWS - edge.shape[0])[0]])
    assert edge.shape[0] > N_ROWS // 4 and Q.shape[0] == N_ROWS
    p = one_row_at_a_time(reference_mlp_probability, model, Q)
    assert (np.abs(p[: edge.shape[0]] - 0.5) < 1e-12).all()
    assert _same_bits(mlp_probability(model, Q), p)
    want = np.where(p >= 0.5, ABNORMAL, NORMAL).astype(np.int8)
    got = predict(model, Q)
    assert _same_bits(got, want)
    assert _same_bits(predict_batch(model, Q), want)
    assert 0 < got[: edge.shape[0]].sum() < edge.shape[0]


def test_cart_predict_is_row_exact():
    rng = np.random.default_rng(8)
    X, y = _labeled(rng, 400)
    model = train(LearnerConfig(algorithm="cart", cart_max_depth=8, cart_min_leaf=3), X, y)
    # every split's threshold planted in its feature column of a random
    # quarter of the rows: those rows sit exactly on the split
    Q = _labeled(rng, N_ROWS)[0]
    splits = np.flatnonzero(model.feature >= 0)
    for i in splits:
        Q[rng.random(N_ROWS) < 0.25, model.feature[i]] = model.threshold[i]
    on_split = (Q[:, model.feature[splits]] == model.threshold[splits]).any(axis=1)
    assert on_split.sum() > N_ROWS // 2
    want = one_row_at_a_time(reference_cart_predict, model, Q)
    assert _same_bits(predict(model, Q), want)
    assert _same_bits(predict_batch(model, Q), want)


@pytest.mark.parametrize("algorithm", ["knn", "cart", "mlp"])
def test_predict_of_zero_rows(algorithm):
    X, y = _labeled(np.random.default_rng(6), 60)
    model = train(LearnerConfig(algorithm=algorithm, mlp_epochs=2), X, y)
    for labels in (predict(model, X[:0]), predict_batch(model, X[:0])):
        assert labels.dtype == np.int8 and labels.shape == (0,)


def test_knn_of_zero_features():
    """With no features every distance is exactly zero: the exact tier
    takes every row, and the first k training rows by index vote."""
    y = np.array([0, 1, 0, 1, 1], dtype=np.int8)
    for k, want in ((1, 0), (2, 1), (3, 0), (5, 1)):
        model = train(LearnerConfig(algorithm="knn", knn_k=k), np.zeros((5, 0)), y)
        assert predict_batch(model, np.zeros((3, 0))).tolist() == [want] * 3, k
        assert predict(model, np.zeros((2, 0))).tolist() == [want] * 2, k
