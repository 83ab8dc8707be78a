import json
import re
import typing
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mlp_objective import mlp_gradient, mlp_loss
from icewatch import learners, schema
from icewatch.errors import DataError, InvalidConfig
from icewatch.learners import (
    ABNORMAL,
    NORMAL,
    CartModel,
    KnnModel,
    LearnerConfig,
    MlpModel,
    StandardizationParams,
    check_input_width,
    mlp_probability,
    model_from_dict,
    model_to_dict,
    predict,
    predict_batch,
    standardize_fit,
    train,
    train_many,
)


def identity_params(d):
    return StandardizationParams(mean=np.zeros(d), std=np.ones(d))


def separable_1d(rng, n=50):
    half = n // 2
    neg = rng.uniform(-1.0, -0.02, size=half)
    pos = rng.uniform(0.02, 1.0, size=n - half)
    X = np.concatenate([neg, pos])[:, None]
    y = np.concatenate([np.zeros(half, dtype=np.int8), np.ones(n - half, dtype=np.int8)])
    return X, y


class TestStandardize:
    def test_constant_column_passthrough(self):
        params = standardize_fit(np.array([[2.0], [2.0], [2.0]]))
        assert params.mean[0] == 2.0 and params.std[0] == 0.0
        out = params.apply(np.array([[5.0]]))
        assert out[0, 0] == 3.0  # shifted but not scaled

    def test_two_point_column(self):
        params = standardize_fit(np.array([[0.0], [2.0]]))
        assert params.mean[0] == 1.0 and params.std[0] == 1.0  # population std

    def test_apply_after_fit_standardizes(self, rng):
        X = rng.normal(3.0, 2.5, size=(100, 4))
        out = standardize_fit(X).apply(X)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_empty(self):
        with pytest.raises(DataError, match="^matrix has no rows$"):
            standardize_fit(np.empty((0, 3)))


class TestConfigValidation:
    def test_zero_epochs_rejected(self):
        with pytest.raises(InvalidConfig):
            LearnerConfig(algorithm="mlp", mlp_epochs=0)

    def test_bad_algorithm(self):
        with pytest.raises(InvalidConfig):
            LearnerConfig(algorithm="svm")

    def test_bad_k(self):
        with pytest.raises(InvalidConfig):
            LearnerConfig(algorithm="knn", knn_k=0)

    def test_bad_hidden(self):
        with pytest.raises(InvalidConfig):
            LearnerConfig(algorithm="mlp", mlp_hidden=())


class TestTrainChecks:
    def test_single_class(self, rng):
        X = rng.normal(size=(20, 3))
        for labels in (np.zeros(20, dtype=int), np.ones(20, dtype=int)):
            with pytest.raises(DataError, match="^dataset contains only one class$"):
                train(LearnerConfig(algorithm="knn"), X, labels)

    def test_labels_outside_0_1_listed(self, rng):
        X = rng.normal(size=(6, 3))
        with pytest.raises(ValueError, match=re.escape("labels must be 0 or 1, got [-1, 0, 1, 2]")):
            train(LearnerConfig(algorithm="knn", knn_k=1), X, [2, 0, 1, -1, 2, 0])

    def test_too_few_for_knn(self, rng):
        X = rng.normal(size=(2, 3))
        with pytest.raises(DataError, match="^training needs at least 3 samples, got 2$"):
            train(LearnerConfig(algorithm="knn", knn_k=3), X, np.array([0, 1]))

    def test_too_few_for_cart(self, rng):
        X = rng.normal(size=(6, 2))
        with pytest.raises(DataError, match="^training needs at least 10 samples, got 6$"):
            train(LearnerConfig(algorithm="cart", cart_min_leaf=5), X, np.array([0, 1] * 3))

    def test_too_few_for_mlp(self, rng):
        X = rng.normal(size=(8, 2))
        with pytest.raises(DataError, match="^training needs at least 32 samples, got 8$"):
            train(LearnerConfig(algorithm="mlp", mlp_batch_size=32), X, np.array([0, 1] * 4))

    def test_empty(self):
        with pytest.raises(DataError, match="^matrix has no rows$"):
            train(LearnerConfig(algorithm="knn"), np.empty((0, 3)), [])

    @pytest.mark.parametrize("algorithm", ["knn", "cart", "mlp"])
    def test_train_many_checks_every_set_before_training(self, rng, monkeypatch, algorithm):
        """The third set is single-class and the fourth too small: the third
        set's error comes first, before any model trains."""
        def fail(*args):
            raise AssertionError("trained before every set was checked")

        monkeypatch.setattr(learners, "train", fail)
        monkeypatch.setattr(learners, "_train_mlps", fail)
        X = rng.normal(size=(40, 3))
        good = (X, np.array([0, 1] * 20))
        sets = [good, good, (X, np.zeros(40, dtype=int)), (X[:4], np.array([0, 1] * 2))]
        with pytest.raises(DataError, match="^dataset contains only one class$"):
            train_many(LearnerConfig(algorithm=algorithm, mlp_batch_size=8), sets)

    def test_train_many_of_no_sets(self):
        assert train_many(LearnerConfig(algorithm="mlp"), []) == []


class TestKnn:
    def test_hand_worked_vote(self):
        # training: two normals near the origin, three abnormals near (1, 1);
        # the three nearest neighbors of (0.9, 1.0) are all abnormal
        X = np.array([[0, 0], [0, 0.1], [1, 1], [1, 0.9], [1, 1.1]], dtype=float)
        y = np.array([NORMAL, NORMAL, ABNORMAL, ABNORMAL, ABNORMAL], dtype=np.int8)
        model = KnnModel(k=3, X=X, y=y, standardization=identity_params(2))
        assert predict(model, np.array([0.9, 1.0])) == ABNORMAL

    def test_memorizes_training_rows(self, rng):
        X = rng.normal(size=(20, 4))
        y = np.array([0, 1] * 10, dtype=np.int8)
        model = train(LearnerConfig(algorithm="knn", knn_k=3), X, y)
        assert model.X.shape == (20, 4)
        assert np.array_equal(model.y, y)
        assert np.allclose(model.X, model.standardization.apply(X))

    def test_k1_reproduces_training_labels(self, rng):
        X = rng.normal(size=(40, 5))
        y = np.array([0, 1] * 20, dtype=np.int8)
        model = train(LearnerConfig(algorithm="knn", knn_k=1), X, y)
        assert np.array_equal(predict_batch(model, X), y)

    def test_affine_invariance_of_predictions(self, rng):
        X = rng.normal(size=(60, 6))
        y = (rng.uniform(size=60) < 0.5).astype(np.int8)
        y[:2] = [0, 1]
        queries = rng.normal(size=(30, 6))
        base = predict_batch(train(LearnerConfig(algorithm="knn"), X, y), queries)
        scale = rng.uniform(0.1, 4.0, size=6) * rng.choice([-1.0, 1.0], size=6)
        shift = rng.normal(size=6)
        rescaled = predict_batch(
            train(LearnerConfig(algorithm="knn"), X * scale + shift, y), queries * scale + shift
        )
        assert np.array_equal(base, rescaled)

    def test_distance_tie_broken_by_lower_index(self):
        # two training points equidistant from the query with opposite labels
        X = np.array([[1.0], [-1.0]])
        for first_label in (NORMAL, ABNORMAL):
            y = np.array([first_label, 1 - first_label], dtype=np.int8)
            model = KnnModel(k=1, X=X, y=y, standardization=identity_params(1))
            got = predict_batch(model, np.array([[0.0]]))[0]
            assert got == first_label

    def test_even_k_class_tie_goes_abnormal(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([NORMAL, ABNORMAL], dtype=np.int8)
        model = KnnModel(k=2, X=X, y=y, standardization=identity_params(1))
        assert predict(model, np.array([0.5])) == ABNORMAL


def _cart_doc(root, max_depth=12, min_leaf=5):
    return {"format": 1, "kind": "cart", "max_depth": max_depth, "min_leaf": min_leaf, "root": root}


_CART_COLUMNS = ("n", "impurity", "klass", "p_normal", "p_abnormal", "feature", "threshold", "left", "right")


class TestCart:
    def test_separable_fixture_20_seeds(self):
        cfg = LearnerConfig(algorithm="cart")
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X, y = separable_1d(rng)
            model = train(cfg, X, y)
            assert np.array_equal(predict_batch(model, X), y)
            assert model.root.feature[0] >= 0  # the root splits
            assert X[y == 0].max() < model.root.threshold[0] < X[y == 1].min()

    def test_single_split_tree_descent(self):
        leaf_n = {"n": 5, "impurity": 0.0, "class": NORMAL, "proportions": [1.0, 0.0]}
        leaf_a = {"n": 5, "impurity": 0.0, "class": ABNORMAL, "proportions": [0.0, 1.0]}
        root = {
            "n": 10, "impurity": 0.5, "class": ABNORMAL, "proportions": [0.5, 0.5],
            "feature": 0, "threshold": 0.0, "left": leaf_n, "right": leaf_a,
        }
        model = model_from_dict(_cart_doc(root))
        assert isinstance(model, CartModel)
        assert model.root.feature.tolist() == [0, -1, -1]
        assert (model.root.left[0], model.root.right[0]) == (1, 2)
        assert predict(model, np.array([-1.0, 9.9])) == NORMAL
        assert predict(model, np.array([0.0, -9.9])) == ABNORMAL  # value < threshold goes left

    def test_every_point_reaches_a_leaf_and_gini_decreases(self, rng):
        X = rng.normal(size=(200, 4))
        y = (X[:, 1] + 0.3 * rng.normal(size=200) > 0).astype(np.int8)
        y[:2] = [0, 1]
        model = train(LearnerConfig(algorithm="cart", cart_max_depth=6), X, y)
        tree = model.root
        internal = np.flatnonzero(tree.feature >= 0)
        assert internal.size > 0
        for i in internal.tolist():
            left, right = tree.left[i], tree.right[i]
            weighted = (tree.n[left] * tree.impurity[left] + tree.n[right] * tree.impurity[right]) / tree.n[i]
            assert weighted <= tree.impurity[i] + 1e-12
            assert tree.n[left] >= model.min_leaf and tree.n[right] >= model.min_leaf
        preds = predict_batch(model, X)
        assert preds.shape == (200,)  # every row routed

    def test_max_depth_respected(self, rng):
        X = rng.normal(size=(300, 3))
        y = (rng.uniform(size=300) < 0.5).astype(np.int8)
        y[:2] = [0, 1]
        model = train(LearnerConfig(algorithm="cart", cart_max_depth=3), X, y)
        tree = model.root
        depth = np.zeros(tree.n.size, dtype=int)
        for i in np.flatnonzero(tree.feature >= 0).tolist():  # a parent's row precedes its children's
            depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
        assert depth.max() <= 3

    def test_node_table_invariants(self, rng):
        X = rng.normal(size=(400, 5))
        y = (X[:, 0] - X[:, 2] + 0.5 * rng.normal(size=400) > 0).astype(np.int8)
        model = train(LearnerConfig(algorithm="cart", cart_max_depth=7, cart_min_leaf=3), X, y)
        tree = model.root
        internal = np.flatnonzero(tree.feature >= 0)
        leaves = np.flatnonzero(tree.feature < 0)
        left, right = tree.left[internal], tree.right[internal]
        assert internal.size >= 10 and tree.n[0] == 400
        # depth first, left subtree first: every row but the root is the child of exactly one row before it
        assert (left == internal + 1).all() and (right > left).all()
        assert sorted([*left.tolist(), *right.tolist()]) == list(range(1, tree.n.size))
        assert (tree.n[left] + tree.n[right] == tree.n[internal]).all()
        assert (tree.left[leaves] == -1).all() and (tree.right[leaves] == -1).all()
        assert np.abs(tree.p_normal + tree.p_abnormal - 1.0).max() <= 1e-15
        assert tree.n[leaves].sum() == 400

        text = json.dumps(model_to_dict(model))
        back = model_from_dict(json.loads(text))
        for name in _CART_COLUMNS:
            a, b = getattr(model.root, name), getattr(back.root, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert (back.max_depth, back.min_leaf) == (7, 3)
        assert json.dumps(model_to_dict(back)) == text

    def test_decoding_checks_each_node_once(self, monkeypatch):
        """A node checks its own fields as it is built, not its subtrees
        again, which would be quadratic on a chain."""
        leaf = {"n": 5, "impurity": 0.0, "class": NORMAL, "proportions": [1.0, 0.0]}
        root = leaf
        for _ in range(200):
            root = {**leaf, "n": 10, "feature": 0, "threshold": 0.0, "left": root, "right": leaf}
        checked = []
        real_check = schema.check

        def counting_check(config, prefix=""):
            checked.append(type(config).__name__)
            real_check(config, prefix)

        monkeypatch.setattr(schema, "check", counting_check)
        monkeypatch.setattr(learners, "check", counting_check)
        model = model_from_dict(_cart_doc(root))
        assert model.root.n.size == 401 and model.root.feature[:200].tolist() == [0] * 200
        assert checked.count("_Node") == 401

    @pytest.mark.parametrize(
        "a, b",
        [(1.0, np.nextafter(1.0, 2.0)), (1e308, 1.5e308), (-1.5e308, -1e308)],
        ids=["adjacent", "huge", "huge-negative"],
    )
    def test_split_between_adjacent_or_huge_values(self, a, b):
        # the midpoint of a and b rounds to a, or overflows to +-inf: the
        # threshold must still fall in (a, b] so that neither child is empty
        X = np.array([[a], [a], [a], [b], [b], [b]])
        y = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train(LearnerConfig(algorithm="cart", cart_min_leaf=1), X, y)
        assert model.root.feature.tolist() == [0, -1, -1]
        assert a < model.root.threshold[0] <= b
        assert model.root.n.tolist() == [6, 3, 3] and model.root.impurity[1:].tolist() == [0.0, 0.0]
        assert np.array_equal(predict_batch(model, X), y)

    def test_split_below_infinity_writes_and_reads_back(self):
        # a split between a finite value and inf has the threshold +inf, which
        # the document writes as Infinity
        X = np.array([[0.0], [1.0], [np.inf], [np.inf]])
        y = np.array([0, 0, 1, 1], dtype=np.int8)
        model = train(LearnerConfig(algorithm="cart", cart_min_leaf=1), X, y)
        assert model.root.threshold[0] == np.inf
        text = json.dumps(model_to_dict(model))
        assert '"threshold": Infinity' in text
        back = model_from_dict(json.loads(text))
        assert back.root.threshold.tobytes() == model.root.threshold.tobytes()
        assert predict(back, X).tolist() == predict(model, X).tolist() == y.tolist()

    def test_deterministic(self, rng):
        X = rng.normal(size=(100, 4))
        y = (X[:, 0] > 0).astype(np.int8)
        y[:2] = [0, 1]
        cfg = LearnerConfig(algorithm="cart")
        assert model_to_dict(train(cfg, X, y)) == model_to_dict(train(cfg, X, y))


class TestMlp:
    def test_zero_weights_predict_abnormal(self):
        model = MlpModel(
            weights=(np.zeros((3, 4)), np.zeros((4, 1))),
            biases=(np.zeros(4), np.zeros(1)),
            activation="sigmoid",
            standardization=identity_params(3),
        )
        x = np.array([0.3, -0.2, 0.5])
        assert mlp_probability(model, x[None, :])[0] == 0.5
        assert predict(model, x) == ABNORMAL  # p >= 0.5 rule

    def test_near_perfect_predictions_have_tiny_gradient(self):
        # hand-built net that saturates to the correct label on x = +-1
        model = MlpModel(
            weights=(np.array([[100.0]]), np.array([[200.0]])),
            biases=(np.zeros(1), np.array([-100.0])),
            activation="sigmoid",
            standardization=identity_params(1),
        )
        X = np.array([[-1.0], [1.0], [1.0], [-1.0]])
        y = [0, 1, 1, 0]
        grads_w, grads_b = mlp_gradient(model, X, y)
        total = sum(float(np.abs(g).sum()) for g in grads_w + grads_b)
        assert total < 1e-10

    def test_duplicated_batch_same_gradient(self, rng):
        model = MlpModel(
            weights=(rng.normal(0, 0.3, (4, 5)), rng.normal(0, 0.3, (5, 1))),
            biases=(rng.normal(0, 0.1, 5), rng.normal(0, 0.1, 1)),
            activation="sigmoid",
            standardization=identity_params(4),
        )
        X = rng.normal(size=(6, 4))
        y = [0, 1, 0, 1, 1, 0]
        gw1, gb1 = mlp_gradient(model, X, y)
        gw2, gb2 = mlp_gradient(model, np.vstack([X, X]), y + y)
        for a, b in zip(gw1 + gb1, gw2 + gb2):
            assert np.allclose(a, b, atol=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(5):
            model = MlpModel(
                weights=(rng.normal(0, 0.2, (3, 4)), rng.normal(0, 0.2, (4, 1))),
                biases=(rng.normal(0, 0.1, 4), rng.normal(0, 0.1, 1)),
                activation="sigmoid",
            standardization=identity_params(3),
            )
            X = rng.normal(size=(5, 3))
            y = list((rng.uniform(size=5) < 0.5).astype(int))
            grads_w, grads_b = mlp_gradient(model, X, y)
            h = 1e-5
            for layer in range(2):
                W = model.weights[layer]
                for idx in np.ndindex(*W.shape):
                    Wp = [w.copy() for w in model.weights]
                    Wm = [w.copy() for w in model.weights]
                    Wp[layer][idx] += h
                    Wm[layer][idx] -= h
                    lp = mlp_loss(replace(model, weights=tuple(Wp)), X, y)
                    lm = mlp_loss(replace(model, weights=tuple(Wm)), X, y)
                    fd = (lp - lm) / (2 * h)
                    assert grads_w[layer][idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_full_batch_loss_non_increasing_small_lr(self, rng):
        X, y = separable_1d(rng, n=60)
        cfg = LearnerConfig(
            algorithm="mlp",
            mlp_learning_rate=0.001,
            mlp_epochs=1,
            mlp_batch_size=60,
            seed=3,
        )
        import dataclasses

        losses = []
        model = None
        for epochs in range(1, 30):
            model = train(dataclasses.replace(cfg, mlp_epochs=epochs), X, y)
            losses.append(mlp_loss(model, X, y))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_deterministic(self, rng):
        X = rng.normal(size=(64, 5))
        y = (X[:, 2] > 0).astype(np.int8)
        y[:2] = [0, 1]
        cfg = LearnerConfig(algorithm="mlp", mlp_epochs=5, seed=11)
        m1, m2 = train(cfg, X, y), train(cfg, X, y)
        for a, b in zip(m1.weights, m2.weights):
            assert np.array_equal(a, b)

    def test_learns_separable_data(self, rng):
        X, y = separable_1d(rng, n=200)
        cfg = LearnerConfig(algorithm="mlp", mlp_epochs=200, mlp_batch_size=32, seed=0)
        model = train(cfg, X, y)
        assert (predict_batch(model, X) == y).mean() > 0.95


class TestSerialization:
    @pytest.mark.parametrize("algorithm", ["knn", "cart", "mlp"])
    def test_round_trip_predictions(self, algorithm, rng):
        X = rng.normal(size=(64, 4))
        y = (X[:, 0] + 0.2 * rng.normal(size=64) > 0).astype(np.int8)
        y[:2] = [0, 1]
        cfg = LearnerConfig(algorithm=algorithm, mlp_epochs=10)
        model = train(cfg, X, y)
        back = model_from_dict(model_to_dict(model))
        queries = rng.normal(size=(20, 4))
        assert np.array_equal(predict_batch(model, queries), predict_batch(back, queries))

    def test_knn_row_norms_cached_not_serialized(self, rng):
        X = rng.normal(size=(64, 4))
        y = (X[:, 0] > 0).astype(np.int8)
        model = train(LearnerConfig(algorithm="knn"), X, y)
        assert model.sq_norms.tobytes() == np.einsum("ij,ij->i", model.X, model.X).tobytes()
        doc = model_to_dict(model)
        assert set(doc) == {"format", "kind", "k", "X", "y", "standardization"}
        back = model_from_dict(json.loads(json.dumps(doc)))
        assert back.sq_norms.tobytes() == model.sq_norms.tobytes()
        # the screens' training side, [-2t, 1, |t|^2], is derived the same way
        assert model.screen32.dtype == np.float32 and model.screen32.shape == (64, 6)
        assert back.screen32.tobytes() == model.screen32.tobytes()
        assert back.screen64.tobytes() == model.screen64.tobytes()
        assert back.max_sq_norm == model.max_sq_norm == model.sq_norms.max()

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidConfig):
            model_from_dict({"format": 1, "kind": "forest"})
        with pytest.raises(InvalidConfig):
            model_from_dict({"format": 99, "kind": "knn"})


def _trained_doc(algorithm):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(np.int8)
    y[:2] = [0, 1]
    cfg = LearnerConfig(algorithm=algorithm, mlp_hidden=(4,), mlp_epochs=2, cart_min_leaf=2)
    return json.loads(json.dumps(model_to_dict(train(cfg, X, y))))


def _two_outputs(doc):
    for row in doc["weights"][-1]:
        row.append(0.0)
    doc["biases"][-1].append(0.0)


# (algorithm, edit of the serialized model, expected part of the message)
MALFORMED_MODELS = {
    "knn-rows-vs-labels": ("knn", lambda d: d["y"].pop(), "training rows but"),
    "knn-k-zero": ("knn", lambda d: d.update(k=0), "model: k must be >= 1, got 0"),
    "knn-k-above-n": ("knn", lambda d: d.update(k=41), "k must be an integer in 1..40"),
    "knn-k-string": ("knn", lambda d: d.update(k="3"), "model.k: expected int, got '3'"),
    "knn-label-2": ("knn", lambda d: d["y"].__setitem__(0, 2), "labels must be 0 or 1"),
    "knn-ragged-X": ("knn", lambda d: d["X"][0].pop(), "model.X: expected a numeric array"),
    "knn-X-1d": ("knn", lambda d: d.update(X=d["X"][0]), "model.X: expected 2 dimensions, got shape (3,)"),
    "knn-std-length": ("knn", lambda d: d["standardization"]["std"].pop(), "3 means but 2 deviations"),
    "mlp-first-fan-in": ("mlp", lambda d: d["weights"][0].pop(), "layer 0 has weights (2, 4)"),
    "mlp-bias-length": ("mlp", lambda d: d["biases"][0].pop(), "layer 0 has weights (3, 4) and biases (3,)"),
    "mlp-last-fan-out": ("mlp", _two_outputs, "the last layer must have one output, got 2"),
    "mlp-no-layers": ("mlp", lambda d: d.update(weights=[], biases=[]), "weights and biases must be arrays"),
    "cart-negative-feature": ("cart", lambda d: d["root"].update(feature=-1), "model.root: feature must be >= 0, got -1"),
    "cart-node-not-object": ("cart", lambda d: d["root"].update(left=[1]), "model.root.left: expected object, got [1]"),
    "cart-threshold-list": ("cart", lambda d: d["root"].update(threshold=[0.5]), "model.root.threshold: expected float"),
    "cart-max-depth-inf": ("cart", lambda d: d.update(max_depth=float("inf")), "model.max_depth: expected int, got inf"),
    "cart-class-3": ("cart", lambda d: d["root"].update({"class": 3}), "model.root: class must be one of 0, 1, got 3"),
    # JSON integers and numbers only: nothing is coerced
    "cart-feature-float": ("cart", lambda d: d["root"].update(feature=1.7), "model.root.feature: expected int, got 1.7"),
    "cart-threshold-string": ("cart", lambda d: d["root"].update(threshold="nan"), "threshold: expected float, got 'nan'"),
    "cart-threshold-nan": ("cart", lambda d: d["root"].update(threshold=float("nan")), "threshold must be a finite number"),
    "cart-class-bool": ("cart", lambda d: d["root"].update({"class": True}), "model.root.class: expected int, got True"),
    "cart-n-string": ("cart", lambda d: d["root"].update(n="10"), "model.root.n: expected int, got '10'"),
    "cart-impurity-string": ("cart", lambda d: d["root"].update(impurity="0.5"), "impurity: expected float, got '0.5'"),
    "cart-proportion-bool": (
        "cart", lambda d: d["root"]["proportions"].__setitem__(0, False), "proportions[0]: expected float, got False",
    ),
    "cart-proportions-one": ("cart", lambda d: d["root"]["proportions"].pop(), "proportions: expected 2 items, got 1"),
    "cart-min-leaf-float": ("cart", lambda d: d.update(min_leaf=5.9), "model.min_leaf: expected int, got 5.9"),
    "cart-max-depth-string": ("cart", lambda d: d.update(max_depth="12"), "model.max_depth: expected int, got '12'"),
    # a missing key is named, not leaked as a KeyError
    "cart-no-root": ("cart", lambda d: d.pop("root"), "model.root: missing"),
    "cart-split-without-left": (
        "cart", lambda d: d["root"].pop("left"), "model.root: a split needs feature, threshold, left and right, got no left",
    ),
    "knn-no-X": ("knn", lambda d: d.pop("X"), "model.X: missing"),
    "mlp-no-standardization": ("mlp", lambda d: d.pop("standardization"), "model.standardization: missing"),
    # fields the document declares, each once loaded unchecked
    "mlp-activation-relu": ("mlp", lambda d: d.update(activation="relu"), "activation must be one of 'sigmoid', got 'relu'"),
    "mlp-no-activation": ("mlp", lambda d: d.pop("activation"), "model.activation: missing"),
    "cart-max-depth-negative": ("cart", lambda d: d.update(max_depth=-5), "model: max_depth must be >= 1, got -5"),
    "cart-min-leaf-zero": ("cart", lambda d: d.update(min_leaf=0), "model: min_leaf must be >= 1, got 0"),
    "knn-std-negative": (
        "knn", lambda d: d["standardization"]["std"].__setitem__(0, -1.0), "std must be >= 0 or NaN, got -1.0",
    ),
    "mlp-std-negative": (
        "mlp", lambda d: d["standardization"]["std"].__setitem__(2, -0.5), "std must be >= 0 or NaN, got -0.5",
    ),
    "knn-unknown-key": ("knn", lambda d: d.update(classes=[0, 1]), "model.classes: unknown key"),
    "knn-label-beyond-int8": ("knn", lambda d: d["y"].__setitem__(0, 257), "model.y: integers outside int8"),
    "knn-label-float": ("knn", lambda d: d["y"].__setitem__(0, 1.0), "model.y: expected a numeric array"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_rejected(case):
    algorithm, edit, message = MALFORMED_MODELS[case]
    doc = _trained_doc(algorithm)
    model_from_dict(doc)  # the unedited document loads
    edit(doc)
    with pytest.raises(InvalidConfig, match=re.escape(message)):
        model_from_dict(doc)


@pytest.mark.parametrize("algorithm", ["knn", "cart", "mlp"])
def test_predict_returns_the_int_code(algorithm):
    """predict labels a matrix with an int8 array holding, per row, the
    0/1 code that a one-row call returns."""
    model = model_from_dict(_trained_doc(algorithm))
    X = np.random.default_rng(3).normal(size=(8, 3))
    codes = predict(model, X)
    assert codes.dtype == np.int8 and codes.shape == (8,)
    assert set(codes.tolist()) <= {NORMAL, ABNORMAL}
    assert codes.tolist() == [int(predict_batch(model, x)[0]) for x in X]
    empty = predict(model, X[:0])
    assert empty.dtype == np.int8 and empty.shape == (0,)


def test_each_model_is_its_own_document():
    """model_to_dict and model_from_dict read and write each model as
    itself: no adapter class stands between a kind's document and its
    model."""
    assert set(learners._DOCUMENTS.values()) == set(typing.get_args(learners.TrainedModel))


@pytest.mark.parametrize("algorithm", ["knn", "cart", "mlp"])
def test_input_width_check(algorithm):
    model = model_from_dict(_trained_doc(algorithm))
    check_input_width(model, 3)
    with pytest.raises(InvalidConfig):
        check_input_width(model, 2 if algorithm != "cart" else int(model.root.feature.max()))
