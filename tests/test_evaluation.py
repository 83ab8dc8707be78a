import math
import re

import numpy as np
import pytest

from icewatch import learners
from icewatch.errors import DataError, InvalidConfig
from icewatch.evaluation import (
    ConfusionCounts,
    confusion,
    crossval_fold_scores,
    derive_seed,
    kfold_split,
    run_statistics,
    score,
)
from icewatch.learners import ABNORMAL, NORMAL, LearnerConfig
from icewatch.pipeline import PipelineConfig, _run_seeds
from icewatch.scada import Label

N, A = NORMAL, ABNORMAL


class TestConfusion:
    def test_four_cells_by_hand(self):
        c = confusion([N, N, A, A], [N, A, N, A])
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)

    def test_perfect_prediction(self):
        c = confusion([N, A, N], [N, A, N])
        assert c.fn == 0 and c.fp == 0

    def test_all_normal_on_all_fault(self):
        c = confusion([A] * 5, [N] * 5)
        assert c.fp == 5 and c.tn == 0

    def test_int_codes_accepted(self):
        c = confusion([0, 0, 1, 1], [0, 1, 0, 1])
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="^actual has 1 labels, predicted has 2$"):
            confusion([N], [N, A])

    def test_invalid_label_rejected(self):
        # only 0/1 codes are scored: neither Label enums nor other codes
        with pytest.raises(ValueError, match="integer codes"):
            confusion([Label.INVALID], [N])
        with pytest.raises(ValueError, match="integer codes"):
            confusion([Label.NORMAL], [N])
        with pytest.raises(ValueError, match="label code must be 0 or 1, got 2"):
            confusion([2], [N])

    def test_int_arrays_checked_at_once(self):
        actual = np.array([0, 0, 1, 1], dtype=np.int8)
        c = confusion(actual, np.array([0, 1, 0, 1], dtype=np.int64))
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)
        with pytest.raises(ValueError, match="label code must be 0 or 1, got 2"):
            confusion(actual, np.array([0, 1, 2, 1]))
        with pytest.raises(ValueError, match="label code must be 0 or 1, got 256"):
            confusion(actual, np.array([0, 256, 1, 1]))


class TestScore:
    def test_hand_value_exact(self):
        # fn=10 of 100 normals, fp=5 of 50 faults: 100 - 5 - 5 = 90, exactly
        assert score(ConfusionCounts(tp=90, fn=10, fp=5, tn=45)) == 90.0

    def test_perfect_and_worst(self):
        assert score(ConfusionCounts(tp=10, fn=0, fp=0, tn=5)) == 100.0
        assert score(ConfusionCounts(tp=0, fn=10, fp=5, tn=0)) == 0.0

    def test_count_scaling_invariance(self):
        base = ConfusionCounts(tp=8, fn=2, fp=3, tn=7)
        for m in (2, 3, 10):
            scaled = ConfusionCounts(tp=8 * m, fn=2 * m, fp=3 * m, tn=7 * m)
            assert score(scaled) == pytest.approx(score(base), rel=1e-12)

    def test_monotone_in_errors(self):
        for fn in range(10):
            s1 = score(ConfusionCounts(tp=10 - fn, fn=fn, fp=0, tn=5))
            s2 = score(ConfusionCounts(tp=9 - fn, fn=fn + 1, fp=0, tn=5))
            assert s2 < s1

    def test_range(self, rng):
        for _ in range(200):
            tp, fn, fp, tn = rng.integers(0, 50, size=4)
            if tp + fn == 0 or fp + tn == 0:
                continue
            value = score(ConfusionCounts(int(tp), int(fn), int(fp), int(tn)))
            assert 0.0 <= value <= 100.0

    def test_empty_class(self):
        with pytest.raises(DataError, match="^test set has no normal samples; score undefined$"):
            score(ConfusionCounts(tp=0, fn=0, fp=1, tn=1))
        with pytest.raises(DataError, match="^test set has no fault samples; score undefined$"):
            score(ConfusionCounts(tp=1, fn=1, fp=0, tn=0))


class TestRunStatistics:
    def test_two_scores(self):
        # sample std of {80, 90} is sqrt(50) = 7.0710678...
        stats = run_statistics([80.0, 90.0])
        assert stats.mean == 85.0
        assert stats.std == pytest.approx(math.sqrt(50.0), rel=1e-12)

    def test_single_run_std_zero(self):
        stats = run_statistics([42.0])
        assert stats.runs == 1 and stats.std == 0.0

    def test_constant_sequence(self):
        stats = run_statistics([90.0] * 5)
        assert stats.mean == 90.0 and stats.std == 0.0


class TestKfold:
    def test_exact_division(self):
        folds = kfold_split(10, 5, seed=0)
        assert [len(f) for f in folds] == [2, 2, 2, 2, 2]

    def test_remainder_distribution(self):
        folds = kfold_split(11, 5, seed=0)
        assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 3]

    def test_partition(self):
        folds = kfold_split(37, 4, seed=3)
        joined = np.concatenate(folds)
        assert sorted(joined.tolist()) == list(range(37))

    def test_deterministic(self):
        a = kfold_split(20, 4, seed=9)
        b = kfold_split(20, 4, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_invalid_k(self):
        with pytest.raises(InvalidConfig, match=re.escape("k=6 invalid for n=5 (need 2 <= k <= n)")):
            kfold_split(5, 6, seed=0)
        with pytest.raises(InvalidConfig, match=re.escape("k=1 invalid for n=5 (need 2 <= k <= n)")):
            kfold_split(5, 1, seed=0)


class TestCrossValidate:
    def _separable(self, rng, n=120):
        X = np.concatenate([rng.uniform(-1, -0.05, n // 2), rng.uniform(0.05, 1, n // 2)])[:, None]
        y = np.concatenate([np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)])
        perm = rng.permutation(n)
        return X[perm], y[perm]

    def test_separable_scores_100(self, rng):
        X, y = self._separable(rng)
        scores, _ = crossval_fold_scores(X, y, LearnerConfig(algorithm="cart"), k=5, seed=1)
        assert np.mean(scores) == 100.0

    def test_fold_scores_reproducible(self, rng):
        X, y = self._separable(rng)
        cfg = LearnerConfig(algorithm="knn")
        a, _ = crossval_fold_scores(X, y, cfg, k=5, seed=7)
        b, _ = crossval_fold_scores(X, y, cfg, k=5, seed=7)
        assert a == b and len(a) == 5

    def test_chance_labels_score_near_50(self, rng):
        X = rng.normal(size=(400, 4))
        y = (rng.uniform(size=400) < 0.5).astype(int)
        y[:2] = [0, 1]
        scores, _ = crossval_fold_scores(X, y, LearnerConfig(algorithm="knn"), k=5, seed=3)
        value = np.mean(scores)
        assert 35.0 <= value <= 65.0

    MODEL_ARRAYS = {
        "knn": lambda m: [m.X, m.y, m.standardization.mean, m.standardization.std],
        "cart": lambda m: list(m.root),  # the node table's nine arrays
        "mlp": lambda m: [*m.weights, *m.biases, m.standardization.mean, m.standardization.std],
    }

    @pytest.mark.parametrize("algorithm", sorted(MODEL_ARRAYS))
    def test_model_is_train_on_all_rows(self, algorithm):
        """The returned model is bitwise learners.train's on all rows: the
        MLP's trains in its folds' lockstep, where all rows lead the stack."""
        rng = np.random.default_rng(11)
        X = rng.normal(size=(203, 4)) * [1.0, 2.0, 0.5, 3.0]
        y = (X[:, 0] + rng.normal(scale=0.7, size=203) > 0).astype(np.int8)
        cfg = LearnerConfig(algorithm=algorithm, mlp_epochs=3, seed=5)
        _, got = crossval_fold_scores(X, y, cfg, k=5, seed=2)
        want = learners.train(cfg, X, y)
        for a, b in zip(self.MODEL_ARRAYS[algorithm](got), self.MODEL_ARRAYS[algorithm](want), strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_invalid_k_propagates(self, rng):
        X, y = self._separable(rng, n=8)
        with pytest.raises(InvalidConfig, match=re.escape("k=10 invalid for n=8 (need 2 <= k <= n)")):
            crossval_fold_scores(X, y, LearnerConfig(algorithm="knn"), k=10, seed=0)

    @pytest.mark.parametrize("batch", [20, 40])
    def test_batch_larger_than_fold_training_rows(self, rng, batch):
        """24 rows in 5 folds train on 19, 19, 19, 19 and 20 rows. Fold 0 is
        the first that cannot fill a batch, and its error is the one a
        fold-by-fold loop raises."""
        X, y = self._separable(rng, n=24)
        cfg = LearnerConfig(algorithm="mlp", mlp_batch_size=batch, mlp_epochs=1)
        with pytest.raises(DataError, match=re.escape(f"training needs at least {batch} samples, got 19")):
            crossval_fold_scores(X, y, cfg, k=5, seed=0)

    def test_degenerate_folds(self):
        # two samples, two folds: every training fold is single-class
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        with pytest.raises(
            DataError, match="^could not draw folds with both classes in every training fold after 10 attempts$"
        ):
            crossval_fold_scores(X, y, LearnerConfig(algorithm="knn", knn_k=1), k=2, seed=0)

    @pytest.mark.parametrize("bad", [-1, 256])
    def test_label_codes_checked_before_folds_are_drawn(self, rng, bad):
        # 256 would wrap to 0 as int8, -1 has no np.bincount bin
        X, y = self._separable(rng, n=20)
        y[3] = bad
        with pytest.raises(ValueError, match=f"label code must be 0 or 1, got {bad}"):
            crossval_fold_scores(X, y, LearnerConfig(algorithm="knn"), k=5, seed=0)


class TestRepeatedRuns:
    def test_constant_experiment(self):
        stats = run_statistics([90.0] * 5)
        assert stats.mean == 90.0 and stats.std == 0.0 and stats.runs == 5

    def test_child_seeds_deterministic_and_distinct(self):
        seeds = [derive_seed(42, i) for i in range(10)]
        assert seeds == [derive_seed(42, i) for i in range(10)]
        assert len(set(seeds)) == 10
        assert derive_seed(42, 0, 1) != derive_seed(42, 1, 0)

    def test_experiment_receives_derived_seeds(self):
        cfg = PipelineConfig(variant="traditional", learner=LearnerConfig(algorithm="knn"), n_runs=3, master_seed=9)
        assert _run_seeds(cfg) == [derive_seed(9, i) for i in range(3)]
