"""Confusion accounting, the competition score, cross-validation, and
run statistics with seed derivation.

The confusion-matrix orientation treats normal as the positive row, which
is unusual but matches the competition's scoring convention:

    tp = actual normal,   predicted normal
    fn = actual normal,   predicted fault
    fp = actual fault,    predicted normal
    tn = actual fault,    predicted fault

The score averages the per-class error rates:

    score = 100 - 50 * fn / n_normal - 50 * fp / n_fault

which is 100 for a perfect predictor, 0 for an always-wrong one, and
centers at 50 for a chance predictor regardless of class imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import learners
from .errors import DegenerateFolds, EmptyClassInTest, InvalidK, LengthMismatch
from .learners import ABNORMAL, NORMAL, LearnerConfig


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fn: int
    fp: int
    tn: int

    @property
    def n_normal(self) -> int:
        return self.tp + self.fn

    @property
    def n_fault(self) -> int:
        return self.fp + self.tn


def _as_codes(labels: Sequence[int]) -> np.ndarray:
    codes = np.asarray(labels)
    if codes.dtype.kind not in "iu":
        raise ValueError(f"labels must be integer codes, got dtype {codes.dtype}")
    bad = (codes != NORMAL) & (codes != ABNORMAL)
    if bad.any():
        raise ValueError(f"label code must be 0 or 1, got {int(codes[bad][0])}")
    return codes.astype(np.int8, copy=False)


def confusion(actual: Sequence[int], predicted: Sequence[int]) -> ConfusionCounts:
    """Count the four cells of 0/1 label codes (learners.NORMAL, ABNORMAL)."""
    if len(actual) != len(predicted):
        raise LengthMismatch(len(actual), len(predicted))
    if len(actual) == 0:
        raise ValueError("cannot build a confusion matrix from zero labels")
    a = _as_codes(actual)
    p = _as_codes(predicted)
    a_normal = a == NORMAL
    p_normal = p == NORMAL
    return ConfusionCounts(
        tp=int(np.sum(a_normal & p_normal)),
        fn=int(np.sum(a_normal & ~p_normal)),
        fp=int(np.sum(~a_normal & p_normal)),
        tn=int(np.sum(~a_normal & ~p_normal)),
    )


def score(counts: ConfusionCounts) -> float:
    """Competition score in [0, 100]; see the module docstring."""
    if counts.n_normal < 1:
        raise EmptyClassInTest("normal")
    if counts.n_fault < 1:
        raise EmptyClassInTest("fault")
    return 100.0 - 50.0 * counts.fn / counts.n_normal - 50.0 * counts.fp / counts.n_fault


@dataclass(frozen=True)
class RunStatistics:
    runs: int
    mean: float
    std: float  # sample standard deviation (n-1); 0 for a single run


def run_statistics(scores: Sequence[float]) -> RunStatistics:
    values = np.asarray(scores, dtype=float)
    if values.size < 1:
        raise ValueError("need at least one score")
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return RunStatistics(runs=int(values.size), mean=float(values.mean()), std=std)


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic child seed from a master seed and an index path."""
    ss = np.random.SeedSequence([int(master_seed), *[int(k) for k in key]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def kfold_split(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle then contiguous split into k folds whose sizes
    differ by at most one."""
    if not 2 <= k <= n:
        raise InvalidK(k, n)
    perm = np.random.default_rng(seed).permutation(n)
    return list(np.array_split(perm, k))


def _draw_folds(y: np.ndarray, k: int, seed: int, attempts: int = 10) -> list[np.ndarray]:
    """The first of `attempts` seeded k-fold splits whose every training
    set holds both classes of the 0/1 codes y. A training set holds the
    classes whose totals its held-out fold does not exhaust."""
    totals = np.bincount(y, minlength=2)
    for attempt in range(attempts):
        folds = kfold_split(y.shape[0], k, derive_seed(seed, attempt))
        if all(np.count_nonzero(totals - np.bincount(y[fold], minlength=2)) == 2 for fold in folds):
            return folds
    raise DegenerateFolds(attempts)


def crossval_fold_scores(
    features: np.ndarray, labels: Sequence[int], cfg: LearnerConfig, k: int, seed: int
) -> list[float]:
    """Per-fold scores: train on k-1 folds, score the held-out fold.

    The k fold models come from one learners.train_many call, which checks
    every fold's training rows, in fold order, before it trains any, and
    trains MLPs in lockstep; each model is bitwise the one learners.train
    gives on its fold alone. Fold 0 has the fewest training rows, so a
    fold too small to train raises before any scoring, as fold by fold."""
    X = np.asarray(features, dtype=float)
    y = _as_codes(labels)
    folds = _draw_folds(y, k, seed)
    train_rows = [np.concatenate([folds[j] for j in range(k) if j != i]) for i in range(k)]
    models = learners.train_many(cfg, [(X[rows], y[rows]) for rows in train_rows])
    return [score(confusion(y[test], learners.predict_batch(model, X[test]))) for test, model in zip(folds, models)]
