"""Preprocessing: invalid removal, moving-average denoising, class balancing.

The pipeline order is drop_invalid -> denoise -> balance. Denoising
smooths all 26 continuous channels (time and group never) with a trailing
(causal) moving average and drops the first window-1 records so that
every surviving record is backed by a full window; the survivor keeps the
time, group, and label of the window's most recent raw record, also when
the window mixes labels. All randomness is injected through explicit
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .scada import INVALID_CODE, LabeledDataset
from .schema import at_least, check, one_of


@dataclass(frozen=True)
class DenoiseConfig:
    window: int = field(default=10, metadata=at_least(1))

    def __post_init__(self):
        check(self)


@dataclass(frozen=True)
class BalanceConfig:
    method: str = field(default="under", metadata=one_of("under", "over"))
    seed: int = field(default=0, metadata=at_least(0))

    def __post_init__(self):
        check(self)


def drop_invalid(dataset: LabeledDataset) -> LabeledDataset:
    """Keep only normal and abnormal records, preserving order."""
    return dataset.take(dataset.label != INVALID_CODE)


def moving_average(channels: np.ndarray, window: int) -> np.ndarray:
    """The smoothing kernel of training and prediction, over a channel
    matrix float64[n, 26] with n >= window: row i of the result is the
    mean of rows i .. i+window-1 of `channels`."""
    # C order: the memory layout sets the summation order of the mean, and
    # the pinned outputs depend on its last bit
    return sliding_window_view(np.ascontiguousarray(channels), window, axis=0).mean(axis=-1)


def denoise_dataset(dataset: LabeledDataset, cfg: DenoiseConfig) -> LabeledDataset:
    """Replace every channel by its trailing moving average: output
    record i carries mean(channel[i : i+window]).

    The first window-1 records are dropped; a window larger than the
    dataset raises a DataError instead of returning nothing.
    Each surviving record keeps the time, group and label of the most
    recent raw record in its window (causal semantics), whatever labels
    the window's older records carry.
    """
    n = len(dataset)
    w = cfg.window
    if w > n:
        raise DataError(f"moving-average window {w} exceeds series length {n}")
    if w == 1:
        return dataset
    return replace(dataset.take(slice(w - 1, None)), channels=moving_average(dataset.channels, w))


def _class_rows(is_abnormal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The abnormal and the normal row indices of a mask; a class without
    rows raises."""
    is_abnormal = np.asarray(is_abnormal, dtype=bool)
    abnormal = np.flatnonzero(is_abnormal)
    normal = np.flatnonzero(~is_abnormal)
    for label, rows in (("abnormal", abnormal), ("normal", normal)):
        if rows.size == 0:
            raise DataError(f"dataset has no {label} records")
    return abnormal, normal


def undersample_order(is_abnormal: np.ndarray, seed: int) -> np.ndarray:
    """Index order for under-sampling: all abnormal rows plus an equal-size
    uniform sample of normal rows (without replacement), shuffled."""
    abnormal, normal = _class_rows(is_abnormal)
    if normal.size < abnormal.size:
        raise DataError(f"cannot under-sample: {normal.size} normal < {abnormal.size} abnormal")
    rng = np.random.default_rng(seed)
    chosen = normal[rng.choice(normal.size, size=abnormal.size, replace=False)]
    combined = np.concatenate([abnormal, chosen])
    return combined[rng.permutation(combined.size)]


def oversample_order(is_abnormal: np.ndarray, seed: int) -> np.ndarray:
    """Index order for over-sampling: original rows followed by minority
    rows re-drawn with replacement until the classes balance. Already
    balanced input comes back unchanged."""
    abnormal, normal = _class_rows(is_abnormal)
    if abnormal.size == normal.size:
        return np.arange(len(is_abnormal))
    minority = abnormal if abnormal.size < normal.size else normal
    need = abs(normal.size - abnormal.size)
    rng = np.random.default_rng(seed)
    extra = minority[rng.integers(0, minority.size, size=need)]
    return np.concatenate([np.arange(len(is_abnormal)), extra])

