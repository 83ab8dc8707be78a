"""End-to-end flows: the traditional baseline and the re-engineered,
physics-gated pipeline, plus the deployable model bundle.

Both flows run one loop over named parts. A part is the training rows,
test rows and seed key of one model. Per seeded run, every part is
balanced by the configured under- or over-sampling; one
crossval_fold_scores call cross-validates it on its balanced training set
and trains its model on all of that set, and the model is scored on the
part's test rows.

Traditional flow: after dropping invalid records and denoising, the single
part "all" (seed key ()) trains on the whole training turbine and is
scored on the whole (invalid-dropped, denoised, unbalanced) test turbine.

Re-engineered flow: the traditional flow plus two gates, both on the
feature matrix. After the same preprocessing, the strong rule filters
training rows down to icing candidates (rules.strong_rule_filter;
everything else is excluded from training), and rules.segment(X,
threshold) splits the candidates at the config's segment_threshold into
the parts "low" (seed key (0,)) and "high" (seed key (1,)), each in row
order. The test turbine is routed by rules.gate(X, rule, threshold) in
_route and labeled by _label, as predict_stream labels a stream: rule
failures are predicted normal outright, candidates by their part's model.
Scores are reported per part, on the rows routed to it, and pooled over
the whole test set; the pooled CV score is the mean of the parts'.

Seed derivation, recorded in every report: run i uses
run_seed = derive_seed(master_seed, i); a part with seed key `key`
balances with derive_seed(balance.seed, i, *key), shuffles its folds with
derive_seed(run_seed, 1, *key) and seeds its learner with
derive_seed(run_seed, 2, *key). The bundle trains each part once, as run
i = n_runs would. Reports carry a config hash and all seeds, and contain
no timestamps, so identical configs reproduce byte-identical report files.

A bundle stores the model of each part under a fixed key: "all" as
"model", "low" as "low_model" and "high" as "high_model". A re-engineered
bundle also holds its rule, as the rule's own document, and its
segment_threshold.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import learners
from .errors import DataError, InvalidConfig
from .evaluation import (
    confusion,
    crossval_fold_scores,
    derive_seed,
    run_statistics,
    score,
)
from .features import (
    FEATURE_IDS,
    assemble_feature_vector,
    degenerate_mask,
    engineer_record,
    feature_matrix,
    feature_vectors,
)
from .learners import LearnerConfig, TrainedModel
from .preprocess import (
    BalanceConfig,
    DenoiseConfig,
    denoise_dataset,
    drop_invalid,
    moving_average,
    oversample_order,
    undersample_order,
)
from .rules import (
    AUTO_NORMAL,
    HIGH,
    LOW,
    IntervalRule,
    gate,
    segment as segment_vectors,
    strong_rule_filter,
)
from .scada import CHANNELS, Frame, LabeledDataset
from .schema import ANY, at_least, check, from_dict, one_of, to_dict

REPORT_FORMAT = 1
BUNDLE_FORMAT = 1
VARIANTS = ("traditional", "reengineered")


@dataclass(frozen=True)
class Settings:
    """The settings that an experiment config passes to the pipeline config
    of each of its variants, declared once for both."""

    learner: LearnerConfig
    denoise: DenoiseConfig = DenoiseConfig()
    balance: BalanceConfig = BalanceConfig()
    cv_k: int = field(default=5, metadata=at_least(2))
    n_runs: int = field(default=10, metadata=at_least(1))
    master_seed: int = field(default=0, metadata=at_least(0))
    min_segment_size: int = field(default=50, metadata=at_least(1))


@dataclass(frozen=True, kw_only=True)
class PipelineConfig(Settings):
    """One variant's flow: the shared settings, and the rule and the
    wind-speed split point of the re-engineered variant."""

    variant: str = field(metadata=one_of(*VARIANTS))
    rule: IntervalRule | None = None
    segment_threshold: float | None = field(default=None, metadata=ANY)
    traditional_raw_features: bool = False

    def __post_init__(self):
        check(self)
        if self.variant == "reengineered":
            if self.rule is None or self.segment_threshold is None:
                raise InvalidConfig("reengineered pipeline requires rule and segment_threshold")
            if self.traditional_raw_features:
                raise InvalidConfig("raw-channel features apply to the traditional variant only")
        elif self.rule is not None or self.segment_threshold is not None:
            raise InvalidConfig("traditional pipeline forbids rule and segment_threshold")


def config_hash(doc: dict) -> str:
    import hashlib  # here, as pickle and signal below: predict needs none of them

    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def pipeline_config_to_dict(cfg: PipelineConfig) -> dict:
    """The report's config echo: the config's document without the learner
    seed, which each run derives, and with the channels denoise smooths."""
    doc = to_dict(cfg)
    del doc["learner"]["seed"]
    doc["denoise"]["channels"] = list(CHANNELS)  # every channel is smoothed; the echo keeps its bytes and hash
    return doc


# --- shared preparation ---------------------------------------------------------


def prepare(dataset: LabeledDataset, denoise: DenoiseConfig) -> LabeledDataset:
    """A labeled turbine as the learners see it: invalid records dropped,
    then the rest smoothed. The experiments, `features` and
    `inspect-rules` all prepare through here."""
    return denoise_dataset(drop_invalid(dataset), denoise)


def _matrix(dataset: LabeledDataset, cfg: PipelineConfig) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) of a turbine after preprocessing: its feature rows, or for the
    raw-channel baseline its channel rows, and its label codes."""
    prep = prepare(dataset, cfg.denoise)
    # each flow calls its own features function through this module, where
    # perfbench/tracer.py times both by name
    if cfg.variant == "traditional":
        return feature_matrix(prep, cfg.traditional_raw_features)
    return feature_vectors(prep), prep.label


def _balance_order(y: np.ndarray, cfg: BalanceConfig, seed: int) -> np.ndarray:
    if cfg.method == "under":
        return undersample_order(y == 1, seed)
    return oversample_order(y == 1, seed)


def _run_seeds(cfg: PipelineConfig) -> list[int]:
    return [derive_seed(cfg.master_seed, i) for i in range(cfg.n_runs)]


# --- seeded runs side by side ---------------------------------------------------


def _map_runs(one_run: Callable[[int], object], n: int) -> list:
    """``[one_run(i) for i in range(n)]``, computed by one process per CPU
    in this process's affinity mask, at most n.

    The runs split into contiguous shares. Forked children compute all but
    the first share, each pickling its results to a pipe; the parent
    computes the first share itself, so every call it makes, traced or not,
    still happens in this process. A child that ends without its results
    (an exception, a signal, lack of memory) has its share computed again
    here. Errors are never pickled, because that recomputation is what
    raises them: runs are deterministic, so the parent raises the first
    error in run order, as the sequential loop would. Where fork is
    unavailable, or one process suffices, the one share is the parent's
    and no process is forked.

    A fork copies only the calling thread. The CLI starts no other thread
    and pins BLAS to one thread per process (see icewatch.cli), so the
    processes fill the CPUs without BLAS threads competing for them.
    """
    import signal

    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(n, len(os.sched_getaffinity(0)))
    bounds = [n * k // workers for k in range(workers + 1)]
    shares = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    pending: dict[int, int] = {}  # child pid -> read end of its result pipe
    try:
        pids = [_fork_share(one_run, share, pending) for share in shares[1:]]
        results = [one_run(i) for i in shares[0]]
        for pid, share in zip(pids, shares[1:]):
            part = None if pid is None else _collect(pid, pending)
            results.extend([one_run(i) for i in share] if part is None else part)
        return results
    finally:
        for pid, fd in pending.items():
            os.close(fd)
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork_share(one_run: Callable[[int], object], share: range, pending: dict[int, int]) -> int | None:
    """Fork a child that computes `share` and writes its pickled results to
    a pipe; record the pipe's read end in `pending`. None if no process
    could be forked, which leaves the share to the parent."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        code = 1
        try:
            import pickle

            os.close(read_end)
            data = pickle.dumps([one_run(i) for i in share])
            with open(write_end, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)  # no exit handlers, no flush of buffers copied from the parent
    os.close(write_end)
    pending[pid] = read_end
    return pid


def _collect(pid: int, pending: dict[int, int]) -> list | None:
    """A child's results, or None if it ended without them. The pipe is read
    to its end before the wait, so a child never blocks on a full pipe."""
    import pickle

    with open(pending[pid], "rb", closefd=False) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    os.close(pending.pop(pid))
    return pickle.loads(data) if os.waitstatus_to_exitcode(status) == 0 else None


# --- both flows -----------------------------------------------------------------


# part name -> the bundle field of its model, and the route code of its rows
_BUNDLE_KEYS = {"all": "model", "low": "low_model", "high": "high_model"}
_ROUTES = {"all": LOW, "low": LOW, "high": HIGH}


def _training_parts(
    train: LabeledDataset, cfg: PipelineConfig
) -> dict[str, tuple[tuple[int, ...], np.ndarray, np.ndarray]]:
    """Per part name: its seed key and training rows. The traditional flow
    has the single part "all"; the re-engineered one splits the rule's
    candidates into "low" and "high" wind-speed parts."""
    X, y = _matrix(train, cfg)
    if cfg.variant == "traditional":
        return {"all": ((), X, y)}
    candidates, _ = strong_rule_filter(X, cfg.rule)
    low, high = segment_vectors(X[candidates], cfg.segment_threshold)
    parts = {"low": ((0,), candidates[low]), "high": ((1,), candidates[high])}
    for name, (_, rows) in parts.items():
        if len(rows) < cfg.min_segment_size:
            raise DataError(f"{name} segment has {len(rows)} training candidates, below minimum {cfg.min_segment_size}")
    return {name: (key, X[rows], y[rows]) for name, (key, rows) in parts.items()}


def _route(X: np.ndarray, rule: IntervalRule | None, threshold: float | None) -> np.ndarray:
    """int8[n]: the route code of each row, rules.gate's, or LOW for every
    row when there is no rule."""
    if rule is None:
        return np.full(len(X), LOW, dtype=np.int8)
    return gate(X, rule, threshold)


def _label(X: np.ndarray, route: np.ndarray, models: dict[int, TrainedModel]) -> np.ndarray:
    """int8[n]: one learners.predict call per route code's model on that
    code's rows; rows of a code without a model (AUTO_NORMAL) are normal."""
    label = np.zeros(len(X), dtype=np.int8)
    for code, model in models.items():
        rows = np.flatnonzero(route == code)
        if rows.size:
            label[rows] = learners.predict(model, X[rows])
    return label


def _balanced(
    X: np.ndarray, y: np.ndarray, cfg: PipelineConfig, i: int, run_seed: int, key: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, LearnerConfig]:
    """Run i's balance draw of one part's rows, and the part's learner
    config seeded from the run seed."""
    order = _balance_order(y, cfg.balance, derive_seed(cfg.balance.seed, i, *key))
    return X[order], y[order], replace(cfg.learner, seed=derive_seed(run_seed, 2, *key))


def _run(train: LabeledDataset, test: LabeledDataset, cfg: PipelineConfig) -> dict:
    """The report of cfg's runs, as report.json holds it under "reports":
    the turbine ids, the config echo and its hash, the run seeds, and per
    part the mean and deviation of its CV and test scores over the runs."""
    train_parts = _training_parts(train, cfg)
    X_test, y_test = _matrix(test, cfg)
    route = _route(X_test, cfg.rule, cfg.segment_threshold)
    test_rows = {name: route == _ROUTES[name] for name in train_parts}
    for name, rows in test_rows.items():
        if not rows.any():
            raise DataError(f"{name} segment has no test rows")
    seeds = _run_seeds(cfg)

    def one_run(i: int) -> tuple[dict[str, float], dict[str, float]]:
        cv: dict[str, float] = {}
        models: dict[int, TrainedModel] = {}
        for name, (key, X, y) in train_parts.items():
            Xb, yb, lcfg = _balanced(X, y, cfg, i, seeds[i], key)
            scores, models[_ROUTES[name]] = crossval_fold_scores(Xb, yb, lcfg, cfg.cv_k, derive_seed(seeds[i], 1, *key))
            cv[name] = float(np.mean(scores))
        label = _label(X_test, route, models)
        test_scores = {name: score(confusion(y_test[rows], label[rows])) for name, rows in test_rows.items()}
        if cfg.rule is not None:
            cv["pooled"] = float(np.mean(list(cv.values())))
            test_scores["pooled"] = score(confusion(y_test, label))
        return cv, test_scores

    results = _map_runs(one_run, cfg.n_runs)
    cells = []
    for name in results[0][0]:  # "all", or "low", "high" and "pooled"
        cv = run_statistics([run_cv[name] for run_cv, _ in results])
        tested = run_statistics([run_test[name] for _, run_test in results])
        cells.append({
            "pipeline": cfg.variant,
            "algorithm": cfg.learner.algorithm,
            "segment": name,
            "cv_mean": cv.mean,
            "cv_std": cv.std,
            "test_mean": tested.mean,
            "test_std": tested.std,
            "n_runs": tested.runs,
        })
    doc = pipeline_config_to_dict(cfg)
    return {
        "format": REPORT_FORMAT,
        "train_dataset": train.turbine_id,
        "test_dataset": test.turbine_id,
        "config": doc,
        "config_hash": config_hash(doc),
        "run_seeds": seeds,
        "results": cells,
    }


def run_traditional(train: LabeledDataset, test: LabeledDataset, cfg: PipelineConfig) -> dict:
    if cfg.variant != "traditional":
        raise InvalidConfig("run_traditional needs a traditional config")
    return _run(train, test, cfg)


def run_reengineered(train: LabeledDataset, test: LabeledDataset, cfg: PipelineConfig) -> dict:
    if cfg.variant != "reengineered":
        raise InvalidConfig("run_reengineered needs a reengineered config")
    return _run(train, test, cfg)


# --- deployable bundle ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """A deployable bundle, the declared document that bundle_to_dict
    writes and bundle_from_dict reads. A traditional bundle holds "model",
    the model of its part "all"; a re-engineered one its rule, its
    segment_threshold, and "low_model" and "high_model". Every model reads
    rows of the bundle's features."""

    format: int = field(metadata=one_of(BUNDLE_FORMAT))
    variant: str = field(metadata=one_of(*VARIANTS))
    denoise: _BundleDenoise
    raw_features: bool = False
    rule: IntervalRule | None = None
    segment_threshold: float | None = field(default=None, metadata=ANY)
    model: learners.Model | None = None
    low_model: learners.Model | None = None
    high_model: learners.Model | None = None

    def __post_init__(self):
        check(self)
        if self.denoise.channels != CHANNELS:
            raise InvalidConfig(f"denoise.channels: a bundle smooths every channel, got {list(self.denoise.channels)!r}")
        needed = ("model",) if self.variant == "traditional" else ("rule", "segment_threshold", "low_model", "high_model")
        for key in ("rule", "segment_threshold", "model", "low_model", "high_model"):
            if (getattr(self, key) is None) == (key in needed):
                raise InvalidConfig(f"{key}: missing" if key in needed else f"{key}: not part of a {self.variant} bundle")
        if self.raw_features and self.variant != "traditional":
            raise InvalidConfig("raw-channel features apply to the traditional variant only")
        for key in _BUNDLE_KEYS.values():
            if getattr(self, key) is not None:
                learners.check_input_width(getattr(self, key), len(CHANNELS if self.raw_features else FEATURE_IDS))


@dataclass(frozen=True, eq=False)
class _BundleDenoise(DenoiseConfig):
    """A bundle's denoise entry: the config and the channels it smooths,
    which are all of them."""

    channels: tuple[str, ...] = CHANNELS


def train_bundle(train: LabeledDataset, cfg: PipelineConfig) -> ModelBundle:
    """Train the final deployable model of each part with one balance draw,
    seeded one past the experiment's runs."""
    i = cfg.n_runs  # one past the last experiment run
    seed = derive_seed(cfg.master_seed, i)
    models: dict[str, TrainedModel] = {}
    for name, (key, X, y) in _training_parts(train, cfg).items():
        Xb, yb, lcfg = _balanced(X, y, cfg, i, seed, key)
        models[_BUNDLE_KEYS[name]] = learners.train(lcfg, Xb, yb)
    return ModelBundle(
        format=BUNDLE_FORMAT,
        variant=cfg.variant,
        denoise=_BundleDenoise(cfg.denoise.window),
        raw_features=cfg.traditional_raw_features,
        rule=cfg.rule,
        segment_threshold=cfg.segment_threshold,
        **models,
    )


class StreamLabels:
    """The labels of a raw stream, one row per record: `time`, int64, the
    stream's record times; `label`, int8, 0=normal, 1=abnormal; `flagged`,
    bool, low confidence: smoothed from a partial window or degenerate
    features. Immutable; len() is the record count."""

    __slots__ = ("time", "label", "flagged")

    def __init__(self, time: np.ndarray, label: np.ndarray, flagged: np.ndarray):
        for name, value in zip(self.__slots__, (time, label, flagged)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __len__(self) -> int:
        return self.time.size


def predict_stream(bundle: ModelBundle, frame: Frame) -> StreamLabels:
    """Label a raw stream with the bundle's full preprocessing.

    Deployment smoothing is the training kernel (preprocess.moving_average)
    over every channel from record window-1 on. The first window-1 records
    are averaged over the partial prefix and flagged low-confidence instead
    of being dropped, because a deployed predictor must answer from the
    first record. Records whose physics features are degenerate (channels
    at -5) are predicted normal and flagged.

    The features of all records are computed at once, then routed and
    labeled by _route and _label, as the experiments' test turbine is: one
    gate call, then one learners.predict call per model on the rows routed
    to it. learners.predict is row-exact, so a label never depends on which
    other rows share the call. No per-record object is built.

    One skew against training remains: training drops invalid records
    before it smooths, so its windows bridge the gaps, while a deployed
    stream can only smooth the records it receives.
    """
    n = len(frame)
    w = bundle.denoise.window
    head = min(w - 1, n)
    smoothed = np.empty(frame.channels.shape)
    smoothed[:head] = np.cumsum(frame.channels[:head], axis=0) / np.arange(1, head + 1)[:, None]
    if n >= w:
        smoothed[w - 1 :] = moving_average(frame.channels, w)

    warm_up = np.arange(n) < w - 1
    degenerate = np.zeros(n, dtype=bool)
    if bundle.raw_features:
        X = smoothed
    else:
        record = Frame(frame.time, smoothed, frame.group).columns()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # degenerate rows, set aside below
            X = assemble_feature_vector(record, engineer_record(record))
        degenerate = degenerate_mask(record)
    route = _route(X, bundle.rule, bundle.segment_threshold)
    route[degenerate] = AUTO_NORMAL
    parts = [(_ROUTES[name], getattr(bundle, key)) for name, key in _BUNDLE_KEYS.items()]
    label = _label(X, route, {code: model for code, model in parts if model is not None})
    return StreamLabels(time=frame.time, label=label, flagged=warm_up | degenerate)


def bundle_to_dict(bundle: ModelBundle) -> dict:
    return to_dict(bundle)


def bundle_from_dict(doc: dict) -> ModelBundle:
    """Inverse of bundle_to_dict."""
    return from_dict(ModelBundle, doc)


# --- report output --------------------------------------------------------------


def render_report_text(reports: Sequence[dict]) -> str:
    """Aligned plain-text table over one or more reports, each as _run
    returns it."""
    lines = []
    header = f"{'pipeline':<14}{'algorithm':<11}{'segment':<9}{'metric':<10}{'mean':>9}{'std':>9}"
    for report in reports:
        lines.append(
            f"Train: {report['train_dataset']}  Test: {report['test_dataset']}  (runs: {len(report['run_seeds'])})"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for c in report["results"]:
            for metric in ("cv", "test"):
                lines.append(
                    f"{c['pipeline']:<14}{c['algorithm']:<11}{c['segment']:<9}{metric:<10}"
                    f"{c[metric + '_mean']:>9.2f}{c[metric + '_std']:>9.2f}"
                )
        lines.append("")
    return "\n".join(lines)
