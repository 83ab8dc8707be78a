"""End-to-end flows: the traditional baseline and the re-engineered,
physics-gated pipeline, plus the deployable model bundle.

Both flows run one loop over named parts. A part is the training rows,
test rows and seed key of one model. Per seeded run, every part is
balanced by the configured under- or over-sampling, cross-validated on
its balanced training set, trained on all of it and scored on its test
rows.

Traditional flow: after dropping invalid records and denoising, the single
part "all" (seed key ()) trains on the whole training turbine and is
scored on the whole (invalid-dropped, denoised, unbalanced) test turbine.

Re-engineered flow: the traditional flow plus two gates, both on the
feature matrix. After the same preprocessing, the strong rule filters
training rows down to icing candidates (rules.strong_rule_filter;
everything else is excluded from training), and rules.segment splits the
candidates by wind speed into the parts "low" (seed key (0,)) and "high"
(seed key (1,)), each in row order. At test time rules.gate gives every
row one route: rule failures are predicted normal outright, candidates
go to their part. Scores are reported per part and pooled over the whole
test set; the pooled CV score is the mean of the parts' CV scores.

Seed derivation, recorded in every report: run i uses
run_seed = derive_seed(master_seed, i); a part with seed key `key`
balances with derive_seed(balance.seed, i, *key), shuffles its folds with
derive_seed(run_seed, 1, *key) and seeds its learner with
derive_seed(run_seed, 2, *key). The bundle trains each part once, as run
i = n_runs would. Reports carry a config hash and all seeds, and contain
no timestamps, so identical configs reproduce byte-identical report files.

A bundle stores the model of each part under a fixed key: "all" as
"model", "low" as "low_model" and "high" as "high_model".
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import signal
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import learners
from .errors import InvalidConfig, SegmentTooSmall
from .evaluation import (
    RunStatistics,
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
    SegmentationConfig,
    gate,
    rule_from_json,
    rule_to_json,
    segment as segment_vectors,
    strong_rule_filter,
)
from .scada import CHANNELS, Frame, LabeledDataset
from .schema import from_dict

REPORT_FORMAT = 1
BUNDLE_FORMAT = 1


@dataclass(frozen=True)
class PipelineConfig:
    variant: str  # "traditional" or "reengineered"
    learner: LearnerConfig
    denoise: DenoiseConfig = DenoiseConfig()
    balance: BalanceConfig = BalanceConfig()
    rule: IntervalRule | None = None
    segmentation: SegmentationConfig | None = None
    cv_k: int = 5
    n_runs: int = 10
    master_seed: int = 0
    min_segment_size: int = 50
    traditional_raw_features: bool = False

    def __post_init__(self):
        if self.variant not in ("traditional", "reengineered"):
            raise InvalidConfig(f"unknown pipeline variant {self.variant!r}")
        if self.variant == "reengineered":
            if self.rule is None or self.segmentation is None:
                raise InvalidConfig("reengineered pipeline requires rule and segmentation")
            if self.traditional_raw_features:
                raise InvalidConfig("raw-channel features apply to the traditional variant only")
        else:
            if self.rule is not None or self.segmentation is not None:
                raise InvalidConfig("traditional pipeline forbids rule and segmentation")
        if self.cv_k < 2:
            raise InvalidConfig(f"cv_k must be >= 2, got {self.cv_k}")
        if self.n_runs < 1:
            raise InvalidConfig(f"n_runs must be >= 1, got {self.n_runs}")
        if self.min_segment_size < 1:
            raise InvalidConfig("min_segment_size must be positive")


@dataclass(frozen=True)
class ReportCell:
    pipeline: str
    algorithm: str
    segment: str  # "all", "low", "high", or "pooled"
    cv: RunStatistics | None
    test: RunStatistics


@dataclass(frozen=True)
class ExperimentReport:
    train_id: str
    test_id: str
    config: dict
    config_hash: str
    run_seeds: tuple[int, ...]
    cells: tuple[ReportCell, ...]


def config_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _rule_to_dict(rule: IntervalRule) -> dict:
    return {"id": rule.rule_id, "constraints": rule_to_json(rule)}


def pipeline_config_to_dict(cfg: PipelineConfig) -> dict:
    """The report's config echo: every field except the learner seed (each
    run derives its own), with the rule as {id, constraints} and the
    segmentation as a top-level segment_threshold, both only when set."""
    doc = asdict(cfg)
    del doc["learner"]["seed"], doc["rule"], doc["segmentation"]
    if cfg.rule is not None:
        doc["rule"] = _rule_to_dict(cfg.rule)
    if cfg.segmentation is not None:
        doc["segment_threshold"] = cfg.segmentation.threshold
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
    here: runs are deterministic, so an error is raised by the parent, in
    run order, as the sequential loop would raise it. Errors are never
    pickled, because most icewatch errors do not survive a pickle round
    trip. Where fork is unavailable, or one process suffices, the runs
    execute one after another in this process.

    A fork copies only the calling thread. The CLI starts no other thread
    and pins BLAS to one thread per process (see icewatch.cli), so the
    processes fill the CPUs without BLAS threads competing for them.
    """
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(n, len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [one_run(i) for i in range(n)]
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
    with open(pending[pid], "rb", closefd=False) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    os.close(pending.pop(pid))
    return pickle.loads(data) if os.waitstatus_to_exitcode(status) == 0 else None


# --- both flows -----------------------------------------------------------------


# part name -> the bundle key of its model
_BUNDLE_KEYS = {"all": "model", "low": "low_model", "high": "high_model"}


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
    low, high = segment_vectors(X[candidates], cfg.segmentation)
    parts = {"low": ((0,), candidates[low]), "high": ((1,), candidates[high])}
    for name, (_, rows) in parts.items():
        if len(rows) < cfg.min_segment_size:
            raise SegmentTooSmall(name, len(rows), cfg.min_segment_size)
    return {name: (key, X[rows], y[rows]) for name, (key, rows) in parts.items()}


def _test_parts(
    test: LabeledDataset, cfg: PipelineConfig
) -> tuple[np.ndarray | None, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """The actual labels of the records the gate predicts normal outright
    (None without a gate), and per part name its test rows."""
    X, y = _matrix(test, cfg)
    if cfg.variant == "traditional":
        return None, {"all": (X, y)}
    route = gate(X, cfg.rule, cfg.segmentation)
    parts = {"low": route == LOW, "high": route == HIGH}
    return y[route == AUTO_NORMAL], {name: (X[rows], y[rows]) for name, rows in parts.items()}


def _balanced(
    X: np.ndarray, y: np.ndarray, cfg: PipelineConfig, i: int, run_seed: int, key: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, LearnerConfig]:
    """Run i's balance draw of one part's rows, and the part's learner
    config seeded from the run seed."""
    order = _balance_order(y, cfg.balance, derive_seed(cfg.balance.seed, i, *key))
    return X[order], y[order], cfg.learner.seeded(derive_seed(run_seed, 2, *key))


def _run(train: LabeledDataset, test: LabeledDataset, cfg: PipelineConfig) -> ExperimentReport:
    train_parts = _training_parts(train, cfg)
    auto_labels, test_parts = _test_parts(test, cfg)
    seeds = _run_seeds(cfg)

    def one_run(i: int) -> tuple[dict[str, float], dict[str, float]]:
        cv: dict[str, float] = {}
        test_scores: dict[str, float] = {}
        predicted: dict[str, np.ndarray] = {}
        for name, (key, X, y) in train_parts.items():
            X_test, y_test = test_parts[name]
            Xb, yb, lcfg = _balanced(X, y, cfg, i, seeds[i], key)
            cv[name] = float(np.mean(crossval_fold_scores(Xb, yb, lcfg, cfg.cv_k, derive_seed(seeds[i], 1, *key))))
            model = learners.train(lcfg, Xb, yb)
            predicted[name] = learners.predict_batch(model, X_test)
            test_scores[name] = score(confusion(y_test, predicted[name]))
        if auto_labels is not None:
            cv["pooled"] = float(np.mean(list(cv.values())))
            # auto-normal records are predicted normal
            actual = np.concatenate([auto_labels, *(y for _, y in test_parts.values())])
            pooled = np.concatenate([np.zeros_like(auto_labels), *predicted.values()])
            test_scores["pooled"] = score(confusion(actual, pooled))
        return cv, test_scores

    results = _map_runs(one_run, cfg.n_runs)
    cells = tuple(
        ReportCell(
            pipeline=cfg.variant,
            algorithm=cfg.learner.algorithm,
            segment=name,
            cv=run_statistics([cv[name] for cv, _ in results]),
            test=run_statistics([t[name] for _, t in results]),
        )
        for name in results[0][0]
    )
    doc = pipeline_config_to_dict(cfg)
    return ExperimentReport(
        train_id=train.turbine_id,
        test_id=test.turbine_id,
        config=doc,
        config_hash=config_hash(doc),
        run_seeds=tuple(seeds),
        cells=cells,
    )


def run_traditional(train: LabeledDataset, test: LabeledDataset, cfg: PipelineConfig) -> ExperimentReport:
    if cfg.variant != "traditional":
        raise InvalidConfig("run_traditional needs a traditional config")
    return _run(train, test, cfg)


def run_reengineered(train: LabeledDataset, test: LabeledDataset, cfg: PipelineConfig) -> ExperimentReport:
    if cfg.variant != "reengineered":
        raise InvalidConfig("run_reengineered needs a reengineered config")
    return _run(train, test, cfg)


# --- deployable bundle ----------------------------------------------------------


@dataclass(frozen=True)
class ModelBundle:
    variant: str
    denoise: DenoiseConfig
    models: dict[str, TrainedModel]  # by part name
    raw_features: bool = False
    rule: IntervalRule | None = None  # reengineered
    segmentation: SegmentationConfig | None = None


def train_bundle(train: LabeledDataset, cfg: PipelineConfig) -> ModelBundle:
    """Train the final deployable model of each part with one balance draw,
    seeded one past the experiment's runs."""
    i = cfg.n_runs  # one past the last experiment run
    seed = derive_seed(cfg.master_seed, i)
    models: dict[str, TrainedModel] = {}
    for name, (key, X, y) in _training_parts(train, cfg).items():
        Xb, yb, lcfg = _balanced(X, y, cfg, i, seed, key)
        models[name] = learners.train(lcfg, Xb, yb)
    return ModelBundle(
        variant=cfg.variant,
        denoise=cfg.denoise,
        models=models,
        raw_features=cfg.traditional_raw_features,
        rule=cfg.rule,
        segmentation=cfg.segmentation,
    )


@dataclass(frozen=True)
class StreamLabels:
    """The labels of a raw stream, one row per record."""

    time: np.ndarray  # int64, the stream's record times
    label: np.ndarray  # int8, 0=normal, 1=abnormal
    flagged: np.ndarray  # bool, low confidence: smoothed from a partial window or degenerate features

    def __len__(self) -> int:
        return self.time.size


def predict_stream(bundle: ModelBundle, frame: Frame) -> StreamLabels:
    """Label a raw stream with the bundle's full preprocessing.

    Deployment smoothing is the training kernel (preprocess.moving_average)
    from record window-1 on. The first window-1 records are averaged over
    the partial prefix and flagged low-confidence instead of being dropped,
    because a deployed predictor must answer from the first record.
    Records whose physics features are degenerate (channels at -5) are
    predicted normal and flagged.

    The features of all records are computed at once and routed by one
    gate call. Each model then gets one learners.predict call on the rows
    routed to it, in stream order; learners.predict is row-exact, so a
    label never depends on which other rows share the call. The labels
    come back as arrays; no per-record object is built.

    One skew against training remains: training drops invalid records
    before it smooths, so its windows bridge the gaps, while a deployed
    stream can only smooth the records it receives.
    """
    n = len(frame)
    w = bundle.denoise.window
    head = min(w - 1, n)
    columns = [CHANNELS.index(ch) for ch in bundle.denoise.channels]
    smoothed = frame.channels.copy()
    prefix_sums = np.cumsum(frame.channels[:head].take(columns, axis=1), axis=0)
    smoothed[:head, columns] = prefix_sums / np.arange(1, head + 1)[:, None]
    if n >= w:
        smoothed[w - 1 :] = moving_average(frame.channels, bundle.denoise)

    warm_up = np.arange(n) < w - 1
    degenerate = np.zeros(n, dtype=bool)
    if bundle.raw_features:
        X = smoothed
    else:
        record = Frame(frame.time, smoothed, frame.group).columns()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # degenerate rows, set aside below
            X = assemble_feature_vector(record, engineer_record(record))
        degenerate = degenerate_mask(record)
    # the model of each route code; without a gate every row goes to the one model
    if bundle.rule is None:
        route, models = np.full(n, LOW, dtype=np.int8), {LOW: bundle.models["all"]}
    else:
        route = gate(X, bundle.rule, bundle.segmentation)
        models = {LOW: bundle.models["low"], HIGH: bundle.models["high"]}
    route[degenerate] = AUTO_NORMAL

    label = np.zeros(n, dtype=np.int8)  # auto-normal rows stay 0
    for code, model in models.items():
        rows = np.flatnonzero(route == code)
        if rows.size:
            label[rows] = learners.predict(model, X[rows])
    return StreamLabels(time=frame.time, label=label, flagged=warm_up | degenerate)


def bundle_to_dict(bundle: ModelBundle) -> dict:
    doc = {
        "format": BUNDLE_FORMAT,
        "variant": bundle.variant,
        "denoise": asdict(bundle.denoise),
        "raw_features": bundle.raw_features,
    }
    if bundle.rule is not None:
        doc["rule"] = _rule_to_dict(bundle.rule)
        doc["segment_threshold"] = bundle.segmentation.threshold
    for name, model in bundle.models.items():
        doc[_BUNDLE_KEYS[name]] = learners.model_to_dict(model)
    return doc


def bundle_from_dict(doc: dict) -> ModelBundle:
    if not isinstance(doc, dict):
        raise InvalidConfig(f"a bundle must be a JSON object, got {type(doc).__name__}")
    if doc.get("format") != BUNDLE_FORMAT:
        raise InvalidConfig(f"unsupported bundle format {doc.get('format')!r}")
    try:
        denoise = from_dict(DenoiseConfig, doc["denoise"])
        variant = doc["variant"]
        rule = segmentation = None
        if variant == "reengineered":
            rule_doc = doc["rule"]
            if not isinstance(rule_doc, dict):
                raise InvalidConfig(f"bundle rule: expected an object, got {rule_doc!r}")
            rule = rule_from_json(rule_doc["constraints"], rule_id=rule_doc["id"])
            segmentation = from_dict(SegmentationConfig, {"threshold": doc["segment_threshold"]})
        elif variant != "traditional":
            raise InvalidConfig(f"unknown bundle variant {variant!r}")
        raw_features = rule is None and bool(doc.get("raw_features", False))
        parts = ("all",) if rule is None else ("low", "high")
        models = {name: learners.model_from_dict(doc[_BUNDLE_KEYS[name]]) for name in parts}
        for model in models.values():
            learners.check_input_width(model, len(CHANNELS) if raw_features else len(FEATURE_IDS))
        return ModelBundle(variant, denoise, models, raw_features, rule, segmentation)
    except KeyError as exc:
        raise InvalidConfig(f"bundle is missing key {exc}") from None


# --- report output --------------------------------------------------------------


def report_to_dict(report: ExperimentReport) -> dict:
    cells = []
    for c in report.cells:
        cells.append(
            {
                "pipeline": c.pipeline,
                "algorithm": c.algorithm,
                "segment": c.segment,
                "cv_mean": None if c.cv is None else c.cv.mean,
                "cv_std": None if c.cv is None else c.cv.std,
                "test_mean": c.test.mean,
                "test_std": c.test.std,
                "n_runs": c.test.runs,
            }
        )
    return {
        "format": REPORT_FORMAT,
        "train_dataset": report.train_id,
        "test_dataset": report.test_id,
        "config": report.config,
        "config_hash": report.config_hash,
        "run_seeds": list(report.run_seeds),
        "results": cells,
    }


def render_report_text(reports: Sequence[ExperimentReport]) -> str:
    """Aligned plain-text table over one or more reports."""
    lines = []
    header = f"{'pipeline':<14}{'algorithm':<11}{'segment':<9}{'metric':<10}{'mean':>9}{'std':>9}"
    for report in reports:
        lines.append(f"Train: {report.train_id}  Test: {report.test_id}  (runs: {len(report.run_seeds)})")
        lines.append(header)
        lines.append("-" * len(header))
        for c in report.cells:
            if c.cv is not None:
                lines.append(
                    f"{c.pipeline:<14}{c.algorithm:<11}{c.segment:<9}{'cv':<10}{c.cv.mean:>9.2f}{c.cv.std:>9.2f}"
                )
            lines.append(
                f"{c.pipeline:<14}{c.algorithm:<11}{c.segment:<9}{'test':<10}{c.test.mean:>9.2f}{c.test.std:>9.2f}"
            )
        lines.append("")
    return "\n".join(lines)
