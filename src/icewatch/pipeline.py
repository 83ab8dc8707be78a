"""End-to-end flows: the traditional baseline and the re-engineered,
physics-gated pipeline, plus the deployable model bundle.

Traditional flow, per seeded run: drop invalid records, denoise, balance
by under-sampling, cross-validate on the balanced training set, train on
all of it, then score on the full (invalid-dropped, denoised, unbalanced)
test turbine.

Re-engineered flow: after the same preprocessing, the strong rule filters
training records down to icing candidates (everything else is excluded
from training), candidates split into low and high wind-speed segments,
and each segment gets its own balanced model. At test time every record
passes through the gate: rule failures are predicted normal outright,
candidates are routed to their segment's model. Scores are reported per
segment and pooled over the whole test set.

Seed derivation, recorded in every report: run i uses
derive_seed(master_seed, i); balancing draws come from the balance seed
(derive_seed(balance.seed, i, segment_index)); fold shuffles and learner
initialization derive from the run seed. Reports carry a config hash and
all seeds, and contain no timestamps, so identical configs reproduce
byte-identical report files.
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
from .errors import DegenerateDenominator, InvalidConfig, SegmentTooSmall
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
    FeatureVector,
    assemble_feature_vector,
    dataset_features,
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
    GateDecision,
    IntervalRule,
    Segment,
    SegmentationConfig,
    gate,
    rule_from_json,
    rule_to_json,
    segment as segment_vectors,
    strong_rule_filter,
)
from .scada import CHANNELS, Frame, Label, LabeledDataset, ScadaRecord
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


def _prepare(dataset: LabeledDataset, denoise: DenoiseConfig) -> LabeledDataset:
    return denoise_dataset(drop_invalid(dataset), denoise)


def _traditional_matrix(dataset: LabeledDataset, cfg: PipelineConfig) -> tuple[np.ndarray, np.ndarray]:
    prep = _prepare(dataset, cfg.denoise)
    if cfg.traditional_raw_features:
        return prep.channels, prep.label
    return dataset_features(prep)


def _segment_matrices(train: LabeledDataset, cfg: PipelineConfig) -> dict[Segment, tuple[np.ndarray, np.ndarray]]:
    """Training rows of each wind-speed segment, from the rule's candidates."""
    candidates, _ = strong_rule_filter(feature_vectors(_prepare(train, cfg.denoise)), cfg.rule)
    low, high = segment_vectors(candidates, cfg.segmentation)
    matrices = {Segment.LOW: feature_matrix(low), Segment.HIGH: feature_matrix(high)}
    for s, (X, _) in matrices.items():
        if X.shape[0] < cfg.min_segment_size:
            raise SegmentTooSmall(s.value, X.shape[0], cfg.min_segment_size)
    return matrices


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


# --- traditional flow -----------------------------------------------------------


def run_traditional(
    train: LabeledDataset, test: LabeledDataset, cfg: PipelineConfig
) -> ExperimentReport:
    if cfg.variant != "traditional":
        raise InvalidConfig("run_traditional needs a traditional config")
    X_train, y_train = _traditional_matrix(train, cfg)
    X_test, y_test = _traditional_matrix(test, cfg)

    seeds = _run_seeds(cfg)

    def one_run(i: int) -> tuple[float, float]:
        run_seed = seeds[i]
        order = _balance_order(y_train, cfg.balance, derive_seed(cfg.balance.seed, i))
        Xb, yb = X_train[order], y_train[order]
        lcfg = cfg.learner.seeded(derive_seed(run_seed, 2))
        cv = float(np.mean(crossval_fold_scores(Xb, yb, lcfg, cfg.cv_k, derive_seed(run_seed, 1))))
        model = learners.train(lcfg, Xb, yb)
        predicted = learners.predict_batch(model, X_test)
        return cv, score(confusion(y_test, predicted))

    results = _map_runs(one_run, cfg.n_runs)
    cv_scores = [cv for cv, _ in results]
    test_scores = [t for _, t in results]

    doc = pipeline_config_to_dict(cfg)
    cell = ReportCell(
        pipeline="traditional",
        algorithm=cfg.learner.algorithm,
        segment="all",
        cv=run_statistics(cv_scores),
        test=run_statistics(test_scores),
    )
    return ExperimentReport(
        train_id=train.turbine_id,
        test_id=test.turbine_id,
        config=doc,
        config_hash=config_hash(doc),
        run_seeds=tuple(seeds),
        cells=(cell,),
    )


# --- re-engineered flow ---------------------------------------------------------


@dataclass(frozen=True)
class _GatedTest:
    auto_labels: np.ndarray  # actual labels of auto-normal records
    X: dict[Segment, np.ndarray]
    y: dict[Segment, np.ndarray]


def _gate_test(vectors: Sequence[FeatureVector], rule: IntervalRule, seg: SegmentationConfig) -> _GatedTest:
    auto: list[FeatureVector] = []
    per_segment: dict[Segment, list[FeatureVector]] = {Segment.LOW: [], Segment.HIGH: []}
    for fv in vectors:
        decision = gate(fv, rule, seg)
        if decision is GateDecision.AUTO_NORMAL:
            auto.append(fv)
        else:
            per_segment[decision.segment].append(fv)
    _, auto_y = feature_matrix(auto)
    X: dict[Segment, np.ndarray] = {}
    y: dict[Segment, np.ndarray] = {}
    for s in Segment:
        X[s], y[s] = feature_matrix(per_segment[s])
    return _GatedTest(auto_labels=auto_y, X=X, y=y)


def run_reengineered(
    train: LabeledDataset, test: LabeledDataset, cfg: PipelineConfig
) -> ExperimentReport:
    if cfg.variant != "reengineered":
        raise InvalidConfig("run_reengineered needs a reengineered config")
    train_seg = _segment_matrices(train, cfg)
    test_vectors = feature_vectors(_prepare(test, cfg.denoise))
    gated = _gate_test(test_vectors, cfg.rule, cfg.segmentation)

    seeds = _run_seeds(cfg)

    def one_run(i: int) -> tuple[dict[Segment, float], dict[Segment, float], float, float]:
        run_seed = seeds[i]
        run_cv: dict[Segment, float] = {}
        run_test: dict[Segment, float] = {}
        actual_parts = [gated.auto_labels]
        predicted_parts = [np.zeros_like(gated.auto_labels)]  # auto-normal predicts normal
        for s_index, s in enumerate(Segment):
            X_seg, y_seg = train_seg[s]
            order = _balance_order(y_seg, cfg.balance, derive_seed(cfg.balance.seed, i, s_index))
            Xb, yb = X_seg[order], y_seg[order]
            lcfg = cfg.learner.seeded(derive_seed(run_seed, 2, s_index))
            run_cv[s] = float(
                np.mean(crossval_fold_scores(Xb, yb, lcfg, cfg.cv_k, derive_seed(run_seed, 1, s_index)))
            )
            model = learners.train(lcfg, Xb, yb)
            predicted = learners.predict_batch(model, gated.X[s])
            run_test[s] = score(confusion(gated.y[s], predicted))
            actual_parts.append(gated.y[s])
            predicted_parts.append(predicted)
        pooled_cv = float(np.mean(list(run_cv.values())))
        pooled_test = score(confusion(np.concatenate(actual_parts), np.concatenate(predicted_parts)))
        return run_cv, run_test, pooled_cv, pooled_test

    results = _map_runs(one_run, cfg.n_runs)
    cv_scores = {s: [r[0][s] for r in results] for s in Segment}
    test_scores = {s: [r[1][s] for r in results] for s in Segment}
    pooled_cv = [r[2] for r in results]
    pooled_test = [r[3] for r in results]

    doc = pipeline_config_to_dict(cfg)
    algorithm = cfg.learner.algorithm
    cells = (
        ReportCell("reengineered", algorithm, "low", run_statistics(cv_scores[Segment.LOW]), run_statistics(test_scores[Segment.LOW])),
        ReportCell("reengineered", algorithm, "high", run_statistics(cv_scores[Segment.HIGH]), run_statistics(test_scores[Segment.HIGH])),
        ReportCell("reengineered", algorithm, "pooled", run_statistics(pooled_cv), run_statistics(pooled_test)),
    )
    return ExperimentReport(
        train_id=train.turbine_id,
        test_id=test.turbine_id,
        config=doc,
        config_hash=config_hash(doc),
        run_seeds=tuple(seeds),
        cells=cells,
    )


# --- deployable bundle ----------------------------------------------------------


@dataclass(frozen=True)
class ModelBundle:
    variant: str
    denoise: DenoiseConfig
    raw_features: bool = False
    model: TrainedModel | None = None  # traditional
    rule: IntervalRule | None = None  # reengineered
    segmentation: SegmentationConfig | None = None
    low_model: TrainedModel | None = None
    high_model: TrainedModel | None = None


def train_bundle(train: LabeledDataset, cfg: PipelineConfig) -> ModelBundle:
    """Train the final deployable model(s) with one balance draw, seeded
    one past the experiment's runs."""
    i = cfg.n_runs  # one past the last experiment run
    seed = derive_seed(cfg.master_seed, i)
    if cfg.variant == "traditional":
        X, y = _traditional_matrix(train, cfg)
        order = _balance_order(y, cfg.balance, derive_seed(cfg.balance.seed, i))
        lcfg = cfg.learner.seeded(derive_seed(seed, 2))
        model = learners.train(lcfg, X[order], y[order])
        return ModelBundle(
            variant="traditional",
            denoise=cfg.denoise,
            raw_features=cfg.traditional_raw_features,
            model=model,
        )
    models: dict[Segment, TrainedModel] = {}
    for s_index, (s, (X, y)) in enumerate(_segment_matrices(train, cfg).items()):
        order = _balance_order(y, cfg.balance, derive_seed(cfg.balance.seed, i, s_index))
        lcfg = cfg.learner.seeded(derive_seed(seed, 2, s_index))
        models[s] = learners.train(lcfg, X[order], y[order])
    return ModelBundle(
        variant="reengineered",
        denoise=cfg.denoise,
        rule=cfg.rule,
        segmentation=cfg.segmentation,
        low_model=models[Segment.LOW],
        high_model=models[Segment.HIGH],
    )


@dataclass(frozen=True)
class StreamPrediction:
    time: int
    label: Label
    low_confidence: bool  # smoothed from a partial window or degenerate features


def predict_stream(bundle: ModelBundle, frame: Frame) -> list[StreamPrediction]:
    """Label a raw stream with the bundle's full preprocessing.

    Deployment smoothing is the training kernel (preprocess.moving_average)
    from record window-1 on. The first window-1 records are averaged over
    the partial prefix and flagged low-confidence instead of being dropped,
    because a deployed predictor must answer from the first record.
    Records whose physics features are degenerate (channels at -5) are
    predicted normal and flagged.

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

    out: list[StreamPrediction] = []
    rows = zip(frame.time.tolist(), smoothed.tolist(), frame.group.tolist())
    for i, (time, values, group) in enumerate(rows):
        flagged = i < w - 1
        label = _predict_one(bundle, ScadaRecord(time, *values, group), smoothed[i])
        if label is None:
            label, flagged = Label.NORMAL, True
        out.append(StreamPrediction(time=time, label=label, low_confidence=flagged))
    return out


def _predict_one(bundle: ModelBundle, rec: ScadaRecord, channels: np.ndarray) -> Label | None:
    """The label of one smoothed record, given also as its channel row;
    None when its features are degenerate."""
    if bundle.variant == "traditional" and bundle.raw_features:
        return learners.predict(bundle.model, channels)
    try:
        # the label on a prediction-time vector is an inert placeholder
        fv = assemble_feature_vector(engineer_record(rec), Label.NORMAL)
    except DegenerateDenominator:
        return None
    if bundle.variant == "traditional":
        return learners.predict(bundle.model, fv.as_array())
    decision = gate(fv, bundle.rule, bundle.segmentation)
    if decision is GateDecision.AUTO_NORMAL:
        return Label.NORMAL
    model = bundle.low_model if decision.segment is Segment.LOW else bundle.high_model
    return learners.predict(model, fv.as_array())


def bundle_to_dict(bundle: ModelBundle) -> dict:
    doc = {
        "format": BUNDLE_FORMAT,
        "variant": bundle.variant,
        "denoise": asdict(bundle.denoise),
        "raw_features": bundle.raw_features,
    }
    if bundle.variant == "traditional":
        doc["model"] = learners.model_to_dict(bundle.model)
    else:
        doc["rule"] = _rule_to_dict(bundle.rule)
        doc["segment_threshold"] = bundle.segmentation.threshold
        doc["low_model"] = learners.model_to_dict(bundle.low_model)
        doc["high_model"] = learners.model_to_dict(bundle.high_model)
    return doc


def bundle_from_dict(doc: dict) -> ModelBundle:
    if not isinstance(doc, dict):
        raise InvalidConfig(f"a bundle must be a JSON object, got {type(doc).__name__}")
    if doc.get("format") != BUNDLE_FORMAT:
        raise InvalidConfig(f"unsupported bundle format {doc.get('format')!r}")
    try:
        denoise = from_dict(DenoiseConfig, doc["denoise"])
        variant = doc["variant"]
        if variant == "traditional":
            raw_features = bool(doc.get("raw_features", False))
            model = learners.model_from_dict(doc["model"])
            learners.check_input_width(model, len(CHANNELS) if raw_features else len(FEATURE_IDS))
            return ModelBundle(variant=variant, denoise=denoise, raw_features=raw_features, model=model)
        if variant != "reengineered":
            raise InvalidConfig(f"unknown bundle variant {variant!r}")
        rule = doc["rule"]
        if not isinstance(rule, dict):
            raise InvalidConfig(f"bundle rule: expected an object, got {rule!r}")
        low, high = learners.model_from_dict(doc["low_model"]), learners.model_from_dict(doc["high_model"])
        for model in (low, high):
            learners.check_input_width(model, len(FEATURE_IDS))
        return ModelBundle(
            variant=variant,
            denoise=denoise,
            rule=rule_from_json(rule["constraints"], rule_id=rule["id"]),
            segmentation=from_dict(SegmentationConfig, {"threshold": doc["segment_threshold"]}),
            low_model=low,
            high_model=high,
        )
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
