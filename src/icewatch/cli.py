"""Command-line interface.

Subcommands: ingest (raw CSV + windows -> labeled dataset), synth
(generate turbines), features (export the feature matrix), experiment
(run the configured pipelines and write reports), predict (bundle + raw
CSV -> labels CSV), inspect-rules (rule pass rates on a dataset).

Exit codes: 0 success, 2 configuration or usage error, 3 data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

# One BLAS thread per process, set before numpy loads: the seeded runs go
# side by side in forked processes (pipeline._map_runs), and BLAS threads
# spinning in each process would slow them down. An explicit value wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from . import synthgen  # noqa: E402
from .errors import ConfigError, DataError, InvalidConfig  # noqa: E402
from .features import feature_vectors, rank_features, write_feature_csv  # noqa: E402
from .learners import LearnerConfig  # noqa: E402
from .pipeline import (  # noqa: E402
    PipelineConfig,
    bundle_from_dict,
    bundle_to_dict,
    predict_stream,
    prepare,
    render_report_text,
    report_to_dict,
    run_reengineered,
    run_traditional,
    train_bundle,
)
from .preprocess import (  # noqa: E402
    BalanceConfig,
    DenoiseConfig,
    oversample_order,
    undersample_order,
)
from .rules import SegmentationConfig, load_rule, strong_rule_filter  # noqa: E402
from .scada import (  # noqa: E402
    LABELS,
    Label,
    apply_label_windows,
    parse_label_windows_csv,
    parse_scada_csv,
    read_labeled_csv,
    summarize,
    write_label_windows_csv,
    write_labeled_csv,
    write_scada_csv,
)
from .schema import from_dict, read_json  # noqa: E402


@dataclass(frozen=True)
class DataConfig:
    """Where an experiment's train and test turbines come from: a synthetic
    pair generated on the fly, or two labeled CSV files."""

    pair: synthgen.PairConfig | None = None
    direction: str = "AB"  # "BA" trains on turbine B and tests on A
    train: str | None = None
    test: str | None = None

    def __post_init__(self):
        if self.pair is None and (self.train is None or self.test is None):
            raise InvalidConfig("data must contain either 'pair' or 'train'+'test'")
        if self.direction not in ("AB", "BA"):
            raise InvalidConfig(f"direction must be 'AB' or 'BA', got {self.direction!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment JSON document (configs/experiment_default.json)."""

    data: DataConfig
    learner: LearnerConfig
    variants: tuple[str, ...] = ("traditional", "reengineered")
    denoise: DenoiseConfig = DenoiseConfig()
    balance: BalanceConfig = BalanceConfig()
    cv_k: int = 5
    n_runs: int = 10
    master_seed: int = 0
    min_segment_size: int = 50
    traditional_raw_features: bool = False
    rule: str = "R5"  # builtin id or rule JSON path
    segment_threshold: float = -0.25


def _read_config(path: str) -> dict:
    """The top-level JSON object of a config file."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise InvalidConfig(f"top level: expected object, got {doc!r}")
    return doc


def _dump_json(doc, path: Path) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# --- subcommands ----------------------------------------------------------------


def _cmd_ingest(args) -> int:
    frame = parse_scada_csv(args.scada, args.turbine_id)
    windows = parse_label_windows_csv(args.windows)
    dataset = apply_label_windows(frame, windows, args.turbine_id).require_time_order()
    write_labeled_csv(dataset, args.out)
    s = summarize(dataset)
    print(
        f"{s.turbine_id}: {len(dataset)} records "
        f"({s.n_normal} normal, {s.n_abnormal} abnormal, {s.n_invalid} invalid) -> {args.out}"
    )
    return 0


def _write_turbine(out: synthgen.SynthOutput, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    write_scada_csv(out.records, directory / "scada.csv")
    write_label_windows_csv(out.truth_windows, directory / "windows.csv")
    counts = {"normal": 0, "abnormal": 0, "invalid": 0}
    for label in out.truth_labels:
        counts[label.value] += 1
    ledger = {"episodes": [asdict(e) for e in out.episode_ledger], "counts": counts}
    _dump_json(ledger, directory / "ledger.json")


def _cmd_synth(args) -> int:
    out_dir = Path(args.out)
    doc = _read_config(args.config) if args.config else {}
    if args.pair:
        if "base" not in doc and "profile" not in doc:
            doc = {"base": doc}  # a plain synth config is the pair's base
        pair = from_dict(synthgen.PairConfig, doc)
        base = pair.base if args.seed is None else replace(pair.base, seed=args.seed)
        turbine_a, turbine_b = synthgen.make_turbine_pair(base, pair.profile)
        _write_turbine(turbine_a, out_dir / "A")
        _write_turbine(turbine_b, out_dir / "B")
        print(f"wrote pair to {out_dir}/A and {out_dir}/B")
    else:
        cfg = synthgen.config_from_dict(doc)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        _write_turbine(synthgen.generate_turbine(cfg), out_dir)
        print(f"wrote turbine to {out_dir}")
    return 0


def _preprocessed(args):
    denoise = DenoiseConfig(window=args.ma_window)
    return prepare(read_labeled_csv(args.data, Path(args.data).stem).require_time_order(), denoise)


def _cmd_features(args) -> int:
    prep = _preprocessed(args)
    X, y = feature_vectors(prep), prep.label
    if args.balance != "none":
        draw = undersample_order if args.balance == "under" else oversample_order
        order = draw(y == 1, args.seed)
        X, y = X[order], y[order]
    ranking = rank_features(X, y) if args.rank else []  # before writing: a failed ranking leaves no file
    write_feature_csv(X, y, args.out)
    print(f"wrote {len(y)} feature rows -> {args.out}")
    for name, value in ranking:
        print(f"{name:>4}  fisher={value:.4f}")
    return 0


def _cmd_inspect_rules(args) -> int:
    prep = _preprocessed(args)
    X = feature_vectors(prep)
    abnormal = prep.label == LABELS.index(Label.ABNORMAL)
    n, n_abnormal = len(X), int(abnormal.sum())
    for rule_id in args.rules or ["R1", "R2", "R3", "R4", "R5"]:
        rule = load_rule(rule_id)
        candidates, _ = strong_rule_filter(X, rule)
        passed = len(candidates)
        captured = int(abnormal[candidates].sum())
        cap_rate = captured / n_abnormal if n_abnormal else float("nan")
        print(
            f"{rule.rule_id}: {passed}/{n} pass ({passed / n:.1%}), "
            f"abnormal captured {captured}/{n_abnormal} ({cap_rate:.1%})"
        )
    return 0


def _load_datasets(doc: dict):
    data = from_dict(ExperimentConfig, doc).data
    if data.pair is None:
        return tuple(read_labeled_csv(path, Path(path).stem).require_time_order() for path in (data.train, data.test))
    turbine_a, turbine_b = synthgen.make_turbine_pair(data.pair.base, data.pair.profile)
    ds_a = apply_label_windows(turbine_a.records, turbine_a.truth_windows, "A")
    ds_b = apply_label_windows(turbine_b.records, turbine_b.truth_windows, "B")
    return (ds_b, ds_a) if data.direction == "BA" else (ds_a, ds_b)


def _pipeline_configs(doc: dict) -> dict[str, PipelineConfig]:
    exp = from_dict(ExperimentConfig, doc)
    # fields the experiment sets itself: run seeds derive from master_seed,
    # and every channel is denoised
    for section, key in (("learner", "seed"), ("denoise", "channels")):
        if key in doc.get(section, {}):
            raise InvalidConfig(f"{section}.{key}: unknown key")
    common = dict(
        denoise=exp.denoise,
        balance=exp.balance,
        learner=exp.learner,
        cv_k=exp.cv_k,
        n_runs=exp.n_runs,
        master_seed=exp.master_seed,
        min_segment_size=exp.min_segment_size,
    )
    configs: dict[str, PipelineConfig] = {}
    for variant in exp.variants:
        if variant == "traditional":
            configs[variant] = PipelineConfig(
                variant="traditional", traditional_raw_features=exp.traditional_raw_features, **common
            )
        elif variant == "reengineered":
            configs[variant] = PipelineConfig(
                variant="reengineered",
                rule=load_rule(exp.rule),
                segmentation=SegmentationConfig(threshold=exp.segment_threshold),
                **common,
            )
        else:
            raise InvalidConfig(f"unknown variant {variant!r}")
    return configs


def _cmd_experiment(args) -> int:
    doc = _read_config(args.config)
    if args.rule is not None:
        doc["rule"] = args.rule
    if args.segment_threshold is not None:
        doc["segment_threshold"] = args.segment_threshold
    configs = _pipeline_configs(doc)
    train, test = _load_datasets(doc)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    reports = []
    for variant, cfg in configs.items():
        if variant == "traditional":
            reports.append(run_traditional(train, test, cfg))
        else:
            reports.append(run_reengineered(train, test, cfg))
        if args.bundles:
            _dump_json(bundle_to_dict(train_bundle(train, cfg)), out_dir / f"{variant}.bundle.json")

    _dump_json(
        {"format": 1, "reports": [report_to_dict(r) for r in reports]},
        out_dir / "report.json",
    )
    text = render_report_text(reports)
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    print(text)
    return 0


def _cmd_predict(args) -> int:
    bundle = bundle_from_dict(read_json(args.bundle))
    predicted = predict_stream(bundle, parse_scada_csv(args.scada).require_time_order())
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(("time", "label", "confidence_flag"))
        labels = np.array([label.value for label in LABELS])[predicted.label].tolist()
        writer.writerows(zip(predicted.time.tolist(), labels, predicted.flagged.astype(int).tolist()))
    print(f"predicted {len(predicted)} records ({int(predicted.label.sum())} abnormal) -> {args.out}")
    return 0


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="icewatch", description="Blade-icing prediction pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="label a raw SCADA CSV with icing windows")
    p.add_argument("--scada", required=True)
    p.add_argument("--windows", required=True)
    p.add_argument("--turbine-id", default="WT")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate synthetic turbines")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="synth config JSON (or pair config with --pair)")
    p.add_argument("--pair", action="store_true", help="generate a cross-calibrated A/B pair")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("features", help="export the engineered feature matrix")
    p.add_argument("--data", required=True, help="labeled dataset CSV (from ingest)")
    p.add_argument("--ma-window", type=int, default=10)
    p.add_argument("--balance", choices=("under", "over", "none"), default="none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--rank", action="store_true", help="print Fisher-score ranking")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("experiment", help="run the configured pipelines and write reports")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default="reports")
    p.add_argument("--bundles", action="store_true", help="also train and save deployable bundles")
    p.add_argument("--rule", default=None, help="override the strong rule (R1..R5 or a JSON path)")
    p.add_argument("--segment-threshold", type=float, default=None, help="override the wind-speed split point")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("predict", help="label a raw SCADA CSV with a trained bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--scada", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("inspect-rules", help="rule pass rates on a labeled dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--ma-window", type=int, default=10)
    p.add_argument("--rules", nargs="*", default=None, help="builtin ids or JSON paths (default: R1..R5)")
    p.set_defaults(func=_cmd_inspect_rules)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
