"""Command-line interface.

Subcommands: ingest (raw CSV + windows -> labeled dataset), synth
(generate turbines), features (export the feature matrix), experiment
(run the configured pipelines and write reports), predict (bundle + raw
CSV -> labels CSV), inspect-rules (rule pass rates on a dataset).

Exit codes: 0 success, 2 configuration or usage error, 3 data error.
The `icewatch` command flushes its standard streams and ends the process
without the interpreter's teardown; output that cannot be written, help
included, is a data error (exit 3). An error line that stderr cannot take
is lost, and the exit code stays that of the error.

Each command imports only what it runs: synth and experiment load the
synthetic generator (icewatch.synthgen) on first use, and the other
commands, predict among them, never do.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

# One BLAS thread per process, set before numpy loads: the seeded runs go
# side by side in forked processes (pipeline._map_runs), and BLAS threads
# spinning in each process would slow them down. An explicit value wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .errors import ConfigError, DataError, InvalidConfig  # noqa: E402
from .features import feature_vectors, rank_features, write_feature_csv  # noqa: E402
from .pipeline import (  # noqa: E402
    VARIANTS,
    PipelineConfig,
    Settings,
    bundle_from_dict,
    bundle_to_dict,
    predict_stream,
    prepare,
    render_report_text,
    run_reengineered,
    run_traditional,
    train_bundle,
)
from .preprocess import DenoiseConfig, oversample_order, undersample_order  # noqa: E402
from .rules import load_rule, strong_rule_filter  # noqa: E402
from .scada import (  # noqa: E402
    LABELS,
    Label,
    apply_label_windows,
    parse_label_windows_csv,
    parse_scada_csv,
    read_labeled_csv,
    write_label_windows_csv,
    write_labeled_csv,
    write_predicted_labels_csv,
    write_scada_csv,
)
from .schema import ANY, check, from_dict, one_of, read_json, to_dict  # noqa: E402


@dataclass(frozen=True)
class DataConfig:
    """Where an experiment's train and test turbines come from: a synthetic
    pair generated on the fly, or two labeled CSV files."""

    pair: synthgen.PairConfig | None = None  # resolved once _experiment_config loads synthgen
    direction: str = field(default="AB", metadata=one_of("AB", "BA"))  # "BA" trains on turbine B and tests on A
    train: str | None = None
    test: str | None = None

    def __post_init__(self):
        if self.pair is None and (self.train is None or self.test is None):
            raise InvalidConfig("data must contain either 'pair' or 'train'+'test'")
        check(self)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(Settings):
    """The experiment JSON document (configs/experiment_default.json): the
    settings its variants share, and its own."""

    data: DataConfig
    variants: tuple[str, ...] = field(default=VARIANTS, metadata=one_of(*VARIANTS))
    traditional_raw_features: bool = False
    rule: str = "R5"  # builtin id or rule JSON path
    segment_threshold: float = field(default=-0.25, metadata=ANY)

    def __post_init__(self):
        check(self)
        if not self.variants or len(set(self.variants)) < len(self.variants):
            raise InvalidConfig(f"variants must be one or more distinct variants, got {list(self.variants)}")


def _experiment_config(doc: dict) -> ExperimentConfig:
    """The experiment config decoded from `doc`. DataConfig.pair's
    annotation names synthgen, which from_dict resolves in this module's
    globals, so the module is loaded there first."""
    global synthgen
    from . import synthgen

    exp = from_dict(ExperimentConfig, doc)
    if "seed" in doc["learner"]:  # the experiment derives each run's learner seed from master_seed
        raise InvalidConfig("learner.seed: unknown key")
    return exp


def _read_config(path: str) -> dict:
    """The top-level JSON object of a config file."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise InvalidConfig(f"top level: expected object, got {doc!r}")
    return doc


def _float_rows(rows: list) -> str:
    """json.dumps(rows, indent=2) for a non-empty list of non-empty lists of
    floats, by joins of float.__repr__; TypeError for any other value."""
    if not rows:
        raise TypeError("no rows")
    lines = []
    for row in rows:
        if type(row) is not list or not row:
            raise TypeError("not a row")
        line = ",\n    ".join(map(float.__repr__, row))  # TypeError on a value that is not a float
        if "n" in line:  # nan or inf, which json writes NaN, Infinity or -Infinity
            line = ",\n    ".join(map(json.dumps, row))
        lines.append(line)
    return "[\n  [\n    " + "\n  ],\n  [\n    ".join(lines) + "\n  ]\n]"


def _json_text(doc) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) + "\\n", byte for byte.
    json's indenting encoder runs in Python, one call per value, so each
    list of float rows (a KNN model's X, an MLP's weights) is rendered by
    _float_rows and spliced in, re-indented, where a "\\0" stands for it.
    A level of nested objects costs one frame, as in schema.to_dict, so
    every tree that to_dict writes is written here too."""
    blocks = []

    def cut(value):
        if type(value) is dict:  # in json's key order, which is the blocks' order
            out = {}
            for key in sorted(value):  # a loop, not a comprehension: one frame per level
                out[key] = cut(value[key])
            return out
        if type(value) is list:
            try:
                blocks.append(_float_rows(value))
                return "\0"
            except TypeError:
                return [cut(v) for v in value]
        return value

    parts = json.dumps(cut(doc), sort_keys=True, indent=2).split('"\\u0000"')
    if len(parts) != len(blocks) + 1:  # the document holds a "\\0" string of its own
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    text = parts[0]
    for block, part in zip(blocks, parts[1:]):
        line = text[text.rfind("\n") + 1 :]
        text += block.replace("\n", "\n" + " " * (len(line) - len(line.lstrip(" ")))) + part
    return text + "\n"


def _dump_json(doc, path: Path) -> None:
    path.write_text(_json_text(doc), encoding="utf-8")


# --- subcommands ----------------------------------------------------------------


def _cmd_ingest(args) -> int:
    frame = parse_scada_csv(args.scada, args.turbine_id)
    windows = parse_label_windows_csv(args.windows)
    dataset = apply_label_windows(frame, windows, args.turbine_id)
    write_labeled_csv(dataset, args.out)
    counts = ", ".join(f"{n} {label.value}" for label, n in dataset.label_counts().items())
    print(f"{dataset.turbine_id}: {len(dataset)} records ({counts}) -> {args.out}")
    return 0


def _write_turbine(out: synthgen.SynthOutput, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    write_scada_csv(out.records, directory / "scada.csv")
    write_label_windows_csv(out.truth_windows, directory / "windows.csv")
    counts = {label.value: out.truth_labels.count(label) for label in LABELS}
    ledger = {"episodes": [to_dict(e) for e in out.episode_ledger], "counts": counts}
    _dump_json(ledger, directory / "ledger.json")


def _cmd_synth(args) -> int:
    from . import synthgen

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
    return prepare(read_labeled_csv(args.data, Path(args.data).stem), denoise)


def _cmd_features(args) -> int:
    if args.seed < 0:
        raise InvalidConfig(f"--seed must be >= 0, got {args.seed}")
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
            f"{rule.id}: {passed}/{n} pass ({passed / n:.1%}), "
            f"abnormal captured {captured}/{n_abnormal} ({cap_rate:.1%})"
        )
    return 0


def _load_datasets(data: DataConfig):
    if data.pair is None:
        return tuple(read_labeled_csv(path, Path(path).stem) for path in (data.train, data.test))
    turbine_a, turbine_b = synthgen.make_turbine_pair(data.pair.base, data.pair.profile)
    ds_a = apply_label_windows(turbine_a.records, turbine_a.truth_windows, "A")
    ds_b = apply_label_windows(turbine_b.records, turbine_b.truth_windows, "B")
    return (ds_b, ds_a) if data.direction == "BA" else (ds_a, ds_b)


def _pipeline_configs(exp: ExperimentConfig | dict) -> dict[str, PipelineConfig]:
    """The pipeline config of each variant of the experiment config `exp`,
    decoded first if it is the JSON document."""
    if isinstance(exp, dict):
        exp = _experiment_config(exp)
    shared = {f.name: getattr(exp, f.name) for f in fields(Settings)}
    return {
        variant: PipelineConfig(variant=variant, traditional_raw_features=exp.traditional_raw_features, **shared)
        if variant == "traditional"
        else PipelineConfig(
            variant=variant, rule=load_rule(exp.rule), segment_threshold=exp.segment_threshold, **shared
        )
        for variant in exp.variants
    }


def _cmd_experiment(args) -> int:
    doc = _read_config(args.config)
    if args.rule is not None:
        doc["rule"] = args.rule
    if args.segment_threshold is not None:
        doc["segment_threshold"] = args.segment_threshold
    exp = _experiment_config(doc)
    configs = _pipeline_configs(exp)
    train, test = _load_datasets(exp.data)

    # every variant runs before any output is written, so a failing variant
    # leaves no partial set; a bundle is held as its file's text, which
    # takes no more memory than the file
    reports, bundles = [], {}
    for variant, cfg in configs.items():
        if variant == "traditional":
            reports.append(run_traditional(train, test, cfg))
        else:
            reports.append(run_reengineered(train, test, cfg))
        if args.bundles:
            name = f"{variant}.bundle.json"
            try:
                bundles[name] = _json_text(bundle_to_dict(train_bundle(train, cfg)))
            except RecursionError:  # a tree too deep to write, as read_json reports one too deep to read
                raise InvalidConfig(f"{name}: nested too deeply") from None

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in bundles.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    _dump_json({"format": 1, "reports": reports}, out_dir / "report.json")
    text = render_report_text(reports)
    (out_dir / "report.txt").write_text(text, encoding="utf-8")
    print(text)
    return 0


def _cmd_predict(args) -> int:
    bundle = read_json(args.bundle, bundle_from_dict)  # a tree too deep to decode exits as one too deep to parse
    predicted = predict_stream(bundle, parse_scada_csv(args.scada))
    write_predicted_labels_csv(predicted.time, predicted.label, predicted.flagged, args.out)
    print(f"predicted {len(predicted)} records ({int(predicted.label.sum())} abnormal) -> {args.out}")
    return 0


# --- parser ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a help text it cannot write raises
    the write's OSError: argparse swallows it, so that help into a full
    disk would exit 0. A usage error raises SystemExit with its usage line
    and error line as text, which main reports like any other error:
    argparse would write the usage line to stdout once sys.stderr is None."""

    def error(self, message):
        raise SystemExit(f"{self.format_usage()}{self.prog}: error: {message}")

    def print_help(self, file=None):
        file = file or sys.stdout or sys.stderr  # argparse's choice: stderr once fd 1 is closed
        if file is not None:
            file.write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="icewatch", description="Blade-icing prediction pipelines")
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # from parse_args: after the help, or _Parser.error's text
        if not isinstance(exc.code, str):
            return 2 if exc.code not in (0, None) else 0
        code, message = 2, exc.code
    except ConfigError as exc:
        code, message = 2, f"config error: {exc}"
    except DataError as exc:
        code, message = 3, f"data error: {exc}"
    except FileNotFoundError as exc:
        code, message = 3, f"file not found: {exc.filename}"
    except json.JSONDecodeError as exc:
        code, message = 2, f"config error: invalid JSON: {exc}"
    except OSError as exc:
        code, message = 3, f"data error: {exc}"
    _report(message)
    return code


def _report(message: str) -> None:
    """Print an error's line to stderr if stderr can take it; an error that
    cannot be reported keeps its exit code."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(message, file=sys.stderr, flush=True)


def entry() -> None:
    """Run main and end the process with its exit code, skipping the
    interpreter's teardown, whose final garbage collections cost tens of
    milliseconds per process. That is safe because teardown has nothing left to do:
    every output file is closed before main returns (with open, or
    Path.write_text), pipeline._map_runs closes its pipes and reaps its
    children, and icewatch registers no atexit handler and starts no
    thread or logger. What remains buffered is the standard streams, so
    they are flushed first; Python sets a stream to None when its file
    descriptor is closed. A stdout that fails to flush is a data error,
    reported on stderr if stderr can take it; a stderr that fails keeps
    main's code, as _report does. An exception that escapes main is a bug
    and leaves by the usual path, traceback and teardown."""
    code = main()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            code = 3
            _report(f"data error: {exc}")
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
