"""icewatch benchmark: the two commands users run, on seeded workloads.

    python3 perfbench/run.py --workload experiment-knn --seed 13 --seconds 24 --trace 0

Run from the repository root. An operation is one fresh child process
``python -m icewatch.cli experiment --bundles``, or on predict-stream two
``python -m icewatch.cli predict`` children, one per bundle. The loop is
closed with one client: the next child starts when the previous one has
exited. Children run with ICEWATCH_THREADS unset, the sequential default;
the benchmark refuses to run if it is set.

With ``--trace 0`` the run reports the end-to-end metrics:

- op_s: median time of one operation, spawn to exit, scaled to a reference
  host speed (see HostSpeed); raw wall times are in the details line
- records_per_s: records per operation over op_s (both turbines read by an
  experiment, the 2 x 8,000 records labeled by a predict pair)
- setup_s: median of three set-ups (seeded inputs plus an import warm-up
  child), scaled the same way
- peak_rss_mb: largest ru_maxrss of the operation children

With ``--trace 1`` it runs the same operations in-process through
``icewatch.cli.main``, alternating untraced and traced, and reports
per-layer metrics from spans recorded around the calls into each module
(see tracer.py and layers.json); ``src/`` is not touched.

Every workload synthesizes an 8,000-record turbine pair from the shipped
smoke configuration. The benchmark seed sets the synthesis seed,
``master_seed`` and ``balance.seed``; seed 13 reproduces the shipped smoke
data, other seeds draw the synthesis seed from seeds.json (see
make_seeds.py). The program sees only the generated config, CSV and bundle
files. Every operation's outputs are checked: on seed 13 against the digests
in reference.json, on other seeds against the run's first operation.

The last line of standard output is the result JSON; the line before it
holds the environment, the samples and the output digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

SHIPPED_SEED = 13
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120.0
VARIANTS = ("traditional", "reengineered")
# Reported operation times are seconds on a host where reference_work.py
# takes this long; see HostSpeed.
REFERENCE_S = 0.5

# workload -> overrides of the smoke config (perfbench/workload_base.json).
# experiment-knn runs 6 seeded runs so KNN prediction outweighs the fixed
# preprocessing; experiment-mlp trains 15 epochs instead of 200 so one
# operation fits the run length while MLP training still dominates.
WORKLOADS: dict[str, dict] = {
    "experiment-knn": {"learner": {"algorithm": "knn", "knn_k": 3}, "n_runs": 6},
    "experiment-cart": {"learner": {"algorithm": "cart"}},
    "experiment-mlp": {"learner": {"algorithm": "mlp", "mlp_epochs": 15}},
    "predict-stream": {"learner": {"algorithm": "knn", "knn_k": 3}},
}


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


# --- inputs -----------------------------------------------------------------------


def workload_config(workload: str, seed: int) -> tuple[dict, int]:
    doc = json.loads((HERE / "workload_base.json").read_text(encoding="utf-8"))
    if seed == SHIPPED_SEED:
        synth_seed = SHIPPED_SEED
    else:
        table = json.loads((HERE / "seeds.json").read_text(encoding="utf-8"))["seeds"]
        synth_seed = table[seed % len(table)]
    doc["data"]["pair"]["base"]["seed"] = synth_seed
    doc["master_seed"] = seed
    doc["balance"]["seed"] = seed
    doc.update(WORKLOADS[workload])
    return doc, synth_seed


def _dump_json(doc, path: Path) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """Inputs and operations of one workload in a private work directory."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.work = work
        self.doc, self.synth_seed = workload_config(name, seed)
        self.duration = int(self.doc["data"]["pair"]["base"]["duration"])
        self.is_predict = name == "predict-stream"
        # records read per experiment (both turbines) or labeled per predict pair
        self.records_per_op = 2 * self.duration

    def setup(self) -> None:
        """Write the seeded inputs; for predict-stream also synthesize the
        pair, write turbine B's raw CSV and train both bundles on turbine A."""
        from icewatch import cli, pipeline, scada, synthgen

        self.work.mkdir(parents=True, exist_ok=True)
        _dump_json(self.doc, self.work / "config.json")
        if self.is_predict:
            pair = self.doc["data"]["pair"]
            turbine_a, turbine_b = synthgen.make_turbine_pair(
                synthgen.config_from_dict(pair["base"]), synthgen.profile_from_dict(pair["profile"])
            )
            scada.write_scada_csv(turbine_b.records, self.work / "B.csv")
            train = scada.apply_label_windows(turbine_a.records, turbine_a.truth_windows, "A")
            for variant, cfg in cli._pipeline_configs(self.doc).items():
                bundle = pipeline.train_bundle(train, cfg)
                _dump_json(pipeline.bundle_to_dict(bundle), self.work / f"{variant}.bundle.json")

    def argvs(self, tag: str) -> list[list[str]]:
        """CLI argument lists of one operation; outputs go under ``tag``."""
        out = self.work / tag
        if self.is_predict:
            return [
                ["predict", "--bundle", str(self.work / f"{v}.bundle.json"), "--scada", str(self.work / "B.csv"),
                 "--out", str(out / f"{v}.labels.csv")]
                for v in VARIANTS
            ]
        return [["experiment", "--config", str(self.work / "config.json"), "--out-dir", str(out), "--bundles"]]

    def check_outputs(self, tag: str) -> dict[str, str]:
        """Sanity-check one operation's outputs and return their digests."""
        out = self.work / tag
        if self.is_predict:
            digests = {}
            for v in VARIANTS:
                path = out / f"{v}.labels.csv"
                lines = path.read_text(encoding="utf-8").splitlines()
                if lines[0] != "time,label,confidence_flag" or len(lines) != self.duration + 1:
                    raise AssertionError(f"{path.name}: {len(lines)} lines, header {lines[0]!r}")
                if not {line.split(",")[1] for line in lines[1:]} <= {"normal", "abnormal"}:
                    raise AssertionError(f"{path.name}: unknown label")
                digests[v] = _sha256(path)
            return digests
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        pipelines = [r["results"][0]["pipeline"] for r in report["reports"]]
        if pipelines != list(VARIANTS):
            raise AssertionError(f"report.json covers {pipelines}")
        for r in report["reports"]:
            for cell in r["results"]:
                if not 0.0 <= cell["test_mean"] <= 100.0:
                    raise AssertionError(f"report.json: test score {cell['test_mean']} out of range")
        for v in VARIANTS:
            json.loads((out / f"{v}.bundle.json").read_text(encoding="utf-8"))
        return {"report.json": _sha256(out / "report.json")}


# --- running operations -------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list[str], env: dict[str, str], log: Path) -> tuple[float, int, float]:
    """Run ``python -m icewatch.cli *args`` to exit: (wall s, exit code, max RSS MB)."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "icewatch.cli", *args], env=env, stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def run_inprocess(argv: list[str]) -> tuple[float, int]:
    """Call ``icewatch.cli.main`` (looked up at call time, so a traced
    binding is used when installed): (wall s, exit code)."""
    import icewatch.cli

    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = icewatch.cli.main(argv)
        wall = time.perf_counter() - t0
    return wall, code


class Checker:
    """Compares each operation's digests with the reference (seed 13) or
    with the run's first operation (other seeds)."""

    def __init__(self, workload: str, seed: int):
        self.expected = None
        if seed == SHIPPED_SEED:
            refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
            if workload not in refs:
                raise BenchError(f"reference.json has no digests for {workload}")
            self.expected = refs[workload]
        self.seen: list[dict[str, str]] = []

    def ok(self, digests: dict[str, str]) -> bool:
        if self.expected is None:
            self.expected = digests
        self.seen.append(digests)
        return digests == self.expected


def run_op(wl: Workload, checker: Checker, index: int, runner) -> dict:
    """One operation through ``runner(args, stderr_log) -> (wall, code, rss)``."""
    tag = f"op{index}"
    (wl.work / tag).mkdir()
    wall, rss, codes = 0.0, 0.0, []
    for k, args in enumerate(wl.argvs(tag)):
        log = wl.work / tag / f"stderr{k}.txt"
        w, code, r = runner(args, log)
        wall, rss = wall + w, max(rss, r)
        codes.append(code)
        if code != 0 and log.is_file():
            sys.stderr.write(log.read_text(errors="replace")[-2000:])
    ok = all(c == 0 for c in codes)
    digests = None
    if ok:
        try:
            digests = wl.check_outputs(tag)
            ok = checker.ok(digests)
        except (OSError, ValueError, KeyError, IndexError, AssertionError) as exc:
            print(f"{wl.name} {tag}: output check failed: {exc}", file=sys.stderr)
            ok = False
    if not ok:
        print(f"{wl.name} {tag}: failed (exit codes {codes}, digests {digests})", file=sys.stderr)
    shutil.rmtree(wl.work / tag, ignore_errors=True)
    return {"wall": wall, "rss": rss, "ok": ok, "codes": codes}


def measure(seconds: float, step) -> list:
    """Call ``step(i)`` until the next call would likely end past ``seconds``."""
    results, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step(len(results)))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return results


def tail(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    out = {"n": len(ordered), "median": statistics.median(ordered), "samples": samples}
    for p in (99.9, 99, 95, 90, 75):
        q = ordered[min(len(ordered) - 1, int(p / 100 * len(ordered)))]
        if sum(1 for x in ordered if x > q) >= 10:
            out[f"p{p:g}"] = q
            break
    return out


# --- environment --------------------------------------------------------------------


def _loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _git_commit() -> str | None:
    """HEAD's commit when run in a git work tree (a benchmark checkout has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "git_commit": _git_commit(),
        "loadavg_before": _loadavg(),
    }


# --- host-speed reference -----------------------------------------------------------


class HostSpeed:
    """Scales operation times to a reference host speed.

    On a shared 2-vCPU host the speed drifts by 10-25% over tens of seconds
    (other tenants; steal time stays near zero and a child's CPU time tracks
    its wall time), so the medians of separate runs differ by more than the
    run length can average away. A reference child (reference_work.py, no
    icewatch code, so no change to the program moves it) runs between
    operations; each operation's wall time is scaled by REFERENCE_S over the
    mean of the reference times just before and just after it. On
    experiment-cart that cut the spread of 20-second medians across runs from
    about 0.2 to about 0.08 of the median. Raw wall times stay in the
    details line.
    """

    def __init__(self, env: dict[str, str], log: Path):
        self.env, self.log = env, log
        self.references = [self._reference()]

    def _reference(self) -> float:
        t0 = time.perf_counter()
        with open(self.log, "wb") as err:
            code = subprocess.run([sys.executable, str(HERE / "reference_work.py")], env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=err, timeout=CHILD_TIMEOUT_S).returncode
        if code != 0:
            raise BenchError(f"reference_work.py exited {code}: {self.log.read_text()}")
        return time.perf_counter() - t0

    def scale(self, seconds: float) -> float:
        """Call right after the timed work ends; the next timed work starts after this returns."""
        self.references.append(self._reference())
        return seconds * REFERENCE_S * 2 / (self.references[-2] + self.references[-1])


# --- the two modes ------------------------------------------------------------------


def run_untraced(wl: Workload, seconds: float) -> tuple[dict, dict, list[dict]]:
    env = child_env()
    wl.work.mkdir(parents=True)
    speed = HostSpeed(env, wl.work / "reference.err")
    setups, setups_wall = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        # import warm-up: the first timed child must not pay for cold caches
        _, code, _ = run_child(["--help"], env, wl.work / "warmup.err")
        setups_wall.append(time.perf_counter() - t0)
        setups.append(speed.scale(setups_wall[-1]))
        if code != 0:
            raise BenchError(f"`icewatch --help` exited {code}: {(wl.work / 'warmup.err').read_text()}")
    checker = Checker(wl.name, wl.seed)

    def step(i: int) -> dict:
        op = run_op(wl, checker, i, lambda args, log: run_child(args, env, log))
        op["normalized"] = speed.scale(op["wall"])
        return op

    ops = measure(seconds, step)
    op_s = statistics.median(o["normalized"] for o in ops)
    metrics = {
        "op_s": (op_s, "s"),
        "records_per_s": (wl.records_per_op / op_s, "records/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(o["rss"] for o in ops), "MB"),
    }
    details = {
        "op_s": tail([o["normalized"] for o in ops]),
        "wall_s": [o["wall"] for o in ops],
        "reference_s": speed.references,
        "setup_s": setups,
        "setup_wall_s": setups_wall,
        "digests": checker.seen,
    }
    return metrics, details, ops


def run_traced(wl: Workload, seconds: float, layers: dict) -> tuple[dict, dict, list[dict], list[str]]:
    import tracer as tr

    errors = tr.self_test()
    t = tr.Tracer()
    t.install()
    try:
        wl.setup()
    finally:
        errors += [f"{b} still wrapped after restore" for b in t.restore()]
    setup_roots = {i for i, s in enumerate(t.spans) if s.parent < 0}

    checker = Checker(wl.name, wl.seed)
    speed = HostSpeed(child_env(), wl.work / "reference.err")
    plain_walls, traced_walls, traced_raw = [], [], []

    def inprocess(args, _log):
        try:
            wall, code = run_inprocess(args)
        except Exception:  # noqa: BLE001 - an escaped exception is a failed operation
            traceback.print_exc()
            return 0.0, 1, 0.0
        return wall, code, 0.0

    def pair(i: int) -> list[dict]:
        plain = run_op(wl, checker, 2 * i, inprocess)
        plain_walls.append(speed.scale(plain["wall"]))
        t.install()
        try:
            traced = run_op(wl, checker, 2 * i + 1, inprocess)
        finally:
            errors.extend(f"{b} still wrapped after restore" for b in t.restore())
        traced_walls.append(speed.scale(traced["wall"]))
        traced_raw.append(traced["wall"])
        return [plain, traced]

    ops = [o for p in measure(seconds, pair) for o in p]
    n_ops = len(traced_walls)
    op_roots = {i for i, s in enumerate(t.spans) if s.parent < 0 and s.name == "cli.main"} - setup_roots
    per_op = t.stats(op_roots)
    once = t.stats(setup_roots)
    table = {}
    for name in set(per_op) | set(once):
        a, b = per_op.get(name, tr.Stats()), once.get(name, tr.Stats())
        table[name] = tr.Stats(
            calls=round((a.calls / n_ops) + b.calls),
            self_s=a.self_s / n_ops + b.self_s,
            incl_s=a.incl_s / n_ops + b.incl_s,
            rows_in=round(a.rows_in / n_ops) + b.rows_in,
            rows_out=round(a.rows_out / n_ops) + b.rows_out,
        )
    plain_med, traced_med = statistics.median(plain_walls), statistics.median(traced_walls)
    overhead = (traced_med - plain_med) / plain_med
    accounted = sum(s.self_s for s in per_op.values()) / sum(traced_raw)
    if abs(1.0 - accounted) > max(abs(overhead), 0.01):
        errors.append(f"self times account for {accounted:.4f} of the traced wall time")

    expected = layers[wl.name]["expect_calls"]
    for name in expected:
        if table.get(name, tr.Stats()).calls < 1:
            errors.append(f"{name} recorded no call on {wl.name}: wrapper on the wrong binding?")

    metrics = layer_metrics(table, overhead, accounted)
    op_wall = sum(traced_raw) / n_ops
    shares = {name: st.self_s / n_ops / op_wall for name, st in per_op.items()}
    details = {
        "traced_op_s": traced_walls,
        "untraced_op_s": plain_walls,
        "op_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "setup_self_s": {name: st.self_s for name, st in once.items()},
        "digests": checker.seen,
    }
    return metrics, details, ops, errors


def layer_metric_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    import tracer as tr

    names = {}
    for module_name, attrs in tr.BINDINGS.items():
        module = __import__(module_name, fromlist=["_"])
        for attr in attrs:
            names.setdefault(tr.span_name(getattr(module, attr)), None)
    spec = []
    for name in sorted(names):
        spec += [(f"{name}.self_s", "s", "lower"), (f"{name}.calls", "count", "lower")]
        if name in tr.ROWS:
            spec.append((f"{name}.rows", "rows", "lower"))
        if name.startswith("pipeline.") or name == "cli.main":
            spec.append((f"{name}.incl_s", "s", "lower"))
    spec += [
        ("learners.predict_batch.rows_per_call", "rows", "higher"),
        ("preprocess.drop_invalid.kept_ratio", "ratio", "higher"),
        ("rules.strong_rule_filter.pass_ratio", "ratio", "lower"),
        ("scada.parse_scada_csv.rows_per_s", "rows/s", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.accounted_frac", "ratio", "higher"),
    ]
    return spec


def layer_metrics(table: dict, overhead: float, accounted: float) -> dict:
    import tracer as tr

    def ratio(a, b):
        return a / b if b else 0.0

    get = lambda name: table.get(name, tr.Stats())  # noqa: E731
    spec = layer_metric_spec()
    values = {}
    for name, _, _ in spec:
        layer, _, field = name.rpartition(".")
        st = get(layer)
        if field in ("self_s", "incl_s", "calls"):
            values[name] = getattr(st, field)
        elif field == "rows":
            values[name] = st.rows_in
    values["learners.predict_batch.rows_per_call"] = ratio(get("learners.predict_batch").rows_in, get("learners.predict_batch").calls)
    values["preprocess.drop_invalid.kept_ratio"] = ratio(get("preprocess.drop_invalid").rows_out, get("preprocess.drop_invalid").rows_in)
    values["rules.strong_rule_filter.pass_ratio"] = ratio(get("rules.strong_rule_filter").rows_out, get("rules.strong_rule_filter").rows_in)
    values["scada.parse_scada_csv.rows_per_s"] = ratio(get("scada.parse_scada_csv").rows_out, get("scada.parse_scada_csv").self_s)
    values["trace.overhead_frac"] = overhead
    values["trace.accounted_frac"] = accounted
    return {name: (values[name], unit) for name, unit, _ in spec}


# --- entry point --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=SHIPPED_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if "ICEWATCH_THREADS" in os.environ:
        raise BenchError("ICEWATCH_THREADS is set; unset it so children take the sequential default")
    if not (SRC / "icewatch" / "__init__.py").is_file():
        raise BenchError(f"no icewatch sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import icewatch

    if Path(icewatch.__file__).resolve().parent != (SRC / "icewatch").resolve():
        raise BenchError(f"icewatch imported from {icewatch.__file__}, not from {SRC}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [m["name"] for m in bench["per_layer"]] != [n for n, _, _ in layer_metric_spec()]:
        raise BenchError("BENCHMARK.json per_layer does not match the metrics this benchmark produces")

    env_block = environment()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    wl = Workload(args.workload, args.seed, work)
    try:
        if args.trace:
            layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
            metrics, details, ops, errors = run_traced(wl, args.seconds, layers)
        else:
            metrics, details, ops = run_untraced(wl, args.seconds)
            errors = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()
    env_block["loadavg_after"] = _loadavg()
    for message in errors:
        print(f"self-test failed: {message}", file=sys.stderr)
    failed = sum(1 for o in ops if not o["ok"])
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({"workload": wl.name, "seed": wl.seed, "synth_seed": wl.synth_seed,
                      "environment": env_block, **details}))
    result = {
        "correct": failed == 0 and not errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        raise SystemExit(2)
