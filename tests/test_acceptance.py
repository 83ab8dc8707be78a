"""Acceptance gate: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import forbid_exact_knn, fv_matrix, make_fv, random_record
from mlp_objective import mlp_gradient, mlp_loss
from icewatch.cli import main as cli_main
from icewatch.evaluation import ConfusionCounts, crossval_fold_scores, score
from icewatch.features import physical_features
from icewatch.learners import (
    ABNORMAL,
    NORMAL,
    LearnerConfig,
    MlpModel,
    StandardizationParams,
    predict_batch,
    train,
)
from icewatch.rules import (
    builtin_rule,
    rule_mask,
    segment,
    strong_rule_filter,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

EPS = 1e-9


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"{name} exceeded its {budget_seconds}s budget"


def random_vectors(rng, n):
    """n feature rows, float64[n, 10] in x1..x10 order."""
    x4 = rng.uniform(-3, 5, n)
    x5 = rng.uniform(-3, 4, n)
    x7 = rng.uniform(-2, 4, n)
    x10 = rng.uniform(-0.2, 0.7, n)
    other = rng.normal(size=(6, n))
    # x1..x3 pitch motor temperatures, x6 tmp_diff, x8 tip-speed ratio, x9 torque
    return np.column_stack([other[0], other[1], other[2], x4, x5, other[3], x7, other[4], other[5], x10])


def test_c01_score_formula_exactness():
    with criterion("C1 competition-score exactness", 1.0):
        assert score(ConfusionCounts(tp=90, fn=10, fp=5, tn=45)) == 90.0
        assert score(ConfusionCounts(tp=100, fn=0, fp=0, tn=50)) == 100.0
        assert score(ConfusionCounts(tp=0, fn=100, fp=50, tn=0)) == 0.0


def test_c02_physics_formula_closure():
    with criterion("C2 physics formula closure (10k records)", 5.0):
        rng = np.random.default_rng(42)
        for i in range(10_000):
            r = random_record(rng, time=i)
            out = physical_features(r)
            lhs = out["torque"] * (r.generator_speed + 5.0)
            rhs = r.power + 5.0
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))
            lhs = out["tip_speed_ratio"] * (r.wind_speed + 5.0)
            rhs = r.generator_speed + 5.0
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


def _expect_boundary(rule_id, feature, bound, inclusive, side, base_fields):
    """Check satisfaction exactly at a printed bound and one epsilon to
    either side."""
    rule = builtin_rule(rule_id)
    for value, expected in (
        (bound - EPS, side == "upper"),
        (bound, inclusive),
        (bound + EPS, side == "lower"),
    ):
        fields = dict(base_fields)
        fields[feature] = value
        X, _ = fv_matrix([make_fv(**fields)])  # one row
        assert rule_mask(rule, X).tolist() == [expected], (
            rule_id, feature, value, expected,
        )


def test_c03_rule_boundary_semantics():
    with criterion("C3 rule boundaries + monotone chain (100k)", 10.0):
        inside_r5 = dict(
            wind_speed=1.0, environment_tmp=0.0, pitch_angle_avg=0.2, power=1.0
        )
        # R1: x4 < 2 (strict upper)
        _expect_boundary("R1", "wind_speed", 2.0, False, "upper", inside_r5)
        # R2: 0.2 <= x10 <= 0.4 (both inclusive)
        _expect_boundary("R2", "pitch_angle_avg", 0.2, True, "lower", inside_r5)
        _expect_boundary("R2", "pitch_angle_avg", 0.4, True, "upper", inside_r5)
        # R3 = R1 and R2
        _expect_boundary("R3", "wind_speed", 2.0, False, "upper", inside_r5)
        _expect_boundary("R3", "pitch_angle_avg", 0.2, True, "lower", inside_r5)
        _expect_boundary("R3", "pitch_angle_avg", 0.4, True, "upper", inside_r5)
        # R4: x4 < 2, x5 < 1.5, 0.15 < x10 < 0.36 (all strict)
        _expect_boundary("R4", "wind_speed", 2.0, False, "upper", inside_r5)
        _expect_boundary("R4", "environment_tmp", 1.5, False, "upper", inside_r5)
        _expect_boundary("R4", "pitch_angle_avg", 0.15, False, "lower", inside_r5)
        _expect_boundary("R4", "pitch_angle_avg", 0.36, False, "upper", inside_r5)
        # R5 = R4 plus x7 < 2 (strict)
        _expect_boundary("R5", "wind_speed", 2.0, False, "upper", inside_r5)
        _expect_boundary("R5", "environment_tmp", 1.5, False, "upper", inside_r5)
        _expect_boundary("R5", "pitch_angle_avg", 0.15, False, "lower", inside_r5)
        _expect_boundary("R5", "pitch_angle_avg", 0.36, False, "upper", inside_r5)
        _expect_boundary("R5", "power", 2.0, False, "upper", inside_r5)

        rng = np.random.default_rng(7)
        X = random_vectors(rng, 100_000)
        s1, s4, s5 = (rule_mask(builtin_rule(r), X) for r in ("R1", "R4", "R5"))
        assert not (s5 & ~s4).any() and not (s4 & ~s1).any()


def test_c04_partition_laws():
    with criterion("C4 partition laws (100k)", 10.0):
        rng = np.random.default_rng(11)
        X = random_vectors(rng, 100_000)

        candidates, auto = strong_rule_filter(X, builtin_rule("R5"))
        assert len(candidates) + len(auto) == len(X)
        seen = np.concatenate([candidates, auto])
        assert len(np.unique(seen)) == len(X)  # no loss, no duplication
        for part in (candidates, auto):
            assert (np.diff(part) > 0).all()  # ascending: order kept

        low, high = segment(X, -0.25)
        assert len(low) + len(high) == len(X)
        seen = np.concatenate([low, high])
        assert len(np.unique(seen)) == len(X)
        for part in (low, high):
            assert (np.diff(part) > 0).all()


def _oracle_knn(X_train, y_train, queries, k):
    """Independent nearest-neighbor oracle: its own standardization, per-pair
    distances, stable sort, majority vote with abnormal tie-break."""
    mean = X_train.mean(axis=0)
    std = X_train.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    T = (X_train - mean) / std
    out = []
    for q in (queries - mean) / std:
        dists = [(float(np.sum((q - t) ** 2)), i) for i, t in enumerate(T)]
        dists.sort()
        votes = sum(int(y_train[i]) for _, i in dists[:k])
        out.append(ABNORMAL if 2 * votes >= k else NORMAL)
    return np.array(out, dtype=np.int8)


def test_c05_knn_oracle_equivalence():
    with criterion("C5 KNN vs brute-force oracle", 30.0):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 10))
        y = (rng.uniform(size=200) < 0.5).astype(np.int8)
        y[:2] = [NORMAL, ABNORMAL]
        queries = rng.normal(size=(500, 10))
        for k in (1, 3, 5):
            model = train(LearnerConfig(algorithm="knn", knn_k=k), X, y)
            got = predict_batch(model, queries)
            expected = _oracle_knn(X, y, queries, k)
            assert np.array_equal(got, expected), f"k={k} disagreement"


def test_c06_cart_separability():
    with criterion("C6 CART separability (20 seeds)", 10.0):
        cfg = LearnerConfig(algorithm="cart")
        for seed in range(20):
            rng = np.random.default_rng(seed)
            neg = rng.uniform(-1.0, -0.02, size=25)
            pos = rng.uniform(0.02, 1.0, size=25)
            X = np.concatenate([neg, pos])[:, None]
            y = np.concatenate([np.zeros(25, dtype=np.int8), np.ones(25, dtype=np.int8)])
            perm = rng.permutation(50)
            X, y = X[perm], y[perm]
            model = train(cfg, X, y)
            assert np.array_equal(predict_batch(model, X), y), f"seed {seed}: not 100%"
            assert neg.max() < model.root.threshold[0] < pos.min(), f"seed {seed}: threshold"


def test_c07_mlp_gradient_check():
    with criterion("C7 MLP gradient vs finite differences (50 draws)", 30.0):
        rng = np.random.default_rng(77)
        h = 1e-5
        for draw in range(50):
            d_in = int(rng.integers(2, 6))
            hidden = int(rng.integers(2, 8))
            m = int(rng.integers(2, 9))
            model = MlpModel(
                weights=(rng.normal(0, 0.4, (d_in, hidden)), rng.normal(0, 0.4, (hidden, 1))),
                biases=(rng.normal(0, 0.2, hidden), rng.normal(0, 0.2, 1)),
                standardization=StandardizationParams(mean=np.zeros(d_in), std=np.ones(d_in)),
                activation="sigmoid",
            )
            X = rng.normal(size=(m, d_in))
            y = list((rng.uniform(size=m) < 0.5).astype(int))
            grads_w, grads_b = mlp_gradient(model, X, y)
            analytic = np.concatenate([g.ravel() for g in grads_w + grads_b])

            fd = []
            for layer in range(2):
                for idx in np.ndindex(*model.weights[layer].shape):
                    wp = [w.copy() for w in model.weights]
                    wm = [w.copy() for w in model.weights]
                    wp[layer][idx] += h
                    wm[layer][idx] -= h
                    lp = mlp_loss(replace(model, weights=tuple(wp)), X, y)
                    lm = mlp_loss(replace(model, weights=tuple(wm)), X, y)
                    fd.append((lp - lm) / (2 * h))
            for layer in range(2):
                for idx in np.ndindex(*model.biases[layer].shape):
                    bp = [b.copy() for b in model.biases]
                    bm = [b.copy() for b in model.biases]
                    bp[layer][idx] += h
                    bm[layer][idx] -= h
                    lp = mlp_loss(replace(model, biases=tuple(bp)), X, y)
                    lm = mlp_loss(replace(model, biases=tuple(bm)), X, y)
                    fd.append((lp - lm) / (2 * h))
            fd = np.array(fd)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), np.linalg.norm(fd), 1e-12)
            assert rel < 1e-4, f"draw {draw}: relative gradient error {rel:.2e}"


def test_c08_chance_calibration():
    with criterion("C8 chance calibration (3 learners x 10 seeds)", 120.0):
        rng = np.random.default_rng(2024)
        X = rng.normal(size=(1000, 10))
        configs = {
            "knn": LearnerConfig(algorithm="knn", knn_k=3),
            "cart": LearnerConfig(algorithm="cart"),
            "mlp": LearnerConfig(algorithm="mlp"),
        }
        for name, cfg in configs.items():
            means = []
            for seed in range(10):
                y = np.zeros(1000, dtype=np.int8)
                y[:500] = 1
                y = y[np.random.default_rng(seed).permutation(1000)]  # label shuffle
                scores, _ = crossval_fold_scores(X, y, cfg, k=5, seed=seed)
                means.append(np.mean(scores))
            mean = float(np.mean(means))
            assert 40.0 <= mean <= 60.0, f"{name}: chance CV mean {mean:.2f} outside [40, 60]"


@pytest.fixture(scope="module")
def shipped_experiment():
    """Run the shipped two-turbine experiment once, then label turbine B's
    stream with both of its bundles; C9 reads the reports. Any row that
    reaches the exact KNN tier fails the fixture (forbid_exact_knn)."""
    from icewatch.cli import _experiment_config, _load_datasets, _pipeline_configs
    from icewatch.pipeline import predict_stream, run_reengineered, run_traditional, train_bundle

    doc = json.loads((CONFIG_DIR / "experiment_default.json").read_text())
    exp = _experiment_config(doc)
    train_ds, test_ds = _load_datasets(exp.data)
    configs = _pipeline_configs(exp)
    with pytest.MonkeyPatch.context() as mp:
        scored = forbid_exact_knn(mp)
        start = time.perf_counter()
        trad = run_traditional(train_ds, test_ds, configs["traditional"])
        reeng = run_reengineered(train_ds, test_ds, configs["reengineered"])
        elapsed = time.perf_counter() - start
        for cfg in configs.values():
            predict_stream(train_bundle(train_ds, cfg), test_ds)
    return trad, reeng, elapsed, scored


def test_shipped_knn_labels_never_reach_the_exact_tier(shipped_experiment):
    """Every KNN label of the default experiment and of `predict` on its
    turbine B is certified by a float screen, so none depends on this
    host's BLAS."""
    assert shipped_experiment[3] == []


def test_c09_directional_reproduction(shipped_experiment):
    with criterion("C9 re-engineered beats traditional cross-turbine", 300.0):
        trad, reeng, elapsed, _ = shipped_experiment
        assert elapsed < 300.0, f"experiment took {elapsed:.0f}s"
        trad_cell = {c["segment"]: c for c in trad["results"]}["all"]
        pooled = {c["segment"]: c for c in reeng["results"]}["pooled"]
        assert trad_cell["n_runs"] == 10 and pooled["n_runs"] == 10

        delta = pooled["test_mean"] - trad_cell["test_mean"]
        assert delta >= 5.0, f"pooled-vs-traditional test delta {delta:.2f} < 5"

        # generalization gap: CV mean minus cross-turbine test mean
        trad_gap = trad_cell["cv_mean"] - trad_cell["test_mean"]
        reeng_gap = pooled["cv_mean"] - pooled["test_mean"]
        assert trad_gap > reeng_gap, f"gaps: traditional {trad_gap:.2f} <= re-engineered {reeng_gap:.2f}"

        # the generator's documented calibration target for the default pair
        assert trad_gap >= 10.0, f"traditional CV-test gap {trad_gap:.2f} < 10"


def test_c10_determinism(tmp_path):
    with criterion("C10 byte-identical experiment reruns", 300.0):
        config = str(CONFIG_DIR / "experiment_smoke.json")
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli_main(["experiment", "--config", config, "--out-dir", str(out1)]) == 0
        assert cli_main(["experiment", "--config", config, "--out-dir", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
