import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import ICING, NORMAL, dataset_labels, dataset_records, same_bits, windows_of
from icewatch import synthgen
from icewatch.errors import InvalidConfig
from icewatch.scada import CHANNELS, Label, apply_label_windows
from icewatch.synthgen import (
    IcingEffect,
    IcingTrigger,
    OffsetProfile,
    SynthConfig,
    apply_offset_profile,
    config_from_dict,
    default_offset_profile,
    generate_turbine,
    make_turbine_pair,
    profile_from_dict,
)

SMOKE = Path(__file__).resolve().parent.parent / "configs" / "experiment_smoke.json"


class TestGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(duration=3000, seed=21)
        a, b = generate_turbine(cfg), generate_turbine(cfg)
        assert dataset_records(a.records) == dataset_records(b.records)
        assert same_bits(a.truth_windows, b.truth_windows)
        assert a.episode_ledger == b.episode_ledger

    def test_impossible_trigger_means_no_episodes(self):
        cfg = SynthConfig(
            duration=5000, seed=3, trigger=IcingTrigger(temp_threshold=-1e9)
        )
        out = generate_turbine(cfg)
        assert out.episode_ledger == ()
        assert all(label is not Label.ABNORMAL for label in out.truth_labels)
        assert (out.truth_windows["kind"] == NORMAL).all()

    def test_icing_fraction_within_band(self):
        # calibration contract of the default config, checked at full scale
        for seed in range(10):
            out = generate_turbine(SynthConfig(duration=100_000, seed=seed))
            frac = sum(1 for l in out.truth_labels if l is Label.ABNORMAL) / 100_000
            assert 0.02 <= frac <= 0.10, f"seed {seed}: icing fraction {frac:.3f}"

    def test_truth_windows_reproduce_labels(self):
        out = generate_turbine(SynthConfig(duration=8000, seed=7))
        ds = apply_label_windows(out.records, out.truth_windows, "S")
        assert tuple(dataset_labels(ds)) == out.truth_labels

    def test_windows_are_the_runs_of_normal_and_icing_labels(self):
        labels = np.array([2, 2, 0, 0, 1, 1, 1, 2, 0], dtype=np.int8)
        times = 7 * np.arange(len(labels), dtype=np.int64)
        want = windows_of((14, 22, NORMAL), (28, 43, ICING), (56, 57, NORMAL))
        assert same_bits(synthgen._windows_from_labels(labels, times), want)
        assert same_bits(synthgen._windows_from_labels(np.full(3, 2, np.int8), times[:3]), windows_of())

    def test_ledger_matches_windows(self):
        out = generate_turbine(SynthConfig(duration=20000, seed=5))
        icing_windows = out.truth_windows[out.truth_windows["kind"] == ICING].tolist()
        assert len(icing_windows) == len(out.episode_ledger)
        for (start, end, _), e in zip(icing_windows, out.episode_ledger):
            assert (start, end) == (e.start, e.end)
            assert 0.0 < e.severity <= 1.0

    def test_monotone_derating_by_wind_decile(self):
        cfg = SynthConfig(duration=40000, seed=2)
        out = generate_turbine(cfg)
        wind = out.records.channels[:, CHANNELS.index("wind_speed")]
        power = out.records.channels[:, CHANNELS.index("power")]
        icing = np.array([l is Label.ABNORMAL for l in out.truth_labels])
        normal = np.array([l is Label.NORMAL for l in out.truth_labels])
        edges = np.quantile(wind, np.linspace(0, 1, 11))
        compared = 0
        for lo, hi in zip(edges, edges[1:]):
            in_bin = (wind >= lo) & (wind < hi)
            if (in_bin & icing).sum() >= 30 and (in_bin & normal).sum() >= 30:
                assert power[in_bin & icing].mean() < power[in_bin & normal].mean()
                compared += 1
        assert compared >= 4

    def test_time_and_group(self):
        cfg = SynthConfig(duration=100, seed=1, nominal_dt=7)
        out = generate_turbine(cfg)
        times = out.records.time.tolist()
        assert times == list(range(cfg.start_epoch, cfg.start_epoch + 700, 7))
        assert all(group >= 1 for group in out.records.group.tolist())

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(duration=0)
        with pytest.raises(InvalidConfig):
            SynthConfig(effect=IcingEffect(power_derating=1.5))
        with pytest.raises(InvalidConfig):
            SynthConfig(trigger=IcingTrigger(min_len=10, max_len=5))
        with pytest.raises(InvalidConfig):
            SynthConfig(desensitize={"bogus_channel": (1.0, 0.0)})
        with pytest.raises(InvalidConfig):
            SynthConfig(effect=IcingEffect(severity_min=0.0))


class TestPair:
    def test_zero_profile_only_changes_seed(self):
        base = SynthConfig(duration=2000, seed=10)
        a, b = make_turbine_pair(base, OffsetProfile(seed_offset=1))
        assert same_turbine(a, generate_turbine(base))
        assert same_turbine(b, generate_turbine(replace(base, seed=11, desensitize=b_desens(base))))

    def test_offsets_do_not_move_truth_windows(self):
        base = SynthConfig(duration=4000, seed=10)
        _, b = make_turbine_pair(base, default_offset_profile())
        unoffset_same_seed = generate_turbine(replace(base, seed=11))
        assert same_bits(b.truth_windows, unoffset_same_seed.truth_windows)
        assert b.truth_labels == unoffset_same_seed.truth_labels

    def test_offsets_change_sensor_values(self):
        base = SynthConfig(duration=1000, seed=10)
        _, b = make_turbine_pair(base, default_offset_profile())
        unoffset = generate_turbine(replace(base, seed=11))
        first_b, first_unoffset = dataset_records(b.records)[0], dataset_records(unoffset.records)[0]
        assert first_b.power != first_unoffset.power
        assert first_b.yaw_speed == first_unoffset.yaw_speed  # unshifted channel

    def test_profile_validation(self):
        with pytest.raises(InvalidConfig):
            OffsetProfile(scale={"power": 0.0})
        with pytest.raises(InvalidConfig):
            OffsetProfile(offset={"nope": 1.0})


def same_turbine(a, b) -> bool:
    """Field-wise equality of two generator outputs, records row by row."""
    return (
        dataset_records(a.records) == dataset_records(b.records)
        and same_bits(a.truth_windows, b.truth_windows)
        and (a.episode_ledger, a.truth_labels) == (b.episode_ledger, b.truth_labels)
    )


def b_desens(base: SynthConfig):
    return apply_offset_profile(base, OffsetProfile(seed_offset=1)).desensitize


class TestConfigIo:
    def test_round_trip(self):
        cfg = SynthConfig(duration=1234, seed=99, desensitize={"power": (2.0, -0.5)})
        assert config_from_dict(asdict(cfg)) == cfg

    def test_profile_round_trip(self):
        profile = default_offset_profile()
        assert profile_from_dict(asdict(profile)) == profile

    def test_defaults_from_empty_dict(self):
        assert config_from_dict({}) == SynthConfig()


# --- the per-record loops as a reference ----------------------------------------


def reference_wind_speeds(wm, n, rng):
    """The AR(1) recurrence on numpy scalars, one record at a time."""
    shocks = rng.normal(0.0, wm.noise, size=n)
    wind = np.empty(n)
    wind[0] = wm.mean + shocks[0]
    for i in range(1, n):
        wind[i] = wm.mean + wm.persistence * (wind[i - 1] - wm.mean) + shocks[i]
    np.clip(wind, 0.05, None, out=wind)
    return wind


def reference_simulate_episodes(cfg, temp, rng):
    """Every record tested in turn; an episode's records are skipped."""
    n = cfg.duration
    hazard_draw = rng.uniform(size=n)
    in_icing = np.zeros(n, dtype=bool)
    severity = np.zeros(n)
    spans = []
    i = 0
    while i < n:
        if temp[i] < cfg.trigger.temp_threshold and hazard_draw[i] < cfg.trigger.hazard:
            length = int(rng.integers(cfg.trigger.min_len, cfg.trigger.max_len + 1))
            sev = float(rng.uniform(cfg.effect.severity_min, cfg.effect.severity_max))
            end = min(i + length, n)
            in_icing[i:end] = True
            severity[i:end] = sev
            spans.append((i, end - 1, sev))
            i = end
        else:
            i += 1
    return in_icing, severity, spans


def _smoke_base():
    return config_from_dict(json.loads(SMOKE.read_text())["data"]["pair"]["base"])


REFERENCE_CASES = {
    "smoke": _smoke_base,
    "smoke-turbine-b": lambda: apply_offset_profile(_smoke_base(), default_offset_profile()),
    "hazard-0.05": lambda: SynthConfig(duration=3000, seed=4, trigger=IcingTrigger(hazard=0.05, min_len=40, max_len=40)),
    "hazard-1": lambda: SynthConfig(duration=3000, seed=4, trigger=IcingTrigger(hazard=1.0, min_len=70, max_len=70)),
    "always-cold": lambda: SynthConfig(duration=3000, seed=8, trigger=IcingTrigger(temp_threshold=1e9, hazard=0.01)),
    "shorter-than-an-episode": lambda: SynthConfig(
        duration=100, seed=2, trigger=IcingTrigger(temp_threshold=1e9, hazard=0.2, min_len=150, max_len=600)
    ),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_generator_matches_per_record_loops(case, monkeypatch):
    """generate_turbine gives the bits of the per-record loops: the same
    draws in the same order, the same double operations."""
    cfg = REFERENCE_CASES[case]()
    got = generate_turbine(cfg)
    calls = []
    for name, reference in (("_wind_speeds", reference_wind_speeds), ("_simulate_episodes", reference_simulate_episodes)):
        monkeypatch.setattr(synthgen, name, lambda *args, ref=reference: calls.append(ref) or ref(*args))
    want = generate_turbine(cfg)
    assert len(calls) == 2
    for column in ("time", "channels", "group"):
        a, b = getattr(got.records, column), getattr(want.records, column)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), column
    assert same_bits(got.truth_windows, want.truth_windows)
    assert got.episode_ledger == want.episode_ledger
    assert got.truth_labels == want.truth_labels
    assert got.episode_ledger  # every case starts at least one episode
