"""Synthetic SCADA stream generator with ground-truth icing episodes.

Stands in for proprietary turbine data so experiments run at desk scale.
Dynamics are deliberately simple: wind follows an AR(1) process, ambient
temperature a diurnal cycle plus noise, and the turbine responds to wind
in three regimes. Below cut-in the blades sit at a small pitch angle and
power is near zero; between cut-in and rated wind speed power grows with
the cube of wind speed; above rated the controller pitches the blades and
power saturates. Icing episodes start stochastically while the ambient
temperature is below a trigger threshold, persist for a sampled duration,
derate power, droop generator speed, and bias pitch into a slightly
different small-angle band.

Every channel is finally passed through a per-channel affine map (scale,
offset) imitating the provider's desensitization; this is what produces
negative "wind speeds" and makes thresholds like -0.25 meaningful. A
turbine pair for cross-turbine experiments shares physics but differs in
these calibration affines and in noise seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import InvalidConfig
from .scada import CHANNELS, LABELS, Frame, Label, LabelWindow, WindowKind
from .schema import ANY, NONZERO, at_least, check, from_dict, within

START_EPOCH = 1446336000  # 2015-11-01T00:00:00Z, a winter campaign start


@dataclass(frozen=True)
class WindModel:
    mean: float = field(default=5.5, metadata=ANY)
    persistence: float = field(default=0.98, metadata=within("[0, 1)"))  # AR(1) coefficient
    noise: float = field(default=0.5, metadata=at_least(0))


@dataclass(frozen=True)
class TemperatureModel:
    mean: float = field(default=0.0, metadata=ANY)
    diurnal_amplitude: float = field(default=4.0, metadata=ANY)
    noise: float = field(default=0.8, metadata=at_least(0))


@dataclass(frozen=True)
class IcingTrigger:
    temp_threshold: float = field(default=-1.0, metadata=ANY)
    hazard: float = field(default=0.0005, metadata=within("[0, 1]"))  # per-record start probability while cold
    min_len: int = field(default=150, metadata=at_least(1))
    max_len: int = field(default=600, metadata=at_least(1))


@dataclass(frozen=True)
class IcingEffect:
    power_derating: float = field(default=0.35, metadata=within("(0, 1)"))  # fraction of power retained at severity 1
    generator_droop: float = field(default=0.78, metadata=within("(0, 1)"))
    pitch_shift: float = field(default=-0.15, metadata=ANY)  # truth-degrees bias of the iced pitch band
    severity_min: float = field(default=0.75, metadata=within("(0, 1]"))  # per-episode severity drawn uniformly
    severity_max: float = field(default=1.0, metadata=within("(0, 1]"))


@dataclass(frozen=True)
class SynthConfig:
    duration: int = field(default=20000, metadata=at_least(1))
    nominal_dt: int = field(default=7, metadata=at_least(2))
    start_epoch: int = field(default=START_EPOCH, metadata=ANY)
    wind: WindModel = field(default_factory=WindModel)
    temperature: TemperatureModel = field(default_factory=TemperatureModel)
    trigger: IcingTrigger = field(default_factory=IcingTrigger)
    effect: IcingEffect = field(default_factory=IcingEffect)
    cut_in: float = field(default=3.0, metadata=ANY)
    rated: float = field(default=8.0, metadata=ANY)
    label_buffer: int = field(default=20, metadata=at_least(0))  # records near episode edges left unlabeled
    desensitize: dict[str, tuple[float, float]] = field(default_factory=dict, metadata=ANY)
    seed: int = field(default=0, metadata=at_least(0))

    def __post_init__(self):
        check(self)
        if not -(2**63) <= self.start_epoch + self.duration * self.nominal_dt < 2**63:
            raise InvalidConfig("start_epoch + duration * nominal_dt must fit in int64")
        if self.trigger.min_len > self.trigger.max_len:
            raise InvalidConfig("icing min_len exceeds max_len")
        if self.effect.severity_min > self.effect.severity_max:
            raise InvalidConfig("icing severity_min exceeds severity_max")
        if self.cut_in >= self.rated:
            raise InvalidConfig("cut_in must be below rated wind speed")
        for ch, (scale, _) in self.desensitize.items():
            if ch not in CHANNELS:
                raise InvalidConfig(f"unknown channel in desensitize map: {ch!r}")
            if scale == 0.0:
                raise InvalidConfig(f"desensitize scale for {ch} must be nonzero")


# Default calibration: maps truth units onto the desensitized scale where
# cut-in lands at -0.25 wind speed, the quiescent pitch band sits inside
# (0.15, 0.36), warm records exceed the x5 < 1.5 rule bound, and full power
# exceeds the x7 < 2 bound, so the strong rule has real bite.
DEFAULT_DESENSITIZE: dict[str, tuple[float, float]] = {
    "wind_speed": (0.25, -1.0),
    "generator_speed": (2.0, -0.6),
    "power": (2.3, 0.02),
    "wind_direction": (1.0 / 180.0, 0.0),
    "wind_direction_mean": (1.0 / 180.0, 0.0),
    "yaw_position": (1.0 / 180.0, 0.0),
    "yaw_speed": (1.0, 0.0),
    "pitch1_angle": (0.25, 0.0),
    "pitch2_angle": (0.25, 0.0),
    "pitch3_angle": (0.25, 0.0),
    "pitch1_speed": (1.0, 0.0),
    "pitch2_speed": (1.0, 0.0),
    "pitch3_speed": (1.0, 0.0),
    "pitch1_moto_tmp": (0.08, -1.2),
    "pitch2_moto_tmp": (0.08, -1.2),
    "pitch3_moto_tmp": (0.08, -1.2),
    "acc_x": (1.0, 0.0),
    "acc_y": (1.0, 0.0),
    "environment_tmp": (0.35, 0.4),
    "int_tmp": (0.35, 0.4),
    "pitch1_ng5_tmp": (0.08, -0.6),
    "pitch2_ng5_tmp": (0.08, -0.6),
    "pitch3_ng5_tmp": (0.08, -0.6),
    "pitch1_ng5_DC": (1.0, -1.2),
    "pitch2_ng5_DC": (1.0, -1.2),
    "pitch3_ng5_DC": (1.0, -1.2),
}


@dataclass(frozen=True)
class Episode:
    start: int  # epoch seconds, half-open window convention
    end: int
    severity: float


@dataclass(frozen=True)
class SynthOutput:
    records: Frame
    truth_windows: tuple[LabelWindow, ...]
    episode_ledger: tuple[Episode, ...]
    truth_labels: tuple[Label, ...]  # per-record ground truth, buffers included


def _wind_speeds(wm: WindModel, n: int, rng) -> np.ndarray:
    """n AR(1) wind speeds around the mean, never below 0.05. The recurrence
    overwrites the shocks in place through a memoryview, on Python floats:
    the same double operations as on numpy scalars, without their
    per-element cost or a list of n float objects."""
    wind = rng.normal(0.0, wm.noise, size=n)
    speeds = memoryview(wind)
    mean, persistence = wm.mean, wm.persistence
    speed = speeds[0] = mean + speeds[0]
    for i in range(1, n):
        speed = speeds[i] = mean + persistence * (speed - mean) + speeds[i]
    return np.clip(wind, 0.05, None, out=wind)


def _simulate_episodes(cfg: SynthConfig, temp: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, float]]]:
    """Per-record icing flag and severity plus (start, end, severity) index spans."""
    n = cfg.duration
    hazard_draw = rng.uniform(size=n)
    in_icing = np.zeros(n, dtype=bool)
    severity = np.zeros(n)
    spans: list[tuple[int, int, float]] = []
    end = 0
    # an episode starts at each cold record that draws the hazard, unless
    # it falls inside the previous episode
    for i in np.flatnonzero((temp < cfg.trigger.temp_threshold) & (hazard_draw < cfg.trigger.hazard)).tolist():
        if i < end:
            continue
        length = int(rng.integers(cfg.trigger.min_len, cfg.trigger.max_len + 1))
        sev = float(rng.uniform(cfg.effect.severity_min, cfg.effect.severity_max))
        end = min(i + length, n)
        in_icing[i:end] = True
        severity[i:end] = sev
        spans.append((i, end - 1, sev))
    return in_icing, severity, spans


def _truth_label_array(n: int, spans: Sequence[tuple[int, int, float]], buffer: int) -> np.ndarray:
    """Codes into LABELS: 0=normal, 1=icing, 2=invalid (unlabeled buffer
    around episodes)."""
    labels = np.zeros(n, dtype=np.int8)
    for first, last, _ in spans:
        lo = max(0, first - buffer)
        hi = min(n, last + 1 + buffer)
        labels[lo:hi] = 2
        labels[first : last + 1] = 1
    return labels


def _windows_from_labels(labels: np.ndarray, times: np.ndarray) -> list[LabelWindow]:
    """One window per run of equal labels: normal (0) and icing (1) runs
    get a window, invalid runs none."""
    starts = np.concatenate(([0], np.flatnonzero(np.diff(labels)) + 1))
    ends = np.append(starts[1:], labels.shape[0])
    kinds = {0: WindowKind.NORMAL, 1: WindowKind.ICING}
    return [
        LabelWindow(int(times[first]), int(times[end - 1]) + 1, kinds[code])
        for first, end, code in zip(starts.tolist(), ends.tolist(), labels[starts].tolist())
        if code in kinds
    ]


def generate_turbine(cfg: SynthConfig) -> SynthOutput:
    """Generate one turbine's stream. Pure function of the config."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.duration
    dt = cfg.nominal_dt
    times = cfg.start_epoch + dt * np.arange(n, dtype=np.int64)

    wind = _wind_speeds(cfg.wind, n, rng)

    # ambient temperature: diurnal cycle plus noise; the campaign starts in
    # the cold half of the cycle so short streams can still ice up
    tm = cfg.temperature
    day_phase = np.pi + 2.0 * np.pi * (dt * np.arange(n)) / 86400.0
    temp = tm.mean + tm.diurnal_amplitude * np.sin(day_phase) + rng.normal(0.0, tm.noise, size=n)

    in_icing, severity, spans = _simulate_episodes(cfg, temp, rng)

    below_cut_in = wind < cfg.cut_in
    above_rated = wind >= cfg.rated
    mid = ~below_cut_in & ~above_rated

    # power, normalized so rated output is 1
    power = np.empty(n)
    power[below_cut_in] = np.abs(rng.normal(0.0, 0.004, size=int(below_cut_in.sum())))
    power[mid] = (wind[mid] / cfg.rated) ** 3 * (1.0 + rng.normal(0.0, 0.04, size=int(mid.sum())))
    power[above_rated] = 1.0 + rng.normal(0.0, 0.03, size=int(above_rated.sum()))

    # generator speed, normalized so rated speed is 1
    gen = np.empty(n)
    gen[below_cut_in] = 0.08 + rng.normal(0.0, 0.01, size=int(below_cut_in.sum()))
    gen[mid] = (wind[mid] / cfg.rated) * (1.0 + rng.normal(0.0, 0.02, size=int(mid.sum())))
    gen[above_rated] = 1.0 + rng.normal(0.0, 0.02, size=int(above_rated.sum()))

    # pitch control: quiescent small-angle band, opens above rated wind
    pitch = 1.0 + rng.normal(0.0, 0.18, size=n)
    pitch[above_rated] = 1.0 + 2.2 * (wind[above_rated] - cfg.rated) + rng.normal(
        0.0, 0.2, size=int(above_rated.sum())
    )

    # icing: derate power, droop the generator, bias pitch into the iced band
    eff = cfg.effect
    power = np.where(in_icing, power * (1.0 - severity * (1.0 - eff.power_derating)), power)
    gen = np.where(in_icing, gen * (1.0 - severity * (1.0 - eff.generator_droop)), gen)
    iced_pitch = 1.0 + eff.pitch_shift + rng.normal(0.0, 0.12, size=n)
    pitch = np.where(in_icing, iced_pitch, pitch)
    np.clip(power, 0.0, None, out=power)
    np.clip(gen, 0.0, None, out=gen)

    # remaining channels; the cabin temperature carries its own weather so
    # tmp_diff has healthy variance rather than being a near-constant
    int_tmp = temp + 12.0 + 3.0 * power + rng.normal(0.0, 1.2, size=n)
    direction = np.cumsum(rng.normal(0.0, 2.0, size=n))
    direction = (direction + 180.0) % 360.0 - 180.0
    direction_mean = direction + rng.normal(0.0, 1.0, size=n)
    yaw_position = direction + rng.normal(0.0, 3.0, size=n)
    yaw_speed = rng.normal(0.0, 0.1, size=n)
    pitch_speed_scale = np.where(above_rated & ~in_icing, 0.3, 0.05)
    acc_scale = 0.01 + 0.004 * wind

    truth = {
        "wind_speed": wind,
        "generator_speed": gen,
        "power": power,
        "wind_direction": direction,
        "wind_direction_mean": direction_mean,
        "yaw_position": yaw_position,
        "yaw_speed": yaw_speed,
        "environment_tmp": temp,
        "int_tmp": int_tmp,
        "acc_x": rng.normal(0.0, 1.0, size=n) * acc_scale,
        "acc_y": rng.normal(0.0, 1.0, size=n) * acc_scale,
    }
    for blade in (1, 2, 3):
        truth[f"pitch{blade}_angle"] = pitch + rng.normal(0.0, 0.05, size=n)
        truth[f"pitch{blade}_speed"] = rng.normal(0.0, 1.0, size=n) * pitch_speed_scale
        truth[f"pitch{blade}_moto_tmp"] = temp + 15.0 + 2.5 * power + rng.normal(0.0, 0.8, size=n)
        truth[f"pitch{blade}_ng5_tmp"] = temp + 8.0 + rng.normal(0.0, 0.5, size=n)
        truth[f"pitch{blade}_ng5_DC"] = 1.0 + 0.5 * power + rng.normal(0.0, 0.05, size=n)

    affines = dict(DEFAULT_DESENSITIZE)
    affines.update(cfg.desensitize)
    sensed = {ch: affines[ch][0] * truth[ch] + affines[ch][1] for ch in CHANNELS}

    group = (dt * np.arange(n, dtype=np.int64)) // 86400 + 1
    records = Frame(times, np.stack([sensed[ch] for ch in CHANNELS], axis=1), group)

    label_array = _truth_label_array(n, spans, cfg.label_buffer)
    windows = _windows_from_labels(label_array, times)
    ledger = tuple(
        Episode(start=int(times[first]), end=int(times[last]) + 1, severity=sev)
        for first, last, sev in spans
    )
    truth_labels = tuple(LABELS[code] for code in label_array.tolist())
    return SynthOutput(
        records=records,
        truth_windows=tuple(windows),
        episode_ledger=ledger,
        truth_labels=truth_labels,
    )


@dataclass(frozen=True)
class OffsetProfile:
    """Cross-turbine calibration difference: per-channel affine perturbation
    (scale multiplies, offset adds in desensitized units) plus a seed shift.
    Physics parameters are never touched, so truth labels for a given seed
    are unaffected."""

    scale: dict[str, float] = field(default_factory=dict, metadata=NONZERO)
    offset: dict[str, float] = field(default_factory=dict, metadata=ANY)
    seed_offset: int = field(default=1, metadata=ANY)

    def __post_init__(self):
        check(self)
        unknown = (set(self.scale) | set(self.offset)) - set(CHANNELS)
        if unknown:
            raise InvalidConfig(f"unknown channels in offset profile: {sorted(unknown)}")


def apply_offset_profile(cfg: SynthConfig, profile: OffsetProfile) -> SynthConfig:
    base = dict(DEFAULT_DESENSITIZE)
    base.update(cfg.desensitize)
    shifted = {}
    for ch, (a, b) in base.items():
        shifted[ch] = (a * profile.scale.get(ch, 1.0), b + profile.offset.get(ch, 0.0))
    return replace(cfg, seed=cfg.seed + profile.seed_offset, desensitize=shifted)


def make_turbine_pair(base: SynthConfig, profile: OffsetProfile) -> tuple[SynthOutput, SynthOutput]:
    """Two turbines sharing physics but differing in sensor calibration."""
    turbine_a = generate_turbine(base)
    turbine_b = generate_turbine(apply_offset_profile(base, profile))
    return turbine_a, turbine_b


def default_offset_profile() -> OffsetProfile:
    """The shipped calibration shift used by the two-turbine experiments."""
    return OffsetProfile(
        scale={
            "power": 0.78,
            "generator_speed": 0.95,
        },
        offset={
            "wind_speed": 0.08,
            "environment_tmp": -0.10,
            "int_tmp": 0.06,
            "pitch1_moto_tmp": -0.12,
            "pitch2_moto_tmp": -0.12,
            "pitch3_moto_tmp": -0.12,
            "power": -0.02,
        },
        seed_offset=1,
    )


@dataclass(frozen=True)
class PairConfig:
    """A turbine pair: the shared base config plus turbine B's calibration shift."""

    base: SynthConfig = field(default_factory=SynthConfig)
    profile: OffsetProfile = field(default_factory=default_offset_profile)


def config_from_dict(doc: dict) -> SynthConfig:
    return from_dict(SynthConfig, doc)


def profile_from_dict(doc: dict) -> OffsetProfile:
    return from_dict(OffsetProfile, doc)
