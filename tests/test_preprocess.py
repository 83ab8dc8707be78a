
import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import (
    channel_matrix,
    dataset_labels,
    dataset_of,
    dataset_records,
    make_dataset,
    make_record,
    random_record,
)
from icewatch.errors import EmptyClass, InvalidConfig, TooFewNormal, WindowLargerThanSeries
from icewatch.preprocess import (
    BalanceConfig,
    DenoiseConfig,
    denoise_dataset,
    drop_invalid,
    oversample_order,
    undersample_order,
)
from icewatch.scada import CHANNELS, Label

N, A, I = Label.NORMAL, Label.ABNORMAL, Label.INVALID


class TestDropInvalid:
    def test_filters_invalid(self):
        ds = make_dataset([N, I, A])
        out = drop_invalid(ds)
        assert dataset_labels(out) == [N, A]
        assert dataset_records(out) == [dataset_records(ds)[0], dataset_records(ds)[2]]

    def test_all_invalid(self):
        out = drop_invalid(make_dataset([I, I, I]))
        assert len(out) == 0


def moving_average(series, window: int) -> np.ndarray:
    """denoise_dataset's trailing mean over a series carried in one channel."""
    ds = dataset_of([make_record(time=i, power=float(v)) for i, v in enumerate(series)], [N] * len(series))
    out = denoise_dataset(ds, DenoiseConfig(window=window, channels=("power",)))
    return np.array([r.power for r in dataset_records(out)])


class TestMovingAverage:
    def test_hand_example(self):
        # window 3 over [1,2,3,4]: means are (1+2+3)/3 = 2 and (2+3+4)/3 = 3
        assert moving_average([1, 2, 3, 4], 3).tolist() == [2.0, 3.0]

    def test_constant_series_fixed_point(self):
        assert moving_average([5, 5, 5, 5, 5], 2).tolist() == [5.0] * 4

    def test_window_larger_than_series(self):
        with pytest.raises(WindowLargerThanSeries):
            moving_average([1, 2], 10)

    def test_window_one_is_identity(self):
        x = [3.5, -1.0, 2.0]
        assert moving_average(x, 1).tolist() == x

    def test_linearity(self, rng):
        x = rng.normal(size=300)
        y = rng.normal(size=300)
        a, b = 2.5, -1.25
        lhs = moving_average(a * x + b * y, 10)
        rhs = a * moving_average(x, 10) + b * moving_average(y, 10)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_bounded_by_input_range(self, rng):
        x = rng.uniform(-7, 3, size=200)
        out = moving_average(x, 8)
        assert out.min() >= x.min() - 1e-12
        assert out.max() <= x.max() + 1e-12


class TestDenoise:
    def test_constant_dataset_unchanged(self):
        ds = make_dataset([N] * 20)
        out = denoise_dataset(ds, DenoiseConfig(window=10))
        assert len(out) == 11
        assert dataset_records(out)[0].wind_speed == 0.0
        assert dataset_records(out)[0].time == dataset_records(ds)[9].time

    def test_full_window_mean(self):
        ds = dataset_of([make_record(time=i, power=float(i)) for i in range(10)], [N] * 10)
        out = denoise_dataset(ds, DenoiseConfig(window=10))
        assert len(out) == 1
        assert dataset_records(out)[0].power == pytest.approx(np.mean(range(10)), rel=1e-12)

    def test_window_one_identity(self):
        ds = make_dataset([N, A, N])
        assert denoise_dataset(ds, DenoiseConfig(window=1)) is ds

    def test_label_is_last_raw_label(self):
        labels = [N, N, N, A, A]
        ds = make_dataset(labels)
        out = denoise_dataset(ds, DenoiseConfig(window=3))
        assert dataset_labels(out) == [N, A, A]

    def test_window_larger_than_dataset(self):
        with pytest.raises(WindowLargerThanSeries):
            denoise_dataset(make_dataset([N, A]), DenoiseConfig(window=10))

    def test_only_configured_channels_smoothed(self):
        ds = dataset_of([make_record(time=i, power=float(i), wind_speed=float(i)) for i in range(4)], [N] * 4)
        out = denoise_dataset(ds, DenoiseConfig(window=2, channels=("power",)))
        assert dataset_records(out)[0].power == 0.5
        assert dataset_records(out)[0].wind_speed == 1.0  # untouched


def per_record_denoise(records, cfg: DenoiseConfig):
    """The per-record reference: stack the records, take the trailing
    window mean, and rebuild each surviving record around its means."""
    w = cfg.window
    means = sliding_window_view(channel_matrix(records, cfg.channels), w, axis=0).mean(axis=-1)
    return [
        records[i + w - 1]._replace(**{ch: float(means[i, k]) for k, ch in enumerate(cfg.channels)})
        for i in range(means.shape[0])
    ]


@pytest.mark.parametrize("channels", [CHANNELS, ("power",), ("pitch3_ng5_DC", "wind_speed", "acc_x")])
def test_denoise_matches_per_record_path(channels, rng):
    records = [random_record(rng, time=i * 7) for i in range(120)]
    labels = [A if 40 <= i < 70 else N for i in range(120)]
    cfg = DenoiseConfig(window=10, channels=channels)
    out = denoise_dataset(dataset_of(records, labels), cfg)
    expected = per_record_denoise(records, cfg)
    assert dataset_records(out) == expected
    assert out.channels.tobytes() == channel_matrix(expected).tobytes()
    assert dataset_labels(out) == labels[9:]


def mask(n_normal: int, n_abnormal: int) -> np.ndarray:
    return np.array([False] * n_normal + [True] * n_abnormal)


class TestUnderSample:
    def test_balanced_input_keeps_everything(self):
        order = undersample_order(mask(10, 10), seed=3)
        assert sorted(order.tolist()) == list(range(20))

    def test_counts_equal_and_abnormal_preserved(self):
        m = mask(50, 7)
        order = undersample_order(m, seed=11)
        assert int(m[order].sum()) == int((~m[order]).sum()) == 7
        assert set(order[m[order]].tolist()) == set(np.flatnonzero(m).tolist())

    def test_every_output_record_exists_in_input(self):
        order = undersample_order(mask(30, 5), seed=2)
        assert all(0 <= i < 35 for i in order.tolist())
        assert len(set(order.tolist())) == order.size  # no duplicates

    def test_deterministic(self):
        m = mask(40, 6)
        assert np.array_equal(undersample_order(m, seed=9), undersample_order(m, seed=9))
        assert not np.array_equal(undersample_order(m, seed=9), undersample_order(m, seed=10))

    def test_empty_class(self):
        with pytest.raises(EmptyClass):
            undersample_order(mask(2, 0), seed=0)
        with pytest.raises(EmptyClass):
            undersample_order(mask(0, 2), seed=0)

    def test_fewer_normal_than_abnormal_rejected(self):
        with pytest.raises(TooFewNormal, match="cannot under-sample: 1 normal < 2 abnormal"):
            undersample_order(mask(1, 2), seed=0)

    def test_competition_scale_counts(self):
        # 350255 normal + 23892 abnormal collapse to 23892 per class
        m = np.zeros(350255 + 23892, dtype=bool)
        m[:23892] = True
        order = undersample_order(m, seed=0)
        assert order.size == 47784
        assert int(m[order].sum()) == 23892


class TestOverSample:
    def test_duplicates_minority(self):
        m = mask(5, 2)
        order = oversample_order(m, seed=4)
        assert order.size == 10
        assert int(m[order].sum()) == int((~m[order]).sum()) == 5

    def test_balanced_unchanged(self):
        assert oversample_order(np.array([False, True, False, True]), seed=1).tolist() == [0, 1, 2, 3]

    def test_deterministic(self):
        m = mask(8, 3)
        assert np.array_equal(oversample_order(m, seed=5), oversample_order(m, seed=5))


def test_balance_config_validation():
    with pytest.raises(InvalidConfig):
        BalanceConfig(method="hybrid")
    with pytest.raises(InvalidConfig):
        DenoiseConfig(window=0)
    with pytest.raises(InvalidConfig):
        DenoiseConfig(channels=("nope",))
