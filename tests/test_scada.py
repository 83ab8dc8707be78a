import io
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import dataset_labels, dataset_of, dataset_records, frame_of, make_record, random_record
from icewatch.errors import (
    EmptyFile,
    MissingColumn,
    NonNumericCell,
    OverlappingWindows,
    UnexpectedColumn,
    UnparseableTimestamp,
)
from icewatch.scada import (
    CHANNELS,
    COLUMNS,
    Frame,
    Label,
    LabeledDataset,
    LabelWindow,
    WindowKind,
    apply_label_windows,
    parse_label_windows_csv,
    parse_scada_csv,
    read_labeled_csv,
    summarize,
    write_label_windows_csv,
    write_labeled_csv,
    write_scada_csv,
)


def csv_text(header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    return io.StringIO("\n".join(lines) + "\n")


def full_row(time="100", value="1.5", group="1"):
    return [time] + [value] * len(CHANNELS) + [group]


class TestParse:
    def test_two_valid_rows(self):
        records = dataset_records(parse_scada_csv(csv_text(COLUMNS, [full_row("100"), full_row("107")])))
        assert len(records) == 2
        assert records[0].time == 100
        assert records[1].time == 107
        assert records[0].wind_speed == 1.5
        assert records[0].group == 1

    def test_any_column_order(self):
        header = list(COLUMNS)
        random.Random(5).shuffle(header)
        idx = {name: i for i, name in enumerate(header)}
        row = [""] * len(header)
        row[idx["time"]] = "42"
        row[idx["group"]] = "3"
        for ch in CHANNELS:
            row[idx[ch]] = "2.25"
        records = dataset_records(parse_scada_csv(csv_text(header, [row])))
        assert records[0].time == 42
        assert records[0].power == 2.25
        assert records[0].group == 3

    def test_iso_timestamps_autodetected(self):
        records = dataset_records(
            parse_scada_csv(csv_text(COLUMNS, [full_row("2015-11-01 00:00:07"), full_row("2015-11-01 00:00:14")]))
        )
        assert records[1].time - records[0].time == 7

    def test_missing_column(self):
        header = [c for c in COLUMNS if c != "wind_speed"]
        with pytest.raises(MissingColumn) as err:
            parse_scada_csv(csv_text(header, [full_row()[:-1]]))
        assert err.value.name == "wind_speed"

    def test_unexpected_column(self):
        header = list(COLUMNS) + ["humidity"]
        with pytest.raises(UnexpectedColumn):
            parse_scada_csv(csv_text(header, [full_row() + ["0"]]))

    def test_non_numeric_cell(self):
        row = full_row()
        row[1 + CHANNELS.index("power")] = "abc"
        with pytest.raises(NonNumericCell):
            parse_scada_csv(csv_text(COLUMNS, [row]))

    def test_nan_cell_rejected(self):
        row = full_row()
        row[1 + CHANNELS.index("acc_x")] = "nan"
        with pytest.raises(NonNumericCell):
            parse_scada_csv(csv_text(COLUMNS, [row]))

    def test_bad_timestamp(self):
        with pytest.raises(UnparseableTimestamp):
            parse_scada_csv(csv_text(COLUMNS, [full_row("not-a-time")]))

    def test_empty_file(self):
        with pytest.raises(EmptyFile):
            parse_scada_csv(io.StringIO(""))
        with pytest.raises(EmptyFile):
            parse_scada_csv(csv_text(COLUMNS, []))

    def test_round_trip_bitwise(self, rng):
        records = [random_record(rng, time=i * 7) for i in range(50)]
        buf = io.StringIO()
        write_scada_csv(frame_of(records), buf)
        buf.seek(0)
        assert dataset_records(parse_scada_csv(buf)) == records


class TestWindows:
    def test_membership_half_open(self):
        records = [make_record(time=t) for t in (49, 50, 100, 149, 150)]
        ds = apply_label_windows(frame_of(records), [LabelWindow(50, 150, WindowKind.ICING)])
        assert dataset_labels(ds) == [
            Label.INVALID,
            Label.ABNORMAL,
            Label.ABNORMAL,
            Label.ABNORMAL,
            Label.INVALID,
        ]

    def test_record_in_no_window_is_invalid(self):
        records = [make_record(time=200)]
        windows = [
            LabelWindow(50, 150, WindowKind.ICING),
            LabelWindow(160, 190, WindowKind.NORMAL),
        ]
        ds = apply_label_windows(frame_of(records), windows)
        assert dataset_labels(ds)[0] is Label.INVALID

    def test_normal_window(self):
        ds = apply_label_windows(frame_of([make_record(time=10)]), [LabelWindow(0, 20, WindowKind.NORMAL)])
        assert dataset_labels(ds)[0] is Label.NORMAL

    def test_overlap_rejected_across_classes(self):
        windows = [
            LabelWindow(50, 150, WindowKind.ICING),
            LabelWindow(140, 190, WindowKind.NORMAL),
        ]
        with pytest.raises(OverlappingWindows):
            apply_label_windows(frame_of([make_record(time=10)]), windows)

    def test_touching_windows_allowed(self):
        windows = [
            LabelWindow(50, 150, WindowKind.ICING),
            LabelWindow(150, 190, WindowKind.NORMAL),
        ]
        ds = apply_label_windows(frame_of([make_record(time=150)]), windows)
        assert dataset_labels(ds)[0] is Label.NORMAL

    def test_order_independence(self, rng):
        records = [make_record(time=t) for t in range(0, 500, 7)]
        windows = [
            LabelWindow(0, 100, WindowKind.NORMAL),
            LabelWindow(100, 180, WindowKind.ICING),
            LabelWindow(200, 350, WindowKind.NORMAL),
            LabelWindow(400, 450, WindowKind.ICING),
        ]
        reference = dataset_labels(apply_label_windows(frame_of(records), windows))
        for _ in range(5):
            shuffled = list(windows)
            rng.shuffle(shuffled)
            labels = dataset_labels(apply_label_windows(frame_of(records), shuffled))
            assert labels == reference

    def test_partition_counts(self, rng):
        records = [make_record(time=t) for t in range(0, 400, 3)]
        windows = [
            LabelWindow(0, 90, WindowKind.NORMAL),
            LabelWindow(95, 170, WindowKind.ICING),
        ]
        ds = apply_label_windows(frame_of(records), windows)
        counts = ds.label_counts()
        assert sum(counts.values()) == len(ds)

    def test_window_csv_round_trip(self):
        windows = [
            LabelWindow(50, 150, WindowKind.ICING),
            LabelWindow(150, 190, WindowKind.NORMAL),
        ]
        buf = io.StringIO()
        write_label_windows_csv(windows, buf)
        buf.seek(0)
        assert parse_label_windows_csv(buf) == windows


class TestSummarize:
    def test_counts(self):
        records = [make_record(time=t) for t in (0, 10, 20)]
        ds = apply_label_windows(
            frame_of(records),
            [LabelWindow(0, 5, WindowKind.NORMAL), LabelWindow(8, 12, WindowKind.ICING)],
            "T1",
        )
        s = summarize(ds)
        assert (s.n_normal, s.n_abnormal, s.n_invalid) == (1, 1, 1)
        assert s.time_span == (0, 20)
        assert s.turbine_id == "T1"

    def test_empty(self):
        s = summarize(dataset_of([], [], "x"))
        assert (s.n_normal, s.n_abnormal, s.n_invalid) == (0, 0, 0)
        assert s.time_span is None

    def test_matches_generator_truth(self):
        # counts must equal the generator's own episode bookkeeping
        from icewatch.synthgen import SynthConfig, generate_turbine

        out = generate_turbine(SynthConfig(duration=6000, seed=7))
        ds = apply_label_windows(out.records, out.truth_windows, "synth")
        s = summarize(ds)
        truth = {label: 0 for label in Label}
        for label in out.truth_labels:
            truth[label] += 1
        assert s.n_normal == truth[Label.NORMAL]
        assert s.n_abnormal == truth[Label.ABNORMAL]
        assert s.n_invalid == truth[Label.INVALID]


def test_labeled_csv_round_trip(rng):
    records = [random_record(rng, time=i * 7) for i in range(30)]
    windows = [LabelWindow(0, 100, WindowKind.NORMAL), LabelWindow(100, 140, WindowKind.ICING)]
    ds = apply_label_windows(frame_of(records), windows, "T9")
    buf = io.StringIO()
    write_labeled_csv(ds, buf)
    buf.seek(0)
    back = read_labeled_csv(buf, "T9")
    assert back.turbine_id == ds.turbine_id
    assert dataset_records(back) == dataset_records(ds) == records
    assert dataset_labels(back) == dataset_labels(ds)


# finite doubles, with -0.0, the smallest subnormal and +-1.7e308 always in reach
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, -5e-324, 1.7e308, -1.7e308])
INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def labeled_datasets(draw):
    n = draw(st.integers(1, 8))
    return LabeledDataset(
        draw(arrays(np.int64, n, elements=INT64)),
        draw(arrays(np.float64, (n, len(CHANNELS)), elements=FINITE)),
        draw(arrays(np.int64, n, elements=INT64)),
        "T",
        draw(arrays(np.int8, n, elements=st.integers(0, 2))),
    )


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(labeled_datasets())
def test_frame_csv_round_trip_is_bitwise(ds):
    frame = Frame(ds.time, ds.channels, ds.group)
    buf = io.StringIO()
    write_scada_csv(frame, buf)
    buf.seek(0)
    back = parse_scada_csv(buf)
    assert all(same_bits(getattr(back, c), getattr(frame, c)) for c in ("time", "channels", "group"))

    buf = io.StringIO()
    write_labeled_csv(ds, buf)
    buf.seek(0)
    back = read_labeled_csv(buf, "T")
    assert all(same_bits(getattr(back, c), getattr(ds, c)) for c in ("time", "channels", "group", "label"))
