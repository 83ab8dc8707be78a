import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    dataset_labels,
    dataset_of,
    dataset_records,
    frame_of,
    make_record,
    random_record,
    reference_feature_csv,
    reference_frame_csv,
    reference_predicted_labels_csv,
    reference_windows_csv,
)
from icewatch.errors import DataError
from icewatch.features import write_feature_csv
from icewatch import scada
from icewatch.scada import (
    CHANNELS,
    COLUMNS,
    LABELS,
    Frame,
    Label,
    LabeledDataset,
    LabelWindow,
    WindowKind,
    apply_label_windows,
    parse_label_windows_csv,
    parse_scada_csv,
    read_labeled_csv,
    write_label_windows_csv,
    write_labeled_csv,
    write_predicted_labels_csv,
    write_scada_csv,
)


LABELED_COLUMNS = COLUMNS + ("label",)


def csv_file(path, header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def full_row(time="100", value="1.5", group="1"):
    return [time] + [value] * len(CHANNELS) + [group]


class TestParse:
    def test_two_valid_rows(self, tmp_path):
        path = csv_file(tmp_path / "s.csv", COLUMNS, [full_row("100"), full_row("107")])
        records = dataset_records(parse_scada_csv(path))
        assert len(records) == 2
        assert records[0].time == 100
        assert records[1].time == 107
        assert records[0].wind_speed == 1.5
        assert records[0].group == 1

    def test_any_column_order(self, tmp_path):
        header = list(COLUMNS)
        random.Random(5).shuffle(header)
        idx = {name: i for i, name in enumerate(header)}
        row = [""] * len(header)
        row[idx["time"]] = "42"
        row[idx["group"]] = "3"
        for ch in CHANNELS:
            row[idx[ch]] = "2.25"
        records = dataset_records(parse_scada_csv(csv_file(tmp_path / "s.csv", header, [row])))
        assert records[0].time == 42
        assert records[0].power == 2.25
        assert records[0].group == 3

    def test_iso_timestamps_autodetected(self, tmp_path):
        rows = [full_row("2015-11-01 00:00:07"), full_row("2015-11-01 00:00:14")]
        records = dataset_records(parse_scada_csv(csv_file(tmp_path / "s.csv", COLUMNS, rows)))
        assert records[1].time - records[0].time == 7

    def test_missing_column(self, tmp_path):
        header = [c for c in COLUMNS if c != "wind_speed"]
        with pytest.raises(DataError, match="^missing required column: 'wind_speed'$"):
            parse_scada_csv(csv_file(tmp_path / "s.csv", header, [full_row()[:-1]]))

    def test_unexpected_column(self, tmp_path):
        header = list(COLUMNS) + ["humidity"]
        with pytest.raises(DataError, match="^unexpected column in header: 'humidity'$"):
            parse_scada_csv(csv_file(tmp_path / "s.csv", header, [full_row() + ["0"]]))

    def test_non_numeric_cell(self, tmp_path):
        row = full_row()
        row[1 + CHANNELS.index("power")] = "abc"
        with pytest.raises(DataError, match="^row 1, column 'power': not a finite number: 'abc'$"):
            parse_scada_csv(csv_file(tmp_path / "s.csv", COLUMNS, [row]))

    def test_nan_cell_rejected(self, tmp_path):
        row = full_row()
        row[1 + CHANNELS.index("acc_x")] = "nan"
        with pytest.raises(DataError, match="^row 1, column 'acc_x': not a finite number: 'nan'$"):
            parse_scada_csv(csv_file(tmp_path / "s.csv", COLUMNS, [row]))

    def test_bad_timestamp(self, tmp_path):
        with pytest.raises(DataError, match="^row 1: cannot parse timestamp 'not-a-time'$"):
            parse_scada_csv(csv_file(tmp_path / "s.csv", COLUMNS, [full_row("not-a-time")]))

    def test_empty_file(self, tmp_path):
        (tmp_path / "empty.csv").write_text("")
        with pytest.raises(DataError, match="^SCADA file for turbine contains no data rows$"):
            parse_scada_csv(tmp_path / "empty.csv")
        with pytest.raises(DataError, match="^SCADA file for turbine contains no data rows$"):
            parse_scada_csv(csv_file(tmp_path / "s.csv", COLUMNS, []))
        with pytest.raises(DataError, match="^labeled dataset file contains no data rows$"):
            read_labeled_csv(csv_file(tmp_path / "d.csv", LABELED_COLUMNS, []))

    def test_times_must_not_decrease(self, tmp_path):
        rows = [full_row("100"), full_row("100"), full_row("107"), full_row("99")]
        with pytest.raises(DataError, match="^record times decrease at index 3$"):
            parse_scada_csv(csv_file(tmp_path / "s.csv", COLUMNS, rows))
        with pytest.raises(DataError, match="^record times decrease at index 3$"):
            read_labeled_csv(csv_file(tmp_path / "d.csv", LABELED_COLUMNS, [row + ["normal"] for row in rows]))
        assert parse_scada_csv(csv_file(tmp_path / "s.csv", COLUMNS, rows[:3])).time.tolist() == [100, 100, 107]
        extremes = [-(2**63), -1, 2**63 - 1]  # the difference of the last two is beyond int64
        path = csv_file(tmp_path / "s.csv", COLUMNS, [full_row(str(t)) for t in extremes])
        assert parse_scada_csv(path).time.tolist() == extremes

    def test_round_trip_bitwise(self, rng, tmp_path):
        records = [random_record(rng, time=i * 7) for i in range(50)]
        write_scada_csv(frame_of(records), tmp_path / "s.csv")
        assert dataset_records(parse_scada_csv(tmp_path / "s.csv")) == records


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
        with pytest.raises(DataError, match="^label windows 0 and 1 overlap$"):
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

    def test_window_csv_round_trip(self, tmp_path):
        windows = [
            LabelWindow(50, 150, WindowKind.ICING),
            LabelWindow(150, 190, WindowKind.NORMAL),
        ]
        write_label_windows_csv(windows, tmp_path / "w.csv")
        assert parse_label_windows_csv(tmp_path / "w.csv") == windows


class TestLabelCounts:
    def test_counts(self):
        records = [make_record(time=t) for t in (0, 10, 20)]
        ds = apply_label_windows(
            frame_of(records),
            [LabelWindow(0, 5, WindowKind.NORMAL), LabelWindow(8, 12, WindowKind.ICING)],
            "T1",
        )
        assert ds.label_counts() == {Label.NORMAL: 1, Label.ABNORMAL: 1, Label.INVALID: 1}
        assert ds.turbine_id == "T1"

    def test_empty(self):
        assert dataset_of([], [], "x").label_counts() == {Label.NORMAL: 0, Label.ABNORMAL: 0, Label.INVALID: 0}

    def test_matches_generator_truth(self):
        # counts must equal the generator's own episode bookkeeping
        from icewatch.synthgen import SynthConfig, generate_turbine

        out = generate_turbine(SynthConfig(duration=6000, seed=7))
        ds = apply_label_windows(out.records, out.truth_windows, "synth")
        counts = ds.label_counts()
        truth = {label: 0 for label in Label}
        for label in out.truth_labels:
            truth[label] += 1
        assert counts[Label.NORMAL] == truth[Label.NORMAL]
        assert counts[Label.ABNORMAL] == truth[Label.ABNORMAL]
        assert counts[Label.INVALID] == truth[Label.INVALID]


def test_labeled_csv_round_trip(rng, tmp_path):
    records = [random_record(rng, time=i * 7) for i in range(30)]
    windows = [LabelWindow(0, 100, WindowKind.NORMAL), LabelWindow(100, 140, WindowKind.ICING)]
    ds = apply_label_windows(frame_of(records), windows, "T9")
    write_labeled_csv(ds, tmp_path / "d.csv")
    back = read_labeled_csv(tmp_path / "d.csv", "T9")
    assert back.turbine_id == ds.turbine_id
    assert dataset_records(back) == dataset_records(ds) == records
    assert dataset_labels(back) == dataset_labels(ds)


# the cells whose text a float formatter is most likely to get wrong, all
# in a frame's first row below, and the int64 bounds, in its first four rows
ODD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3]
INT64_BOUNDS = [-(2**63), 2**63 - 1, 0, -1]


@pytest.mark.parametrize("n", [0, 1, scada._CHUNK_ROWS - 1, scada._CHUNK_ROWS, scada._CHUNK_ROWS + 1])
def test_writers_match_csv_writer_reference(n, rng, tmp_path):
    pool = np.concatenate([ODD_FLOATS, rng.standard_normal(53) * 10.0 ** rng.integers(-300, 300, 53)])
    ints = np.resize(np.array(INT64_BOUNDS + rng.integers(-1000, 1000, 7).tolist(), dtype=np.int64), n)
    frame = Frame(ints, np.resize(pool, (n, len(CHANNELS))), ints[::-1].copy())
    codes = (np.arange(n) % len(LABELS)).astype(np.int8)
    X, y = frame.channels[:, 1:11], codes % 2
    windows = [LabelWindow(t - 1, t, list(WindowKind)[i % 2]) for i, t in enumerate(ints.tolist())]
    dataset = LabeledDataset(frame.time, frame.channels, frame.group, "T", codes)
    writers = {
        "raw": (write_scada_csv, reference_frame_csv, (frame,)),
        "labeled": (write_labeled_csv, reference_frame_csv, (dataset,)),
        "feature": (write_feature_csv, reference_feature_csv, (X, y)),
        "predicted-labels": (write_predicted_labels_csv, reference_predicted_labels_csv, (ints, codes, codes == 1)),
        "windows": (write_label_windows_csv, reference_windows_csv, (windows,)),
    }
    for kind, (write, reference, args) in writers.items():
        reference(*args, tmp_path / "expected.csv")
        write(*args, tmp_path / "written.csv")
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes(), kind


def test_writer_memory_is_bounded_by_a_chunk(rng, tmp_path):
    # 24,000 records: calling tolist() on the whole frame peaks at 22.7 MB
    # under tracemalloc, and the chunked writer at 2.0 MB
    n = 24_000
    frame = Frame(np.arange(n, dtype=np.int64) * 7, rng.standard_normal((n, len(CHANNELS))), np.ones(n, np.int64))
    tracemalloc.start()
    try:
        write_scada_csv(frame, tmp_path / "s.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# finite doubles, with -0.0, the smallest subnormal and +-1.7e308 always in reach
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, -5e-324, 1.7e308, -1.7e308])
INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def labeled_datasets(draw):
    n = draw(st.integers(1, 8))
    return LabeledDataset(
        np.sort(draw(arrays(np.int64, n, elements=INT64))),  # the file format requires time order
        draw(arrays(np.float64, (n, len(CHANNELS)), elements=FINITE)),
        draw(arrays(np.int64, n, elements=INT64)),
        "T",
        draw(arrays(np.int8, n, elements=st.integers(0, 2))),
    )


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(labeled_datasets())
def test_frame_csv_round_trip_is_bitwise(tmp_path_factory, ds):
    frame = Frame(ds.time, ds.channels, ds.group)
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_scada_csv(frame, path)
    back = parse_scada_csv(path)
    assert all(same_bits(getattr(back, c), getattr(frame, c)) for c in ("time", "channels", "group"))

    write_labeled_csv(ds, path)
    back = read_labeled_csv(path, "T")
    assert all(same_bits(getattr(back, c), getattr(ds, c)) for c in ("time", "channels", "group", "label"))


# --- the np.loadtxt pass of the raw and labeled reader -----------------------------

TIME_CELLS = INT64.map(str)
VALUE_CELLS = FINITE.map(repr) | st.sampled_from(["-0.0", "5e-324", "1e308", "-1e308", "7", "-0"])
GROUP_CELLS = INT64.map(str)
LABEL_CELLS = st.sampled_from([label.value for label in LABELS])
# cells the row reader takes or rejects that a plain loadtxt pass may not
ODD_TIMES = [
    "2015-11-01 00:00:07", str(2**63 - 1), str(-(2**63)), str(2**63), " 42 ", "+42", "4_2", "\u0664\u0662",
    "\uff14\uff12", "42.0", "#42", '"42"', "",
]
ODD_VALUES = [
    "1_000", "\uff11", "\u0661\u0662", "nan", "inf", "-inf", "NaN", "1e309", " 1.5 ", "\t2", '"1.5"', "#1.5", "",
    "0x10", "1.5e",
]
ODD_GROUPS = ["3.0", '"3"', " 3 ", "3e0", "\u0663", "1_0", str(2**63)]
# "abnormalX" is one character longer than the longest name: a string field
# of that name's width would cut it down to "abnormal"
ODD_LABELS = [" normal", "normal ", '"normal"', "Normal", "abnormalX", "abnormal_icing", "", "icing", "0"]
ODD_CELLS = {"time": ODD_TIMES, "group": ODD_GROUPS, "label": ODD_LABELS}


@st.composite
def scada_files(draw):
    """The text of a raw or labeled SCADA CSV, whether it is labeled, and
    whether every row is plain: integer times and groups, float channels,
    label names, one cell per column."""
    labeled = draw(st.booleans())
    columns = LABELED_COLUMNS if labeled else COLUMNS
    header = draw(st.permutations(columns))
    n = draw(st.integers(0, 5))
    iso = n > 0 and draw(st.integers(0, 5)) == 0
    times = [f"2015-11-01 00:{i:02d}:07" if iso else draw(TIME_CELLS) for i in range(n)]
    if not iso and draw(st.booleans()):  # random times mostly decrease, which the reader rejects
        times.sort(key=int)
    rows = []
    for time in times:
        row = {"time": time, "group": draw(GROUP_CELLS), **{ch: draw(VALUE_CELLS) for ch in CHANNELS}}
        rows.append(row | ({"label": draw(LABEL_CELLS)} if labeled else {}))
    odd_columns = st.sampled_from(columns) | st.just("label") if labeled else st.sampled_from(columns)
    odd = []
    if n and draw(st.booleans()):
        odd = draw(st.lists(st.tuples(st.integers(0, n - 1), odd_columns), max_size=2))
    for r, name in odd:
        rows[r][name] = draw(st.sampled_from(ODD_CELLS.get(name, ODD_VALUES)))
    lines = [",".join(header)] + [",".join(row[name] for name in header) for row in rows]
    # whole-line edits: an extra cell, a missing cell, blank and blank-looking lines
    edits = draw(st.lists(st.tuples(st.integers(1, len(lines)), st.sampled_from(["extra", "short", "", "   "])), max_size=2))
    for at, edit in edits:
        if edit == "extra" and at < len(lines):
            lines[at] += ",0"
        elif edit == "short" and at < len(lines):
            lines[at] = lines[at].rsplit(",", 1)[0]
        elif edit in ("", "   "):
            lines.insert(at, edit)
    plain = n > 0 and not iso and not odd and all(edit == "" for _, edit in edits)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""])), labeled, plain


def _outcome(read):
    """A read's frame and label codes as bytes, "declined" for a loadtxt
    pass that returns None, or the exception's type and message; the read
    must not warn."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = read()
            if got is None:
                result = ("declined",)
            else:
                frame, codes = got
                result = ("frame", frame.time.dtype, frame.time.tobytes(), frame.channels.dtype, frame.channels.shape,
                          frame.channels.tobytes(), frame.group.dtype, frame.group.tobytes(),
                          frame.channels.flags.c_contiguous, codes.dtype, codes.shape, codes.tobytes())
        except Exception as exc:  # compared below, type and message
            result = ("error", type(exc), str(exc))
    assert [str(w.message) for w in caught] == []
    return result


def _text(header, *rows):
    return "\n".join(",".join(row) for row in [header, *rows])


LABELED_ROWS = [("7", "abnormal"), ("7", "invalid"), ("14", "normal")]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(scada_files())
@example((",".join(COLUMNS) + "\n", False, False))  # header only: no data rows, and no loadtxt warning
@example((_text(COLUMNS, full_row(str(-(2**63)), "-0.0", "3.0"), full_row(str(2**63 - 1))), False, False))
@example((_text(COLUMNS, full_row("7"), full_row(str(2**63))), False, False))
@example((_text(COLUMNS, full_row("2015-11-01 00:00:07", "1_000")), False, False))
@example((",".join(LABELED_COLUMNS) + "\n", True, False))
@example((_text(LABELED_COLUMNS, *[full_row(t) + [name] for t, name in LABELED_ROWS]), True, True))
@example((_text(LABELED_COLUMNS, full_row("7") + ["abnormal"], full_row("14") + ["abnormalX"]), True, False))
def test_path_fast_path_matches_row_reader(tmp_path_factory, case):
    text, labeled, plain = case
    path = tmp_path_factory.getbasetemp() / "fast_path.csv"
    path.write_text(text, encoding="utf-8", newline="")
    what = "labeled dataset file" if labeled else "SCADA file for turbine"
    by_read = _outcome(lambda: scada._read(path, what, labeled))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scada, "_loadtxt_frame", lambda path, labeled: None)  # the row reader alone
        assert _outcome(lambda: scada._read(path, what, labeled)) == by_read
    by_rows = _outcome(lambda: scada._read_frame(path, what, labeled))
    by_loadtxt = _outcome(lambda: scada._loadtxt_frame(path, labeled))
    if plain:  # the loadtxt pass itself reads every plain file
        assert by_rows[0] == "frame" and by_loadtxt == by_rows
    else:  # and any file it reads, it reads as the row reader does
        assert by_loadtxt in (("declined",), by_rows)
