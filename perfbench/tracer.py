"""In-memory span tracer that wraps icewatch functions at the bindings their
callers look them up through, from outside the package.

icewatch modules import names with ``from .x import f``, so the binding a
caller uses is the attribute of the *calling* module (``icewatch.pipeline.
denoise_dataset``), not the defining one. ``BINDINGS`` lists those attributes.
``Tracer.install`` replaces each with a recording wrapper and ``restore``
puts every original object back, so untraced runs never execute wrapper code.

A span keeps its name, start, end and parent index. Self time is the span's
duration minus the time its direct children cover; children never overlap
because the program is single-threaded (ICEWATCH_THREADS unset).
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

# calling module -> function names looked up through it
BINDINGS: dict[str, tuple[str, ...]] = {
    "icewatch.pipeline": (
        "drop_invalid", "denoise_dataset", "undersample_order", "feature_vectors", "feature_matrix",
        "engineer_record", "assemble_feature_vector", "strong_rule_filter", "segment_vectors", "gate",
        "crossval_fold_scores", "confusion", "score",
        # module attributes, called as pipeline.f by the benchmark's own set-up
        "train_bundle", "bundle_to_dict",
    ),
    "icewatch.evaluation": ("confusion", "score"),
    "icewatch.cli": (
        "main", "apply_label_windows", "parse_scada_csv", "run_traditional", "run_reengineered",
        "train_bundle", "predict_stream", "bundle_to_dict", "bundle_from_dict",
    ),
    "icewatch.learners": ("train", "predict_batch", "predict"),
    "icewatch.synthgen": ("make_turbine_pair",),
    "icewatch.scada": ("write_scada_csv", "apply_label_windows"),
}


def _n(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) > 1 else 1
    return len(x)


# span name -> (rows in, rows out) from the call's positional arguments and result
ROWS = {
    "preprocess.drop_invalid": lambda a, r: (len(a[0]), len(r)),
    "preprocess.denoise_dataset": lambda a, r: (len(a[0]), len(r)),
    "features.feature_vectors": lambda a, r: (len(a[0]), len(r)),
    "features.feature_matrix": lambda a, r: (len(a[0]), len(a[0])),
    "rules.strong_rule_filter": lambda a, r: (len(a[0]), len(r[0])),
    "rules.segment": lambda a, r: (len(a[0]), len(a[0])),
    "evaluation.crossval_fold_scores": lambda a, r: (_n(a[0]), _n(a[0])),
    "evaluation.confusion": lambda a, r: (len(a[0]), len(a[0])),
    "learners.train": lambda a, r: (_n(a[1]), _n(a[1])),
    "learners.predict_batch": lambda a, r: (_n(a[1]), len(r)),
    "scada.parse_scada_csv": lambda a, r: (len(r), len(r)),
    "scada.write_scada_csv": lambda a, r: (len(a[0]), len(a[0])),
    "scada.apply_label_windows": lambda a, r: (len(a[0]), len(r)),
    "synthgen.make_turbine_pair": lambda a, r: (len(r[0].records) + len(r[1].records),) * 2,
    "pipeline.predict_stream": lambda a, r: (len(a[1]), len(r)),
}


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('icewatch.')}.{fn.__name__}"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    rows_in: int = 0
    rows_out: int = 0


@dataclass
class Stats:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    rows_in: int = 0
    rows_out: int = 0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, fn, name: str | None = None):
        name = name or span_name(fn)
        rows = ROWS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if rows is not None:
                span.rows_in, span.rows_out = rows(args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, names in BINDINGS.items():
            module = importlib.import_module(module_name)
            for attr in names:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original))

    def restore(self) -> list[str]:
        """Put every original back; return the bindings that are still not
        the original object afterwards (none, unless restoring is broken)."""
        saved, self._saved = self._saved, []
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
        return [f"{m.__name__}.{a}" for m, a, original in saved if getattr(m, a) is not original]

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.end - s.start
        return out

    def stats(self, roots: set[int] | None = None) -> dict[str, Stats]:
        """Aggregate by span name; with ``roots``, only spans under those roots."""
        own = self.self_times()
        root_of: list[int] = []
        for i, s in enumerate(self.spans):
            root_of.append(i if s.parent < 0 else root_of[s.parent])
        table: dict[str, Stats] = {}
        for i, s in enumerate(self.spans):
            if roots is not None and root_of[i] not in roots:
                continue
            st = table.setdefault(s.name, Stats())
            st.calls += 1
            st.self_s += own[i]
            st.incl_s += s.end - s.start
            st.rows_in += s.rows_in
            st.rows_out += s.rows_out
        return table


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def self_test() -> list[str]:
    """Check the tracer on a nested toy call tree; return failure messages."""
    tracer = Tracer()
    leaf = tracer.wrap(lambda: _busy(0.002), "toy.leaf")
    mid = tracer.wrap(lambda: (_busy(0.001), leaf(), leaf()), "toy.mid")
    root = tracer.wrap(lambda: (_busy(0.001), mid(), leaf(), mid()), "toy.root")
    root()
    errors = []
    total_self = sum(tracer.self_times())
    inclusive = tracer.spans[0].end - tracer.spans[0].start
    if abs(total_self - inclusive) > 1e-9 * max(1.0, inclusive):
        errors.append(f"toy tree: self times sum to {total_self!r}, root inclusive is {inclusive!r}")
    counts = {name: st.calls for name, st in tracer.stats().items()}
    if counts != {"toy.root": 1, "toy.mid": 2, "toy.leaf": 5}:
        errors.append(f"toy tree: wrong call counts {counts}")
    if any(st.self_s < 0 for st in tracer.stats().values()):
        errors.append("toy tree: negative self time")
    return errors
