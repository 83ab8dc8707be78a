"""Physics-informed blade-icing prediction pipelines for wind-turbine
SCADA data, with a synthetic data generator for desk-scale experiments."""

__version__ = "0.1.0"

from .scada import Frame, Label, LabeledDataset, ScadaRecord  # noqa: F401
