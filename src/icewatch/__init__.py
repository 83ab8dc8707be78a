"""Physics-informed blade-icing prediction pipelines for wind-turbine
SCADA data, with a synthetic data generator for desk-scale experiments."""

__version__ = "0.1.0"

# The data types load numpy, so they are imported on first use: the CLI
# must pin BLAS threads before numpy loads (see icewatch.cli).
_SCADA_EXPORTS = ("Frame", "Label", "LabeledDataset")


def __getattr__(name):
    if name in _SCADA_EXPORTS:
        from . import scada

        return getattr(scada, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
