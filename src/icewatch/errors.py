"""Exception hierarchy.

Two branches matter to callers: ConfigError (bad configuration or usage,
CLI exit code 2) and DataError (malformed or degenerate data, CLI exit
code 3). Everything raised by this package derives from IcewatchError.
"""


class IcewatchError(Exception):
    pass


class ConfigError(IcewatchError):
    """Invalid configuration, hyperparameters, or CLI usage."""


class DataError(IcewatchError):
    """Malformed input data or data that violates an operation's contract."""


# --- ingestion -------------------------------------------------------------

class MissingColumn(DataError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"missing required column: {name!r}")


class UnexpectedColumn(DataError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unexpected column in header: {name!r}")


class NonNumericCell(DataError):
    def __init__(self, row, column, value):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r}: not a finite number: {value!r}")


class ShortRow(DataError):
    def __init__(self, row, cells, columns):
        self.row = row
        super().__init__(f"row {row}: {cells} cells, header has {columns}")


class UnparseableTimestamp(DataError):
    def __init__(self, row, value):
        self.row = row
        super().__init__(f"row {row}: cannot parse timestamp {value!r}")


class EmptyFile(DataError):
    def __init__(self, what="input"):
        super().__init__(f"{what} contains no data rows")


class OverlappingWindows(DataError):
    def __init__(self, i, j):
        self.i = i
        self.j = j
        super().__init__(f"label windows {i} and {j} overlap")


# --- preprocessing ---------------------------------------------------------

class WindowLargerThanSeries(DataError):
    def __init__(self, window, length):
        self.window = window
        self.length = length
        super().__init__(f"moving-average window {window} exceeds series length {length}")


class EmptyClass(DataError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"dataset has no {label} records")


class TooFewNormal(DataError):
    def __init__(self, n_normal, n_abnormal):
        super().__init__(f"cannot under-sample: {n_normal} normal < {n_abnormal} abnormal")


# --- feature engineering ---------------------------------------------------

class DegenerateDenominator(DataError):
    def __init__(self, channel, value):
        self.channel = channel
        super().__init__(f"{channel}={value!r} too close to -5; offset denominator degenerate")


class InvalidLabel(DataError):
    def __init__(self, label):
        self.label = label
        super().__init__(f"label {label!r} not allowed here (expected normal or abnormal)")


class SingleClassDataset(DataError):
    def __init__(self, msg="dataset contains only one class"):
        super().__init__(msg)


# --- rules -----------------------------------------------------------------

class UnknownRule(ConfigError):
    def __init__(self, rule_id):
        self.rule_id = rule_id
        super().__init__(f"unknown builtin rule: {rule_id!r} (expected R1..R5)")


# --- learners --------------------------------------------------------------

class TooFewSamples(DataError):
    def __init__(self, needed, got):
        super().__init__(f"training needs at least {needed} samples, got {got}")


class EmptyMatrix(DataError):
    def __init__(self):
        super().__init__("matrix has no rows")


# --- evaluation ------------------------------------------------------------

class LengthMismatch(DataError):
    def __init__(self, n_actual, n_predicted):
        super().__init__(f"actual has {n_actual} labels, predicted has {n_predicted}")


class EmptyClassInTest(DataError):
    def __init__(self, which):
        super().__init__(f"test set has no {which} samples; score undefined")


class InvalidK(ConfigError):
    def __init__(self, k, n):
        super().__init__(f"k={k} invalid for n={n} (need 2 <= k <= n)")


class DegenerateFolds(DataError):
    def __init__(self, attempts):
        super().__init__(f"could not draw folds with both classes in every training fold after {attempts} attempts")


# --- pipeline / synthesis --------------------------------------------------

class SegmentTooSmall(DataError):
    def __init__(self, segment, count, minimum):
        self.segment = segment
        super().__init__(f"{segment} segment has {count} training candidates, below minimum {minimum}")


class InvalidConfig(ConfigError):
    pass
