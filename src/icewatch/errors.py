"""The two kinds of error icewatch raises.

ConfigError is bad configuration or usage (CLI exit code 2); InvalidConfig
is the ConfigError the package raises. DataError is malformed or
degenerate data (CLI exit code 3). Both derive from IcewatchError.

There is no class per failure: the message is the contract. The CLI
prints it on one line, and tests match it, so each message is built in
one place and its text does not change.
"""


class IcewatchError(Exception):
    pass


class ConfigError(IcewatchError):
    """Invalid configuration, hyperparameters, or CLI usage."""


class InvalidConfig(ConfigError):
    """A configuration value, file or bundle that cannot be used."""


class DataError(IcewatchError):
    """Malformed input data or data that violates an operation's contract."""
