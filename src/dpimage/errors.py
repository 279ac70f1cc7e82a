"""Toolkit exception hierarchy.

Every error carries a short machine-parseable ``category`` used by the CLI
when reporting failures (one line, nonzero exit).
"""


class DpImageError(Exception):
    """Base class for toolkit errors."""

    category = "error"


class ConfigError(DpImageError):
    category = "config"


class FormatError(DpImageError):
    """Malformed file content (model, image or ledger files)."""

    category = "format"


class BadMagicError(FormatError):
    category = "format.bad_magic"


class VersionError(FormatError):
    category = "format.version"


class TruncatedError(FormatError):
    category = "format.truncated"


class BadMaxvalError(FormatError):
    category = "format.bad_maxval"


class TrainingError(DpImageError):
    category = "training"


class DataError(DpImageError):
    category = "data"
