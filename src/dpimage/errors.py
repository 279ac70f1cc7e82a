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


def decode_utf8(path, blob: bytes, error: type[DpImageError]) -> str:
    """blob as UTF-8 text; bytes that are not UTF-8 raise error naming the file and line."""
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}, line {line}: byte 0x{blob[exc.start]:02x} is not UTF-8") from None
