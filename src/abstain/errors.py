"""The errors the CLI reports: a DataError (exit 2) names its fault by
``code``; a UsageError (exit 1) is a bad command line or method request.
Stdlib only, so a command that needs no numpy can raise and catch them."""


class UsageError(Exception):
    pass


class DataError(Exception):
    """Base for malformed or inconsistent inputs."""

    code = "data-error"


class MagicError(DataError):
    code = "bad-magic"


class VersionError(DataError):
    code = "bad-version"


class ChecksumError(DataError):
    code = "checksum-mismatch"


class RowCountError(DataError):
    code = "row-count-disagreement"


class FormatError(DataError):
    code = "bad-format"
