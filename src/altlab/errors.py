"""Shared exception types for the altlab package."""


class AltlabError(Exception):
    """Base class for all altlab errors."""


class ConfigError(AltlabError, ValueError):
    """Invalid configuration, dimension mismatch, or disallowed usage."""


class DataError(AltlabError, ValueError):
    """Malformed or non-finite input data."""


class InsufficientDataError(DataError):
    """An episode log is too short for the requested computation."""


class SchemaVersionError(DataError):
    """A persisted artifact carries an unexpected schema version."""


class ComparisonError(AltlabError, ValueError):
    """A comparison has a degenerate reference, or a score outside [0, 1]."""

