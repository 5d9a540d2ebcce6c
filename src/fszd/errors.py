"""Exception taxonomy for the fszd package."""
from __future__ import annotations


class FszdError(Exception):
    """Base class for all errors raised by this package."""


class SpecParseError(FszdError):
    """Malformed group-spec string."""


class DegreeLimitError(FszdError):
    """Permutation degree above the configured maximum."""


class ResourceLimitError(FszdError):
    """A computation would exceed a configured enumeration/order bound."""

    def __init__(self, message: str, limit: int | None = None):
        super().__init__(message)
        self.limit = limit


class NotInGroupError(FszdError):
    """An element was passed that does not belong to the group at hand."""


class BadDivisorError(FszdError):
    """A parameter that must divide a group invariant does not."""


class NotCoprimeError(FszdError):
    """Galois map sigma_r requested with r not coprime to the conductor."""


class MismatchedTablesError(FszdError):
    """Class functions over different class sets were combined."""


class TableComputationError(FszdError):
    """Character table computation could not be completed exactly."""


class NonCommutingPairError(FszdError):
    """A double character was evaluated at a non-commuting pair."""


class ConfigError(FszdError):
    """A malformed configuration value, such as the FSZD_MAX_ORDER variable."""


class InvariantError(FszdError):
    """An internal consistency check failed; the message names the stage."""
