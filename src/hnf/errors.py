"""Exception hierarchy shared by all hnf modules.

Every error raised by the library derives from :class:`HnfError` so callers
can catch one base class. The CLI maps subclasses to stable exit codes
(see ``hnf.cli``).
"""


class HnfError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(HnfError):
    """Invalid training or run configuration."""


class ParameterError(HnfError):
    """An argument violates an operation's precondition."""


class DimensionError(HnfError):
    """Array shapes do not satisfy the operation's contract."""


class StateError(HnfError):
    """Requested something the current artifacts do not contain."""


class DataError(HnfError):
    """Dataset content is unusable (empty, non-finite, inconsistent)."""


class ParseError(DataError):
    """A text data file could not be parsed; message carries row/column."""


class FormatError(DataError):
    """A binary file does not match its declared format."""


class SolverError(HnfError):
    """An optimization routine failed or produced an infeasible result."""


class NotInvertibleError(SolverError):
    """The network has a non-expanding layer, so it cannot be inverted."""


class NumericalError(SolverError):
    """A numerical routine did not converge."""


class ResourceError(HnfError):
    """A memory or runtime budget would be exceeded."""
