"""Exception hierarchy shared by all hnf modules.

Every error raised by the library derives from :class:`HnfError` so callers
can catch one base class. Each class's ``exit_code`` is the code ``hnf``
exits with when it reports that error.
"""


class HnfError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 4


class ConfigError(HnfError):
    """Invalid training or run configuration."""
    exit_code = 2


class ParameterError(HnfError):
    """An argument violates an operation's precondition."""
    exit_code = 2


class DimensionError(HnfError):
    """Array shapes do not satisfy the operation's contract."""
    exit_code = 2


class StateError(HnfError):
    """Requested something the current artifacts do not contain."""
    exit_code = 2


class DataError(HnfError):
    """Dataset content is unusable (empty, non-finite, inconsistent)."""
    exit_code = 3


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
    exit_code = 5
