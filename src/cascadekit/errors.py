"""Exception types shared across the package.

Every error cascadekit raises on purpose derives from CascadekitError, and
each concrete type is also a ValueError.
"""


class CascadekitError(Exception):
    """Base class of every cascadekit error."""


class ParameterError(CascadekitError, ValueError):
    """An argument falls outside its valid domain."""


class DegenerateSampleError(CascadekitError, ValueError):
    """A sample cannot support the requested fit or test."""


class SupercriticalError(CascadekitError, ValueError):
    """A branching ratio >= 1 makes the expected cascade size diverge."""


class UndefinedMetricError(CascadekitError, ValueError):
    """A tree metric has no defined value (e.g. empty tree, no eligible edges)."""


class TreeValidationError(CascadekitError, ValueError):
    """Base class for sharing-tree schema violations."""


class TreeSchemaError(TreeValidationError):
    """Malformed document structure or field of the wrong kind."""


class TreeCycleError(TreeValidationError):
    """Parent links contain a cycle."""


class OrphanParentError(TreeValidationError):
    """A node references a parent id that does not exist."""


class SigmaRangeError(TreeValidationError):
    """A node polarization lies outside [-1, 1]."""


class TimestampOrderError(TreeValidationError):
    """A child carries an earlier timestamp than its parent."""
