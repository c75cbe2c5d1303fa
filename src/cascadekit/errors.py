"""Exception types and the rules of values, shared across the package.

Every error cascadekit raises on purpose derives from CascadekitError, and
each concrete type is also a ValueError. is_integer and is_real are the
one statement of a count and a number (files.KINDS reads by them).
"""

import numbers


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


def is_integer(value) -> bool:
    """Whether value is an integer (a numpy integer too), not a bool: the rule of every count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether value is a real number (a numpy scalar too), not a bool: the rule of every number."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_unit(value) -> bool:
    """Whether is_real(value) and value is in [0, 1]: the rule of every probability."""
    return is_real(value) and 0.0 <= value <= 1.0


def check_unit(value, what: str) -> None:
    """Raise ParameterError "<what> must be in [0, 1], got <value>" unless is_unit(value) (a non-number: its repr)."""
    if not is_unit(value):
        shown = value if is_real(value) else repr(value)
        raise ParameterError(f"{what} must be in [0, 1], got {shown}")
