"""Exception hierarchy shared across the package."""


class GpsynError(Exception):
    """Base class for all package errors."""


class ModelError(GpsynError):
    """A model object is malformed or references an unknown fluent/action."""


class ConflictError(ModelError):
    """Two literals (or two triggered effects) assert opposite polarities."""


class VariantMismatchError(GpsynError):
    """A compilation was requested for inputs its variant does not accept."""


class MalformedPlanError(GpsynError):
    """A plan cannot be decoded against the compiled instance it solves."""


class ParseError(GpsynError):
    """Input text (program, JSON problem, or PDDL) failed to parse."""


class ExecutionResourceError(GpsynError):
    """The interpreter's visited-state cap was exceeded.

    Deliberately distinct from any execution outcome: hitting the cap says
    nothing about whether the program solves the instance.
    """


class InternalConsistencyError(GpsynError):
    """Two redundant computation paths disagreed (e.g. direct vs compiled)."""
