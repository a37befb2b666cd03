"""Exception hierarchy shared across the package."""

from __future__ import annotations


class MlaForgeError(Exception):
    """Base class for all package errors."""


class ValidationError(MlaForgeError, ValueError):
    """An input object violates a structural invariant (bad table, bad map, ...)."""


class InvalidGroupError(ValidationError):
    """A Cayley table fails the group axioms.

    Carries the violations ``verify_group`` found, so callers can report them.
    """

    def __init__(self, message: str, violations: list):
        self.violations = violations
        super().__init__(message)


class BoundExceededError(MlaForgeError):
    """A configured size bound (group order, automorphism bound) was exceeded."""


class ConditionsViolatedError(MlaForgeError):
    """Construction data failed the bracket-induction conditions.

    Carries the condition report, which has a failing condition, so callers
    can show the witness.
    """

    def __init__(self, report):
        self.report = report
        name, status = report.first_failure()
        super().__init__(f"condition {name} fails at witness {status.witness}")


class NotIdealError(MlaForgeError):
    """The designated subgroup is not an ideal of the given bracket."""


class ReconstructionMismatchError(MlaForgeError):
    """A decomposed bracket could not be reproduced from the extracted data."""
