"""Exception taxonomy shared by all modules.

Everything raised on purpose derives from MatroidForgeError so the CLI can
map domain failures to a single exit code.
"""

from __future__ import annotations


class MatroidForgeError(Exception):
    """Base class for all deliberate failures."""


class SpecError(MatroidForgeError):
    """Malformed construction parameters."""


class GroundError(MatroidForgeError):
    """Arguments outside the ground set, or mismatched/overlapping ground sets."""


class BoundError(MatroidForgeError):
    """An exhaustive operation was asked to exceed its declared size bound."""


class DependenceError(MatroidForgeError):
    """A set required to be independent is not."""


class SchemaError(MatroidForgeError):
    """A finitary schema cannot certify or construct what was asked of it."""


class TaskError(MatroidForgeError):
    """Invalid task pair for the forcing simulator."""


class FamilyError(MatroidForgeError):
    """Invalid family of equivalence-class representatives."""


class ClaimError(MatroidForgeError):
    """A forcing step was attempted while its structural preconditions fail.

    `result` is the failing `Verdict` of `check_claim_preconditions`.
    """

    def __init__(self, result):
        self.result = result
        super().__init__(str(result))


class ParseError(MatroidForgeError):
    """Input file rejected; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
