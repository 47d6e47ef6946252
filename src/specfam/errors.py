"""Error types shared across the toolkit.

Every failure the command line surfaces as a nonzero exit code is an
instance of ToolkitError; numeric failures (lost preconditions, solver
breakdowns) all derive from NumericError so the runner can map them to a
single exit code.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all toolkit failures."""


class ParseError(ToolkitError):
    """Scenario text could not be parsed.  Carries line/column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnsupportedModel(ToolkitError):
    """The named model (or model/operation pairing) is not in the gallery."""


class IncompatibleModel(ToolkitError):
    """Element, representation and model do not belong together."""


class IncompatibleQuery(ToolkitError):
    """A query payload does not type-check against the scenario model."""


class NumericError(ToolkitError):
    """Base class for numerical failures."""


class NotNormal(NumericError):
    """Matrix fails the normality precondition."""


class NoConvergence(NumericError):
    """Eigensolver failed to converge."""


class EmptySet(NumericError):
    """Hausdorff distance against an empty spectrum."""


class TruncationTooSmall(NumericError):
    """Requested finite section cannot hold the finite-rank correction."""


class NotSelfAdjoint(NumericError):
    """Observable payload is not self-adjoint within tolerance."""


class NotElliptic(NumericError):
    """Principal symbol vanishes on a sampled direction."""


class CutoffTooSmall(NumericError):
    """Mode cutoff is too small for the requested check."""
