"""Error types shared across the toolkit, and the base of its immutable classes.

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


class _Frozen:
    """Base of the immutable classes that validate or keep memos.

    A subclass names its fields in _fields and sets them once, in its
    __init__, through _set; assigning or deleting an attribute afterwards
    raises.  repr shows the fields; equality (with an instance of the same
    class) and hash are by their values, unless the subclass restores
    object's.  cached_property memos write to the instance dict directly.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        vars(self).update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())
