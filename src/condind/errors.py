"""Exception hierarchy shared across the package."""

from __future__ import annotations


class CondIndError(Exception):
    """Base class for every error raised by this package."""


class ParseError(CondIndError):
    """Scenario file is not syntactically valid JSON."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ValidationError(CondIndError):
    """A structural invariant was violated (null atom, bad partition, ...)."""


class SpaceMismatchError(ValidationError):
    """Two objects built over different probability spaces were combined."""


class CapExceededError(CondIndError):
    """A partition has more cells than `space.EVENT_CAP`; its events are not enumerated."""


class MixedTargetsError(ValidationError):
    """Indicators in a family do not share the same target partition."""


class NotMonotoneError(CondIndError):
    """Operation requires the `increasing` flag on the indicator."""


class NotIncreasingError(NotMonotoneError):
    """Risk-measure construction requires an increasing indicator."""


class NotRegularError(CondIndError):
    """Cellwise computation requires the `regular` flag on the indicator."""


class EmptyDomainError(CondIndError):
    """Combined indicator would have an empty domain."""


class DomainViolationError(CondIndError):
    """Argument lies outside the indicator's declared domain."""


class GridTooLargeError(CondIndError):
    """Candidate enumeration budget exceeded in projection_solve."""


class BadDensityError(ValidationError):
    """Density fails nonnegativity or one of its normalization conditions."""


class HypothesisFailedError(CondIndError):
    """Density recovery hypotheses (additivity / self-duality) falsified."""

    def __init__(self, failed: tuple[str, ...], reports=()):
        super().__init__("hypothesis failed: " + ", ".join(failed))
        self.failed = failed
        self.reports = tuple(reports)


class UnknownNameError(CondIndError):
    """An indicator name or spec, or a `--property` name, did not resolve;
    unknown variable, partition and time names raise ValidationError."""
