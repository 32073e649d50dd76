"""Exception hierarchy shared by all safeprob modules."""


class SafeprobError(Exception):
    """Base class for all errors raised by this package."""


class SizeLimit(SafeprobError):
    """Outcome space exceeds the configured atom cap for exact enumeration."""


class InfeasibleCredalSet(SafeprobError):
    """No probability distribution satisfies the given constraints."""


class ZeroProbabilityConditioning(SafeprobError):
    """Attempted to condition on an event of probability zero."""


class NotEssentiallyUnique(SafeprobError):
    """Some candidate truth supports a conditioning value the pragmatic
    distribution assigns probability zero, so its conditionals are not
    pinned down where they matter."""


class NonNumericTarget(SafeprobError):
    """An expectation was requested for a random variable whose values
    are not numeric."""


class MissingDetermination(SafeprobError):
    """A required functional dependence between random variables does
    not hold."""


class EquivalenceViolation(SafeprobError):
    """Two routes that must agree by construction disagreed. This always
    indicates an implementation bug and is surfaced, never swallowed."""


class NotFullSupport(SafeprobError):
    """The pragmatic distribution does not support every value of the
    conditioning variable."""


class NotAPivot(SafeprobError):
    """The supplied map does not satisfy the pivot requirements."""


class UniquenessViolated(SafeprobError):
    """Two outcomes receive the same nonzero conditional probability, so
    the probability-of-outcome map is not injective."""

    def __init__(self, v, p, outcomes):
        from .core import format_value

        self.v = v
        self.p = p
        self.outcomes = tuple(outcomes)
        super().__init__(
            f"conditional probability {p} at conditioning value {format_value(v)} is "
            f"shared by outcomes {format_value(self.outcomes)}"
        )


class InfiniteLoss(SafeprobError):
    """Log loss evaluated on an outcome the chosen action assigns zero
    probability."""


class ZeroMassObservable(SafeprobError):
    """An observable event carries zero prior mass, so renormalising onto
    it is undefined."""


class DomainError(SafeprobError):
    """Argument outside the mathematical domain of a function."""


class BracketingFailure(SafeprobError):
    """Root bracketing did not find a sign change within the expansion cap."""


class ParseError(SafeprobError):
    """Scenario file is not well formed."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"{message}{loc}")


class ValidationError(SafeprobError):
    """Scenario file parsed but violates an invariant."""
