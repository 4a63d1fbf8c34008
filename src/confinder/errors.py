"""Exception types shared across the package."""


class ConfinderError(Exception):
    """Base class for errors raised by this package."""


class GraphFormatError(ConfinderError, ValueError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EnumerationLimitError(ConfinderError, RuntimeError):
    """The orientation space of a PAG exceeds the configured limit.

    Exhaustive enumeration would be too large; switch to the hill-climbing
    strategy (``--strategy hclcv``) which never enumerates the full space.
    """


class ConstructionError(ConfinderError, ValueError):
    """No valid completion of a PAG exists; names the blocking edge."""


class LatentizationError(ConfinderError, ValueError):
    """No independence-preserving latent placement was found for a MAG."""


class InconsistentStateError(ConfinderError, ValueError):
    """An internal invariant failed: a program fault, not bad input.

    Raised when a variational state's parameter posteriors do not match its
    responsibilities (the closed-form bound would be wrong, so we refuse),
    when responsibilities are not distributions or a bound trace decreases,
    and when a search trace contradicts its winner or stop reason."""


class DataBindingError(ConfinderError, ValueError):
    """Model variables and dataset columns do not line up."""
