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


class ConstructionError(ConfinderError, ValueError):
    """No valid completion of a PAG exists; names the blocking edge."""


class BudgetError(ConfinderError):
    """The search budget ran out before a model within the caps was found.

    Not a ValueError: the input can be valid, and a larger budget may find
    the model the cut run did not reach."""


class InconsistentStateError(ConfinderError, ValueError):
    """An internal invariant failed: a program fault, not bad input.

    Raised when a variational state's parameter posteriors do not match its
    responsibilities (the closed-form bound would be wrong, so we refuse),
    when responsibilities are not distributions or a bound trace decreases,
    when a search trace contradicts its winner or stop reason, and when no
    latent placement reproduces a valid MAG's independencies."""


class DataBindingError(ConfinderError, ValueError):
    """Model variables and dataset columns do not line up."""
